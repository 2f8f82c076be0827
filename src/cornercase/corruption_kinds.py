"""Corruption kinds and fog's default atmospheric light.

Kept apart from corruptions, which needs numpy, so that the command-line
parser can print them without loading it.
"""

CORRUPTION_KINDS = ("fog", "gaussian_noise", "white_box")

DEFAULT_ATMOSPHERIC_LIGHT = 0.92
