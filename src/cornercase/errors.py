"""Exception hierarchy shared across the toolkit, and the one seed rule.

The CLI maps these onto exit codes (see cli.py): configuration errors
exit 2, data-side errors (validation, format, fit) exit 3, and plain
OSError exits 4.
"""

import numbers


class CornerCaseError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(CornerCaseError):
    """Arguments or data violate a documented precondition or invariant."""


class DegenerateInputError(ValidationError):
    """Input is structurally valid but statistically degenerate (e.g. constant)."""


class FormatError(CornerCaseError):
    """A file does not conform to its declared on-disk format."""


class FitError(CornerCaseError):
    """Model fitting failed or the fitting data is unusable."""


class ConfigError(CornerCaseError):
    """A benchmark configuration is invalid or has an unsupported schema."""


def check_seed(seed, error: type = ValidationError) -> None:
    """Raise error unless seed is an integer in [0, 2^63), which default_rng and a model file take."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or not 0 <= seed < 1 << 63:
        raise error(f"seed must be an integer in [0, 2**63), got {seed!r}")
