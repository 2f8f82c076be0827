"""Co-variate corruption generators: depth-aware fog, sensor noise,
white-pixel occlusion, and severity sweeps.

Fog follows the atmospheric scattering model
    out = in * t + A * (1 - t),   t = exp(-beta * depth),
so each output pixel is a convex combination of the scene radiance and
the atmospheric light A. With A above the scene radiance the output is
monotone non-decreasing in beta pixel by pixel.

Every operation is a pure function of (input, spec) including the
seed, so sweeps replay bit-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .images import DepthMap, ImageBuffer, load_depth, load_image, save_image

CORRUPTION_KINDS = ("fog", "gaussian_noise", "white_box")

DEFAULT_ATMOSPHERIC_LIGHT = 0.92

# float64 values in one sweep block: b severities of an H x W image make
# b*H*W*3 <= 2^16 (512 KiB). On 64x96 noise sweeps a 2^18 budget was
# slower and raised peak memory, so this is a constant, not a setting.
_SWEEP_BLOCK_ELEMENTS = 1 << 16

# depth fallback when no map is supplied: vertical ramp approximating
# road-scene geometry, far at the top of the frame, near at the bottom
RAMP_TOP_METERS = 300.0
RAMP_BOTTOM_METERS = 5.0

SWEEP_PRESETS = {
    "fog-paper": ("fog", (0.005, 0.01, 0.02)),
    "noise-paper": ("gaussian_noise", tuple(np.linspace(0.001, 0.01, 50))),
    "whitebox-paper": ("white_box", tuple(np.linspace(0.007, 0.119, 20))),
}


@dataclass(frozen=True)
class CorruptionSpec:
    """One corruption setting: beta for fog, sigma for noise, area
    fraction for white_box."""

    kind: str
    severity: float
    seed: int = 0
    atmospheric_light: float = DEFAULT_ATMOSPHERIC_LIGHT

    def __post_init__(self):
        if self.kind not in CORRUPTION_KINDS:
            raise ValidationError(f"unknown corruption kind {self.kind!r}")
        if not np.isfinite(self.severity) or self.severity < 0:
            raise ValidationError("severity must be a non-negative real")
        if self.kind == "white_box" and self.severity > 1.0:
            raise ValidationError("white_box area fraction must be <= 1")
        if not 0.0 <= self.atmospheric_light <= 1.0:
            raise ValidationError("atmospheric_light must lie in [0, 1]")


def default_depth_ramp(height: int, width: int) -> DepthMap:
    """Linear top-to-bottom depth ramp for depth-free datasets."""
    col = np.linspace(RAMP_TOP_METERS, RAMP_BOTTOM_METERS, height)
    depth = np.tile(col[:, None], (1, width))
    return DepthMap(depth=depth, valid=np.ones((height, width), dtype=bool))


def _resolved_depth(img: ImageBuffer, depth: DepthMap | None) -> np.ndarray:
    if depth is None:
        return default_depth_ramp(img.height, img.width).depth
    if (depth.height, depth.width) != (img.height, img.width):
        raise ValidationError(
            f"depth {depth.height}x{depth.width} does not match "
            f"image {img.height}x{img.width}"
        )
    if depth.valid.all():
        return depth.depth
    if not depth.valid.any():
        raise ValidationError("depth map has no valid pixels")
    filled = depth.depth.copy()
    filled[~depth.valid] = np.median(depth.depth[depth.valid])
    return filled


def apply_fog(
    img: ImageBuffer,
    depth: DepthMap | None,
    beta: float,
    atmospheric_light: float = DEFAULT_ATMOSPHERIC_LIGHT,
) -> ImageBuffer:
    """Render fog with extinction coefficient beta (per meter).

    Invalid-depth pixels use the median of the valid depths; a missing
    depth map falls back to the default vertical ramp.
    """
    spec = CorruptionSpec("fog", beta, atmospheric_light=atmospheric_light)
    return apply_corruption(img, spec, depth)


def apply_gaussian_noise(img: ImageBuffer, sigma: float, seed: int = 0) -> ImageBuffer:
    """Add i.i.d. zero-mean Gaussian noise per pixel-channel, clamped.

    The noise is sigma times the standard normal field drawn from
    default_rng(seed), so one field serves every sigma of a sweep.
    """
    return apply_corruption(img, CorruptionSpec("gaussian_noise", sigma, seed=seed))


def apply_white_box(img: ImageBuffer, area_fraction: float, seed: int = 0) -> ImageBuffer:
    """Paint one square white box covering roughly area_fraction of the image.

    The side is round(sqrt(f * H * W)) clamped to the image bounds; the
    box position is drawn uniformly from the seeded generator.
    """
    return apply_corruption(img, CorruptionSpec("white_box", area_fraction, seed=seed))


def apply_corruption(
    img: ImageBuffer, spec: CorruptionSpec, depth: DepthMap | None = None
) -> ImageBuffer:
    """Corrupt one image under one spec: a sweep of one image at one
    severity, so `corrupt`, `sweep` and this function share every formula."""
    ((_, _, _, block),) = sweep_images([(img, depth)], [spec])
    return ImageBuffer(block[0])


# Each function below corrupts one (H, W, 3) image at b severities and
# returns the (b, H, W, 3) stack; _sweep_blocks picks one per kind.


def _fog_stack(pixels, depth, atmospheric_light, betas):
    t = np.exp(-betas[:, None, None] * depth)[..., None]
    out = pixels * t + atmospheric_light * (1.0 - t)
    return np.clip(out, 0.0, 1.0, out=out)


def _noise_stack(pixels, field, sigmas):
    # sigma * field equals Generator.normal(0, sigma, shape) bit for bit
    out = sigmas[:, None, None, None] * field
    out += pixels
    return np.clip(out, 0.0, 1.0, out=out)


def _box_stack(pixels, seed, fractions):
    h, w = pixels.shape[:2]
    out = np.repeat(pixels[None], len(fractions), axis=0)
    for k, fraction in enumerate(fractions):
        side = min(int(np.floor(np.sqrt(fraction * h * w) + 0.5)), h, w)
        if side:
            rng = np.random.default_rng(seed)
            top = int(rng.integers(0, h - side + 1))
            left = int(rng.integers(0, w - side + 1))
            out[k, top : top + side, left : left + side, :] = 1.0
    return out


def severity_sweep(
    kind: str,
    grid,
    base_seed: int = 0,
    atmospheric_light: float = DEFAULT_ATMOSPHERIC_LIGHT,
) -> list[CorruptionSpec]:
    """Expand a severity grid or a named preset into corruption specs.

    Presets: fog-paper (3 fog levels), noise-paper (50 equally spaced
    sigmas in [0.001, 0.01]), whitebox-paper (20 area fractions equally
    spaced in [0.007, 0.119]). Every spec carries base_seed: a sweep
    gives image i the seed base_seed + i at every severity.
    """
    if isinstance(grid, str):
        if grid not in SWEEP_PRESETS:
            raise ValidationError(
                f"unknown preset {grid!r}; choose from {sorted(SWEEP_PRESETS)}"
            )
        preset_kind, severities = SWEEP_PRESETS[grid]
        if preset_kind != kind:
            raise ValidationError(f"preset {grid!r} is for kind {preset_kind!r}, not {kind!r}")
    else:
        severities = tuple(float(v) for v in grid)
        if not severities:
            raise ValidationError("severity grid must be non-empty")
    # severity_dirname rounds monotonically, so in an increasing grid the
    # severities that would share an output directory are neighbours
    for a, b in zip(severities, severities[1:]):
        if b <= a:
            raise ValidationError("severity grid must be strictly increasing")
        if severity_dirname(a) == severity_dirname(b):
            raise ValidationError(
                f"severities {a!r} and {b!r} share the output directory "
                f"{severity_dirname(a)!r}"
            )
    return [
        CorruptionSpec(
            kind=kind,
            severity=float(sev),
            seed=base_seed,
            atmospheric_light=atmospheric_light,
        )
        for sev in severities
    ]


# ---------------------------------------------------------------------------
# directory sweeps
# ---------------------------------------------------------------------------


def severity_dirname(severity: float) -> str:
    return format(severity, ".6g")


def sweep_images(sources, specs):
    """Corrupt every source image under every spec, images in the outer loop.

    The specs share one kind, seed and atmospheric light and differ in
    severity only; they are checked here, before any image is read.
    sources yields (ImageBuffer, DepthMap | None) pairs and is consumed
    once, in order, so a lazy source reads each file once. Image i gets
    the noise/box seed spec.seed + i at every severity (common random
    numbers: one noise field per image, scaled per sigma), so each
    output equals apply_corruption with that seed.

    Returns an iterator of (image index, first spec index j, seed,
    block): block is the (b, H, W, 3) float64 stack of the image under
    specs[j : j + b], with b * H * W * 3 <= _SWEEP_BLOCK_ELEMENTS, or b = 1
    for larger images.
    """
    specs = list(specs)
    if not specs:
        raise ValidationError("no corruption specs supplied")
    shared = {(s.kind, s.seed, s.atmospheric_light) for s in specs}
    if len(shared) > 1:
        raise ValidationError(
            "all specs in one sweep must share a corruption kind, seed and atmospheric light"
        )
    return _sweep_blocks(sources, specs[0], np.array([s.severity for s in specs]))


def _sweep_blocks(sources, spec, severities):
    for idx, (img, depth) in enumerate(sources):
        seed = spec.seed + idx
        px = img.pixels
        if spec.kind == "fog":
            d = _resolved_depth(img, depth)
            corrupt = partial(_fog_stack, px, d, spec.atmospheric_light)
        elif spec.kind == "gaussian_noise":
            field = np.random.default_rng(seed).standard_normal(px.shape)
            corrupt = partial(_noise_stack, px, field)
        else:
            corrupt = partial(_box_stack, px, seed)
        step = max(1, _SWEEP_BLOCK_ELEMENTS // px.size)
        for j in range(0, len(severities), step):
            yield idx, j, seed, corrupt(severities[j : j + step])


def run_sweep(
    images_dir,
    specs,
    out_dir,
    depth_dir=None,
) -> dict:
    """Corrupt every PNG under images_dir once per spec.

    Output layout is <out>/<kind>/<severity>/<original-filename>, plus
    a manifest.json listing (source, spec, output) triples, spec by
    spec, and the depth policy actually used. Depth maps, when given,
    are matched to images by filename in depth_dir. Each source image
    and depth map is read once. Image i (sorted filename order) gets the
    noise/box seed spec.seed + i at every severity, recorded in the
    manifest.
    """
    images_dir = Path(images_dir)
    out_dir = Path(out_dir)
    sources = sorted(p for p in images_dir.iterdir() if p.suffix.lower() == ".png")
    if not sources:
        raise ValidationError(f"no PNG images found under {images_dir}")
    specs = list(specs)
    depth_policy = "default_ramp"
    if depth_dir is not None:
        depth_policy = "provided"

    def read():
        nonlocal depth_policy
        for src in sources:
            img = load_image(src)
            depth = None
            if depth_dir is not None:
                depth = load_depth(Path(depth_dir) / src.name)
                if not depth.valid.all():
                    depth_policy = "provided_with_median_fill"
            yield img, depth

    blocks = sweep_images(read(), specs)
    kind = specs[0].kind
    sev_dirs = [out_dir / kind / severity_dirname(spec.severity) for spec in specs]
    for sev_dir in sev_dirs:
        sev_dir.mkdir(parents=True, exist_ok=True)
    entries = [[] for _ in specs]
    for idx, first, seed, block in blocks:
        for j, pixels in enumerate(block, start=first):
            dst = sev_dirs[j] / sources[idx].name
            save_image(ImageBuffer(pixels), dst)
            entries[j].append(
                {
                    "source": str(sources[idx]),
                    "output": str(dst),
                    "severity": specs[j].severity,
                    "seed": seed,
                }
            )
    manifest = {
        "kind": kind,
        "atmospheric_light": specs[0].atmospheric_light,
        "depth_policy": depth_policy if kind == "fog" else "not_applicable",
        "entries": [entry for per_spec in entries for entry in per_spec],
    }
    manifest_path = out_dir / kind / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
