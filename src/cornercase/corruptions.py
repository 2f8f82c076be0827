"""Co-variate corruption generators: depth-aware fog, sensor noise,
white-pixel occlusion, and severity sweeps.

Fog follows the atmospheric scattering model
    out = in * t + A * (1 - t),   t = exp(-beta * depth),
so each output pixel is a convex combination of the scene radiance and
the atmospheric light A. With A above the scene radiance the output is
monotone non-decreasing in beta pixel by pixel.

Every operation is a pure function of the input and one Sweep record
(kind, severities, seed, light), so sweeps replay bit-identically.

The sweep engine's unit is one image, corrupted a block of severities at
a time (_image_blocks), which apply_corruption returns too. Each sweep
driver is one loop over sources read one at a time (_read_sources):
run_sweep writes files, bench's toy sweep scores them. Each looks up
once its kind's record in _KINDS, which says how the kind corrupts,
writes and scores an image, and whether it reads depth maps (fog only).

run_sweep overlaps its work: the main thread makes each output's PNG
job, while a pool of _PNG_WRITERS threads finishes the deflate and
writes the files. A job is (IHDR payload, filter-0 scanlines, source),
the arguments of images._encode_png. A white-box job's source is its
frame's deflated bands, made once per frame, and the rows its box
covers; fog and noise jobs have none. The main thread waits for the
oldest output whenever more than _PNG_WRITERS are unwritten, so at most
_PNG_WRITERS + 1 jobs, each one frame of scanlines and at most one
frame's deflated bands, are handed off at a time, and the files and
manifest are byte-identical to writing the outputs one by one.
run_sweep removes its kind's old manifest.json before it hands off its
first output and writes the new one last, so a manifest exists only
beside the outputs of a finished sweep.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .corruption_kinds import CORRUPTION_KINDS, DEFAULT_ATMOSPHERIC_LIGHT
from .errors import ValidationError, check_seed
from .images import DepthMap, ImageBuffer, _adopt, load_depth
from .images import RGB8, _deflated_bands, _encode_png, _quantize, _scanlines, read_png
from .images import _sorted_pngs, _write_file, _write_json
from .version import TOOLKIT_VERSION

# float64 values in one sweep block: b severities of an H x W image make
# b*H*W*3 <= 2^16 (512 KiB). Blocks feed fog and noise file sweeps and
# fog and white-box scoring. On 2 cores, scoring 500 images of 32x32 took
# 0.40-0.52 s at the 20 white-box severities and 0.21-0.32 s at 8 fog
# levels, against 0.93-1.22 s and 0.46-0.60 s one severity at a time; 200
# scenes of 64x96 (3 severities a block) took 0.43-0.54 s against
# 0.53-0.59 s. A constant, not a setting.
_SWEEP_BLOCK_ELEMENTS = 1 << 16

# Threads that deflate and write sweep outputs. zlib releases the GIL
# while it deflates, so two writers beside the main thread keep both
# cores of a 2-core machine busy: a white-box sweep of two 1024x2048
# frames went from 13.7-16.8 s to 6.6-7.1 s. A third writer was no
# faster there and raised peak memory by about 10 MB.
_PNG_WRITERS = 2

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
class Sweep:
    """One kind, seed and atmospheric light over a strictly increasing grid
    of severities with distinct output directories. Image i of the sweep
    gets the noise/box seed seed + i at every severity."""

    kind: str
    severities: tuple
    seed: int = 0
    atmospheric_light: float = DEFAULT_ATMOSPHERIC_LIGHT

    def __post_init__(self):
        severities = tuple(float(v) for v in self.severities)
        if self.kind not in CORRUPTION_KINDS:
            raise ValidationError(f"unknown corruption kind {self.kind!r}")
        if not all(0.0 <= s < np.inf for s in severities):  # NaN fails too
            raise ValidationError("severity must be a non-negative real")
        if self.kind == "white_box" and max(severities, default=0.0) > 1.0:
            raise ValidationError("white_box area fraction must be <= 1")
        if not 0.0 <= self.atmospheric_light <= 1.0:
            raise ValidationError("atmospheric_light must lie in [0, 1]")
        check_seed(self.seed)
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
        object.__setattr__(self, "severities", severities)


def _ramp_column(height: int) -> np.ndarray:
    """The default depth ramp's one (height, 1) column: every column of
    the ramp is this one."""
    return np.linspace(RAMP_TOP_METERS, RAMP_BOTTOM_METERS, height)[:, None]


def default_depth_ramp(height: int, width: int) -> DepthMap:
    """Linear top-to-bottom depth ramp for depth-free datasets."""
    depth = np.tile(_ramp_column(height), (1, width))
    return DepthMap(depth=depth, valid=np.ones((height, width), dtype=bool))


def _resolved_depth(img: ImageBuffer, depth: DepthMap | None) -> np.ndarray:
    """Fog depths for img: an (H, W) map with invalid pixels at the valid
    median, or without a map the default ramp as its (H, 1) column, which
    fog broadcasts across the frame."""
    if depth is None:
        return _ramp_column(img.height)
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
    return apply_corruption(img, Sweep("fog", (beta,), 0, atmospheric_light), depth)[0]


def apply_gaussian_noise(img: ImageBuffer, sigma: float, seed: int = 0) -> ImageBuffer:
    """Add i.i.d. zero-mean Gaussian noise per pixel-channel, clamped.

    The noise is sigma times the standard normal field drawn from
    default_rng(seed), so one field serves every sigma of a sweep.
    """
    return apply_corruption(img, Sweep("gaussian_noise", (sigma,), seed))[0]


def apply_white_box(img: ImageBuffer, area_fraction: float, seed: int = 0) -> ImageBuffer:
    """Paint one square white box covering roughly area_fraction of the image.

    The side is round(sqrt(f * H * W)) clamped to the image bounds; the
    box position is drawn uniformly from the seeded generator.
    """
    return apply_corruption(img, Sweep("white_box", (area_fraction,), seed))[0]


def apply_corruption(img: ImageBuffer, sweep: Sweep, depth: DepthMap | None = None) -> list:
    """img under each severity of the sweep, seeded sweep.seed: ImageBuffers
    over the engine's blocks, checked and read-only but not copied, so
    `corrupt`, `sweep` and this function share every formula."""
    blocks = _image_blocks(img, depth, sweep.seed, sweep)
    return [_adopt(ImageBuffer, pixels) for _, block in blocks for pixels in block]


# Each function below corrupts one (H, W, 3) image at b severities and
# returns the (b, H, W, 3) stack; a kind's bind fixes all but the severities.


def _fog_stack(pixels, depth, atmospheric_light, betas):
    # depth is (H, W) or the ramp's (H, 1) column; the output is the one
    # frame-size temporary per severity. beta * depth may overflow to inf,
    # where t is its limit 0.
    with np.errstate(over="ignore"):
        t = np.exp(-betas[:, None, None] * depth)[..., None]
    out = pixels * t
    out += atmospheric_light * (1.0 - t)
    return np.clip(out, 0.0, 1.0, out=out)


def _noise_stack(pixels, field, sigmas):
    # sigma * field equals Generator.normal(0, sigma, shape) bit for bit;
    # where it overflows to +-inf, the value clips to its bound
    with np.errstate(over="ignore"):
        out = sigmas[:, None, None, None] * field
    out += pixels
    return np.clip(out, 0.0, 1.0, out=out)


def _box_stack(pixels, seed, fractions):
    h, w = pixels.shape[:2]
    out = np.repeat(pixels[None], len(fractions), axis=0)
    for k, fraction in enumerate(fractions):
        top, left, side = _box(h, w, seed, fraction)
        out[k, top : top + side, left : left + side, :] = 1.0
    return out


def _bind_fog(img, depth, seed, light):
    return partial(_fog_stack, img.pixels, _resolved_depth(img, depth), light)


def _bind_noise(img, depth, seed, light):
    return partial(_noise_stack, img.pixels, _noise_field(seed, img.pixels.shape))


def _bind_box(img, depth, seed, light):
    return partial(_box_stack, img.pixels, seed)


def _box(h, w, seed, fraction):
    """(top, left, side) of the white box covering about fraction of an
    h x w image, placed by default_rng(seed); top is h when side is 0."""
    side = min(int(np.floor(np.sqrt(fraction * h * w) + 0.5)), h, w)
    if not side:
        return h, 0, 0
    rng = np.random.default_rng(seed)
    top = int(rng.integers(0, h - side + 1))
    left = int(rng.integers(0, w - side + 1))
    return top, left, side


def severity_sweep(
    kind: str,
    grid,
    base_seed: int = 0,
    atmospheric_light: float = DEFAULT_ATMOSPHERIC_LIGHT,
) -> Sweep:
    """The Sweep of a severity grid or a named preset, seeded base_seed.

    Presets: fog-paper (3 fog levels), noise-paper (50 equally spaced
    sigmas in [0.001, 0.01]), whitebox-paper (20 area fractions equally
    spaced in [0.007, 0.119]).
    """
    if isinstance(grid, str):
        if grid not in SWEEP_PRESETS:
            raise ValidationError(
                f"unknown preset {grid!r}; choose from {sorted(SWEEP_PRESETS)}"
            )
        preset_kind, severities = SWEEP_PRESETS[grid]
        if preset_kind != kind:
            raise ValidationError(f"preset {grid!r} is for kind {preset_kind!r}, not {kind!r}")
        grid = severities
    return Sweep(kind, grid, base_seed, atmospheric_light)


# ---------------------------------------------------------------------------
# directory sweeps
# ---------------------------------------------------------------------------


def severity_dirname(severity: float) -> str:
    return format(severity, ".6g")


def _noise_field(seed: int, shape) -> np.ndarray:
    """The standard normal field that noise of every sigma scales, for
    the image whose sweep seed is seed."""
    return np.random.default_rng(seed).standard_normal(shape)


def _seeded_sources(sources, seed):
    """(i, seed, image, depth) per source: image i's noise/box seed is seed + i."""
    for idx, (img, depth) in enumerate(sources):
        yield idx, seed + idx, img, depth


def _read_sources(paths, depth_dir, kind):
    """(uint8 pixels, DepthMap | None) per path, depth_dir/<name> if the kind reads depth."""
    depths = depth_dir is not None and _KINDS[kind].reads_depth
    for path in paths:
        yield read_png(path, RGB8), load_depth(Path(depth_dir) / path.name) if depths else None


def _image_blocks(img, depth, seed, sweep):
    """(first severity index j, block) per block of one image's sweep:
    block is the (b, H, W, 3) stack of img under sweep.severities[j : j + b]."""
    corrupt = _KINDS[sweep.kind].bind(img, depth, seed, sweep.atmospheric_light)
    step = max(1, _SWEEP_BLOCK_ELEMENTS // img.pixels.size)
    for j in range(0, len(sweep.severities), step):
        yield j, corrupt(np.array(sweep.severities[j : j + step]))


def _block_rows(img, depth, seed, sweep, grid):
    """The (K, dim) toy rows of img at every severity, from the engine's blocks."""
    from .embeddings import toy_encode  # here, so a sweep process loads no model layer

    rows = []
    for _, block in _image_blocks(img, depth, seed, sweep):
        rows.append(toy_encode(block, grid=grid))
        del block  # free the float stack before the next one is made
    return np.concatenate(rows)


def _noise_rows(img, depth, seed, sweep, grid):
    """The (K, dim) toy rows of img under noise at every sigma, from sums."""
    from .embeddings import toy_encode_noise_sweep

    field = _noise_field(seed, img.pixels.shape)
    return toy_encode_noise_sweep(img, field, sweep.severities, grid=grid)


def _frame_outputs(pixels, depth, seed, sweep):
    """(k, PNG job) per severity k of the uint8 pixels, quantized from the
    engine's blocks, with no band deflated yet."""
    img = ImageBuffer.from_uint8(pixels)
    for first, block in _image_blocks(img, depth, seed, sweep):
        # corrupted values lie in [0, 1], so no ImageBuffer check is needed
        frames = _quantize(block)
        del block  # free the float stack before the next one is made
        for j, frame in enumerate(frames, start=first):
            yield j, (*_scanlines(frame), None)


def _box_outputs(pixels, depth, seed, sweep):
    """(k, PNG job) per box fraction k of the uint8 image pixels: the
    scanlines with the box painted 255, and as source the unpainted
    scanlines' bands, deflated once for all the jobs, and the box rows."""
    h, w = pixels.shape[:2]
    header, rows = _scanlines(pixels)
    bands = _deflated_bands(rows)
    for k, fraction in enumerate(sweep.severities):
        top, left, side = _box(h, w, seed, fraction)
        painted = rows.copy()
        painted[top : top + side, 1 + 3 * left : 1 + 3 * (left + side)] = 255
        yield k, (header, painted, (bands, top, top + side))


def _write_output(path, header, scanlines, source):
    # runs on a writer thread, so it calls only private functions: a tracer
    # that wraps the public ones keeps one span stack, not thread-safe
    _write_file(path, _encode_png(header, scanlines, source))


def _wait_written(pool, future):
    """Wait for one output's writer. If it failed, the outputs queued
    behind it are cancelled before its error is raised here."""
    try:
        future.result()
    except BaseException:
        pool.shutdown(cancel_futures=True)
        raise


def run_sweep(
    images_dir,
    sweep: Sweep,
    out_dir,
    depth_dir=None,
) -> dict:
    """Corrupt every PNG under images_dir once per severity of the sweep.

    Output layout is <out>/<kind>/<severity>/<original-filename>, plus
    a manifest.json listing (source, severity, seed, output) entries,
    severity by severity, the depth policy actually used and the
    toolkit_version. A fog sweep matches depth maps, when given, to
    images by filename in depth_dir; no other kind reads them. Each
    source image and depth map is read once. Image i (sorted filename
    order) gets the noise/box seed sweep.seed + i at every severity,
    recorded in the manifest, with base_seed = sweep.seed.
    """
    out_dir = Path(out_dir)
    sources = _sorted_pngs(Path(images_dir))
    kind, record = sweep.kind, _KINDS[sweep.kind]
    depth_policy = "default_ramp" if depth_dir is None else "provided"
    sev_dirs = [out_dir / kind / severity_dirname(s) for s in sweep.severities]
    for sev_dir in sev_dirs:
        sev_dir.mkdir(parents=True, exist_ok=True)
    # a manifest lists a finished sweep: the old one goes before any output
    manifest_path = out_dir / kind / "manifest.json"
    manifest_path.unlink(missing_ok=True)
    entries = [[] for _ in sev_dirs]
    # here, so `cornercase --version` does not load it
    from concurrent.futures import ThreadPoolExecutor

    pending = deque()
    read = _read_sources(sources, depth_dir, kind)
    # the with block joins the writers on every exit; after an error in
    # the main thread they first write the outputs already handed off
    with ThreadPoolExecutor(_PNG_WRITERS, thread_name_prefix="png-writer") as pool:
        for idx, seed, pixels, depth in _seeded_sources(read, sweep.seed):
            if depth is not None and not depth.valid.all():
                depth_policy = "provided_with_median_fill"
            for j, job in record.files(pixels, depth, seed, sweep):
                dst = sev_dirs[j] / sources[idx].name
                pending.append(pool.submit(_write_output, dst, *job))
                if len(pending) > _PNG_WRITERS:
                    _wait_written(pool, pending.popleft())
                entries[j].append({"source": str(sources[idx]), "output": str(dst),
                                   "severity": sweep.severities[j], "seed": seed})
        for future in pending:
            _wait_written(pool, future)
    manifest = {
        "kind": kind,
        "toolkit_version": TOOLKIT_VERSION,
        "base_seed": sweep.seed,
        "depth_policy": "not_applicable",
        "entries": [entry for per_severity in entries for entry in per_severity],
    }
    if record.reads_depth:
        manifest.update(depth_policy=depth_policy, atmospheric_light=sweep.atmospheric_light)
    _write_json(manifest_path, manifest)
    return manifest


class _Kind(NamedTuple):
    """What sets a corruption kind apart; depth is None for a kind that does not read it."""

    bind: Callable  # (img, depth, seed, light) -> severities -> stack; _image_blocks only
    files: Callable  # (uint8 pixels, depth, seed, sweep) -> (k, PNG job) per severity k
    rows: Callable  # (img, depth, seed, sweep, grid) -> (K, dim) toy rows
    reads_depth: bool = False  # sweeps read depth maps; the manifest records policy and light


_KINDS = {
    "fog": _Kind(_bind_fog, _frame_outputs, _block_rows, reads_depth=True),
    "gaussian_noise": _Kind(_bind_noise, _frame_outputs, _noise_rows),
    "white_box": _Kind(_bind_box, _box_outputs, _block_rows),
}
