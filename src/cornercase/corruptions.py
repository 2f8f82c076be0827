"""Co-variate corruption generators: depth-aware fog, sensor noise,
white-pixel occlusion, and severity sweeps.

Fog follows the atmospheric scattering model
    out = in * t + A * (1 - t),   t = exp(-beta * depth),
so each output pixel is a convex combination of the scene radiance and
the atmospheric light A. With A above the scene radiance the output is
monotone non-decreasing in beta pixel by pixel.

Every operation is a pure function of (input, spec) including the
seed, so sweeps replay bit-identically.

The sweep engine's unit is one image, corrupted a block of severities at
a time (_image_blocks). Each sweep driver is one loop over sources read
one at a time (_read_sources; depth maps for fog only): run_sweep writes
files, bench's toy sweep scores them. Beside the engine, each has one
fast path: white-box files from the uint8 source (_box_outputs), noise
scores from per-image sums (embeddings.toy_encode_noise_sweep).

run_sweep overlaps its work: the main thread makes each output's PNG
job, while a pool of _PNG_WRITERS threads finishes the deflate and
writes the files. A job is an IHDR payload, the compressed head of the
IDAT, a zlib compressor that made that head from the rows above, and
the remaining (tail) filter-0 scanlines. White-box outputs share one
head per source, made by one compressor in box-top order; fog and noise
outputs get an empty head, a fresh compressor and all their rows. The
main thread waits for the oldest output whenever more than _PNG_WRITERS
are unwritten, so at most _PNG_WRITERS + 1 jobs, each one compressor
copy, one head and one tail of at most a frame, are handed off at a
time, and the files and manifest are byte-identical to writing the
outputs one by one.
"""

from __future__ import annotations

import json
import zlib
from collections import deque
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .images import DepthMap, ImageBuffer, load_depth
from .images import _png_file, _quantize, _read_rgb, _scanlines, _sorted_pngs

CORRUPTION_KINDS = ("fog", "gaussian_noise", "white_box")

DEFAULT_ATMOSPHERIC_LIGHT = 0.92

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
# returns the (b, H, W, 3) stack; _image_blocks picks one per kind.


def _fog_stack(pixels, depth, atmospheric_light, betas):
    # depth is (H, W) or the ramp's (H, 1) column; the output is the one
    # frame-size temporary per severity
    t = np.exp(-betas[:, None, None] * depth)[..., None]
    out = pixels * t
    out += atmospheric_light * (1.0 - t)
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
        top, left, side = _box(h, w, seed, fraction)
        out[k, top : top + side, left : left + side, :] = 1.0
    return out


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
    """Corrupt every source image under every spec, one image at a time.

    The specs share one kind, seed and atmospheric light and differ in
    severity only; they are checked here, before any image is read.
    sources yields (ImageBuffer, DepthMap | None) pairs and is consumed
    once, in order, so a lazy source reads each file once. Image i gets
    the noise/box seed spec.seed + i at every severity (one noise field
    per image, scaled per sigma), as apply_corruption with that seed.

    Returns an iterator of (image index, first spec index j, seed,
    block): block is the (b, H, W, 3) float64 stack of the image under
    specs[j : j + b], with b * H * W * 3 <= _SWEEP_BLOCK_ELEMENTS, or b = 1
    for larger images.
    """
    spec, severities = _sweep_spec(specs)
    return (
        (idx, j, seed, block)
        for idx, seed, img, depth in _seeded_sources(sources, spec)
        for j, block in _image_blocks(img, depth, seed, spec, severities)
    )


def _sweep_spec(specs):
    """The first of a sweep's specs and the severities of all of them,
    after checking that they share kind, seed and atmospheric light."""
    specs = list(specs)
    if not specs:
        raise ValidationError("no corruption specs supplied")
    shared = {(s.kind, s.seed, s.atmospheric_light) for s in specs}
    if len(shared) > 1:
        raise ValidationError(
            "all specs in one sweep must share a corruption kind, seed and atmospheric light"
        )
    return specs[0], np.array([s.severity for s in specs])


def _noise_field(seed: int, shape) -> np.ndarray:
    """The standard normal field that noise of every sigma scales, for
    the image whose sweep seed is seed."""
    return np.random.default_rng(seed).standard_normal(shape)


def _seeded_sources(sources, spec):
    """(i, seed, image, depth) per source: image i's noise/box seed is spec.seed + i."""
    for idx, (img, depth) in enumerate(sources):
        yield idx, spec.seed + idx, img, depth


def _read_sources(paths, depth_dir, kind):
    """(uint8 pixels, DepthMap | None) per path; only fog reads depth_dir/<name>."""
    fog_depth = depth_dir is not None and kind == "fog"
    for path in paths:
        yield _read_rgb(path), load_depth(Path(depth_dir) / path.name) if fog_depth else None


def _image_blocks(img, depth, seed, spec, severities):
    """(first severity index j, block) per block of one image's sweep:
    block is the (b, H, W, 3) stack of img under severities[j : j + b]."""
    px = img.pixels
    if spec.kind == "fog":
        corrupt = partial(_fog_stack, px, _resolved_depth(img, depth), spec.atmospheric_light)
    elif spec.kind == "gaussian_noise":
        corrupt = partial(_noise_stack, px, _noise_field(seed, px.shape))
    else:
        corrupt = partial(_box_stack, px, seed)
    step = max(1, _SWEEP_BLOCK_ELEMENTS // px.size)
    for j in range(0, len(severities), step):
        yield j, corrupt(severities[j : j + step])


def _frame_outputs(img, depth, seed, spec, severities):
    """(k, PNG job) per severity k of img, quantized from the engine's
    blocks: an empty head, a fresh compressor and all the frame's rows."""
    for first, block in _image_blocks(img, depth, seed, spec, severities):
        # corrupted values lie in [0, 1], so no ImageBuffer check is needed
        frames = _quantize(block)
        del block  # free the float stack before the next one is made
        for j, frame in enumerate(frames, start=first):
            header, rows = _scanlines(frame)
            yield j, (header, (), zlib.compressobj(6), rows)


def _box_outputs(pixels, seed, fractions):
    """(k, PNG job) per box fraction k of the uint8 image pixels, in
    box-top order. Every row above a box is the source's, so one
    compressor takes in the source's scanlines top down, and each job
    gets the head it has emitted so far, a copy of it, and the rows from
    the box's top down with the box painted 255."""
    h, w = pixels.shape[:2]
    header, rows = _scanlines(pixels)
    boxes = [_box(h, w, seed, fraction) for fraction in fractions]
    compressor = zlib.compressobj(6)
    head, done = [], 0
    # in top order one compressor serves every box; a snapshot per box, in
    # severity order, held about 256 KB of zlib state each
    for k in sorted(range(len(boxes)), key=lambda k: boxes[k][0]):
        top, left, side = boxes[k]
        if top > done:
            head.append(compressor.compress(rows[done:top]))
            done = top
        tail = rows[top:].copy()
        tail[:side, 1 + 3 * left : 1 + 3 * (left + side)] = 255
        yield k, (header, tuple(head), compressor.copy(), tail)


def _write_output(path, header, head, compressor, tail):
    # runs on a writer thread, so it calls only private functions: a tracer
    # that wraps the public ones keeps one span stack, not thread-safe
    path.write_bytes(_encode_png(header, head, compressor, tail))


def _encode_png(header, head, compressor, tail):
    """The PNG file whose IDAT is head, then compressor's deflate of
    tail and its flush: the bytes of zlib.compress(rows, 6) when a fresh
    compressobj(6) emitted head from the rows above tail."""
    return _png_file(header, b"".join((*head, compressor.compress(tail), compressor.flush())))


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
    specs,
    out_dir,
    depth_dir=None,
) -> dict:
    """Corrupt every PNG under images_dir once per spec.

    Output layout is <out>/<kind>/<severity>/<original-filename>, plus
    a manifest.json listing (source, spec, output) triples, spec by
    spec, and the depth policy actually used. A fog sweep matches depth
    maps, when given, to images by filename in depth_dir; no other kind
    reads them. Each source image and depth map is read once. Image i
    (sorted filename order) gets the noise/box seed spec.seed + i at
    every severity, recorded in the manifest.
    """
    out_dir = Path(out_dir)
    sources = _sorted_pngs(Path(images_dir))
    specs = list(specs)
    spec, severities = _sweep_spec(specs)
    kind = spec.kind
    depth_policy = "default_ramp" if depth_dir is None else "provided"
    sev_dirs = [out_dir / kind / severity_dirname(s.severity) for s in specs]
    for sev_dir in sev_dirs:
        sev_dir.mkdir(parents=True, exist_ok=True)
    entries = [[] for _ in specs]
    # here, so `cornercase --version` does not load it
    from concurrent.futures import ThreadPoolExecutor

    pending = deque()
    read = _read_sources(sources, depth_dir, kind)
    # the with block joins the writers on every exit; after an error in
    # the main thread they first write the outputs already handed off
    with ThreadPoolExecutor(_PNG_WRITERS, thread_name_prefix="png-writer") as pool:
        for idx, seed, pixels, depth in _seeded_sources(read, spec):
            if depth is not None and not depth.valid.all():
                depth_policy = "provided_with_median_fill"
            if kind == "white_box":
                jobs = _box_outputs(pixels, seed, severities)
            else:
                jobs = _frame_outputs(ImageBuffer.from_uint8(pixels), depth, seed, spec, severities)
            for j, job in jobs:
                dst = sev_dirs[j] / sources[idx].name
                pending.append(pool.submit(_write_output, dst, *job))
                if len(pending) > _PNG_WRITERS:
                    _wait_written(pool, pending.popleft())
                entries[j].append({"source": str(sources[idx]), "output": str(dst),
                                   "severity": specs[j].severity, "seed": seed})
        for future in pending:
            _wait_written(pool, future)
    manifest = {
        "kind": kind,
        "depth_policy": depth_policy if kind == "fog" else "not_applicable",
        "entries": [entry for per_spec in entries for entry in per_spec],
    }
    if kind == "fog":
        manifest["atmospheric_light"] = spec.atmospheric_light
    manifest_path = out_dir / kind / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
