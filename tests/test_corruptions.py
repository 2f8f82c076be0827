"""Fog, noise and white-box corruption tests."""

import itertools
import json
import math
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornercase import images as images_module
from cornercase.bench import run_corruption_sweep
from cornercase.cli import main
from cornercase.corruptions import (
    _KINDS,
    _PNG_WRITERS,
    _SWEEP_BLOCK_ELEMENTS,
    DEFAULT_ATMOSPHERIC_LIGHT,
    SWEEP_PRESETS,
    Sweep,
    _block_rows,
    _box,
    _box_outputs,
    _box_stack,
    _fog_stack,
    _image_blocks,
    _noise_field,
    _noise_stack,
    _resolved_depth,
    _seeded_sources,
    apply_corruption,
    apply_fog,
    apply_gaussian_noise,
    apply_white_box,
    default_depth_ramp,
    run_sweep,
    severity_dirname,
    severity_sweep,
)
from cornercase.embeddings import toy_encode, toy_encode_noise_sweep
from cornercase.errors import ValidationError
from cornercase.images import (
    _BAND_BYTES,
    DepthMap,
    ImageBuffer,
    _deflated_bands,
    _encode_png,
    _quantize,
    _scanlines,
    load_image,
    read_png,
    save_image,
    write_png,
)


def _random_image(seed=0, h=12, w=16):
    rng = np.random.default_rng(seed)
    return ImageBuffer(rng.uniform(size=(h, w, 3)))


def _sweep_blocks(sources, sweep):
    """(image index, first severity index j, seed, block) per engine block
    of each (ImageBuffer, depth) source under the sweep; sources is
    consumed lazily, one image at a time."""
    return (
        (idx, j, seed, block)
        for idx, seed, img, depth in _seeded_sources(sources, sweep.seed)
        for j, block in _image_blocks(img, depth, seed, sweep)
    )


# The single-image functions as they stood before each became a one-image
# sweep, kept verbatim as the reference for the sweep engine.


def _reference_fog(
    img: ImageBuffer,
    depth: DepthMap | None,
    beta: float,
    atmospheric_light: float = DEFAULT_ATMOSPHERIC_LIGHT,
) -> ImageBuffer:
    if beta < 0 or not np.isfinite(beta):
        raise ValidationError("beta must be a non-negative real")
    if not 0.0 <= atmospheric_light <= 1.0:
        raise ValidationError("atmospheric_light must lie in [0, 1]")
    if beta == 0.0:
        return img
    d = _resolved_depth(img, depth)
    return ImageBuffer(_fog_stack(img.pixels, d, atmospheric_light, np.array([beta]))[0])


def _reference_gaussian_noise(img: ImageBuffer, sigma: float, seed: int = 0) -> ImageBuffer:
    if sigma < 0 or not np.isfinite(sigma):
        raise ValidationError("sigma must be a non-negative real")
    if sigma == 0.0:
        return img
    field = np.random.default_rng(seed).standard_normal(img.pixels.shape)
    return ImageBuffer(_noise_stack(img.pixels, field, np.array([sigma]))[0])


def _reference_white_box(img: ImageBuffer, area_fraction: float, seed: int = 0) -> ImageBuffer:
    if not np.isfinite(area_fraction) or not 0.0 <= area_fraction <= 1.0:
        raise ValidationError("area_fraction must lie in [0, 1]")
    return ImageBuffer(_box_stack(img.pixels, seed, np.array([area_fraction]))[0])


def _reference_corruption(img, sweep, depth=None):
    """img under each severity of the sweep, one reference call each."""
    if sweep.kind == "fog":
        light = sweep.atmospheric_light
        return [_reference_fog(img, depth, beta, light) for beta in sweep.severities]
    if sweep.kind == "gaussian_noise":
        return [_reference_gaussian_noise(img, s, sweep.seed) for s in sweep.severities]
    return [_reference_white_box(img, s, sweep.seed) for s in sweep.severities]


def _reference_sweep_outputs(images_dir, sweep, out_dir):
    """run_sweep's output loop as it stood before the writer threads: one
    ImageBuffer and one save_image per output, in order."""
    sources = sorted(Path(images_dir).glob("*.png"))
    blocks = _sweep_blocks(((load_image(src), None) for src in sources), sweep)
    for idx, first, _, block in blocks:
        for j, pixels in enumerate(block, start=first):
            sev_dir = Path(out_dir) / sweep.kind / severity_dirname(sweep.severities[j])
            sev_dir.mkdir(parents=True, exist_ok=True)
            save_image(ImageBuffer(pixels), sev_dir / sources[idx].name)


class TestFog:
    def test_zero_beta_identity(self):
        img = _random_image(0)
        out = apply_fog(img, None, beta=0.0)
        np.testing.assert_array_equal(out.pixels, img.pixels)

    def test_full_extinction_equals_atmospheric_light(self):
        img = _random_image(1)
        depth = DepthMap(
            depth=np.full((12, 16), 1e9), valid=np.ones((12, 16), dtype=bool)
        )
        out = apply_fog(img, depth, beta=0.1, atmospheric_light=0.75)
        np.testing.assert_allclose(out.pixels, 0.75, atol=1e-12)

    def test_analytic_point(self):
        # black scene, white light, beta*d = 1: out = 1 - e^{-1}
        img = ImageBuffer(np.zeros((2, 2, 3)))
        depth = DepthMap(depth=np.full((2, 2), 100.0), valid=np.ones((2, 2), dtype=bool))
        out = apply_fog(img, depth, beta=0.01, atmospheric_light=1.0)
        np.testing.assert_allclose(out.pixels, 1.0 - math.exp(-1.0), atol=1e-9)

    def test_dimension_mismatch(self):
        img = _random_image(2)
        depth = DepthMap(depth=np.ones((3, 3)), valid=np.ones((3, 3), dtype=bool))
        with pytest.raises(ValidationError):
            apply_fog(img, depth, beta=0.01)

    def test_dimension_mismatch_at_zero_beta(self):
        img = _random_image(2)
        depth = DepthMap(depth=np.ones((3, 3)), valid=np.ones((3, 3), dtype=bool))
        with pytest.raises(ValidationError):
            apply_fog(img, depth, beta=0.0)

    def test_invalid_pixels_use_median_fill(self):
        img = ImageBuffer(np.zeros((1, 3, 3)))
        depth = DepthMap(
            depth=np.array([[10.0, 1.0, 1000.0]]),
            valid=np.array([[False, True, True]]),
        )
        out = apply_fog(img, depth, beta=0.01, atmospheric_light=1.0)
        # invalid pixel filled with median(1, 1000) = 500.5 meters
        expected = 1.0 - math.exp(-0.01 * 500.5)
        np.testing.assert_allclose(out.pixels[0, 0], expected, atol=1e-12)

    def test_no_valid_depth_rejected(self):
        img = ImageBuffer(np.zeros((2, 2, 3)))
        depth = DepthMap(depth=np.ones((2, 2)), valid=np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValidationError):
            apply_fog(img, depth, beta=0.01)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_beta_under_bright_light(self, seed):
        rng = np.random.default_rng(seed)
        img = ImageBuffer(rng.uniform(0.0, 0.9, size=(6, 8, 3)))
        betas = [0.0, 0.002, 0.01, 0.05]
        outs = [apply_fog(img, None, b, atmospheric_light=0.95).pixels for b in betas]
        for a, b in zip(outs, outs[1:]):
            assert np.all(b >= a - 1e-12)

    @given(seed=st.integers(0, 2**31 - 1), beta=st.floats(0.0, 0.1))
    @settings(max_examples=25, deadline=None)
    def test_convex_combination(self, seed, beta):
        rng = np.random.default_rng(seed)
        img = ImageBuffer(rng.uniform(size=(5, 5, 3)))
        a = 0.8
        out = apply_fog(img, None, beta, atmospheric_light=a).pixels
        lo = np.minimum(img.pixels, a) - 1e-12
        hi = np.maximum(img.pixels, a) + 1e-12
        assert np.all(out >= lo) and np.all(out <= hi)

    def test_default_ramp_orientation(self):
        ramp = default_depth_ramp(10, 4)
        assert ramp.depth[0, 0] > ramp.depth[-1, 0]
        assert ramp.depth[0, 0] == 300.0 and ramp.depth[-1, 0] == 5.0


class TestGaussianNoise:
    def test_zero_sigma_identity(self):
        img = _random_image(3)
        out = apply_gaussian_noise(img, 0.0, seed=5)
        np.testing.assert_array_equal(out.pixels, img.pixels)

    def test_deterministic_given_seed(self):
        img = _random_image(4)
        a = apply_gaussian_noise(img, 0.02, seed=9)
        b = apply_gaussian_noise(img, 0.02, seed=9)
        assert a.pixels.tobytes() == b.pixels.tobytes()

    def test_different_seeds_differ(self):
        img = _random_image(5)
        a = apply_gaussian_noise(img, 0.02, seed=1)
        b = apply_gaussian_noise(img, 0.02, seed=2)
        assert not np.array_equal(a.pixels, b.pixels)

    def test_noise_moments(self):
        # mid-gray keeps clamping out of play; check empirical moments
        img = ImageBuffer(np.full((577, 579, 3), 0.5))
        sigma = 0.01
        out = apply_gaussian_noise(img, sigma, seed=11)
        noise = out.pixels - 0.5
        n = noise.size
        assert abs(noise.mean()) < 3.0 * sigma / math.sqrt(n)
        assert abs(noise.std() - sigma) < 0.01 * sigma

    def test_clamped_to_unit_range(self):
        img = ImageBuffer(np.ones((8, 8, 3)))
        out = apply_gaussian_noise(img, 0.5, seed=0)
        assert out.pixels.max() <= 1.0 and out.pixels.min() >= 0.0


class TestWhiteBox:
    def test_zero_fraction_identity(self):
        img = _random_image(6)
        out = apply_white_box(img, 0.0, seed=0)
        np.testing.assert_array_equal(out.pixels, img.pixels)

    def test_full_fraction_all_white(self):
        img = _random_image(7, h=10, w=10)
        out = apply_white_box(img, 1.0, seed=0)
        np.testing.assert_array_equal(out.pixels, 1.0)

    def test_exact_pixel_count(self):
        rng = np.random.default_rng(8)
        img = ImageBuffer(rng.uniform(0.0, 0.9, size=(100, 100, 3)))
        out = apply_white_box(img, 0.01, seed=3)
        changed = np.any(out.pixels != img.pixels, axis=2)
        assert changed.sum() == 100  # a 10x10 box
        # the changed region is a solid square of white
        rows, cols = np.where(changed)
        assert rows.max() - rows.min() == 9 and cols.max() - cols.min() == 9
        assert np.all(out.pixels[changed] == 1.0)

    def test_everything_else_untouched(self):
        rng = np.random.default_rng(9)
        img = ImageBuffer(rng.uniform(0.0, 0.9, size=(40, 30, 3)))
        out = apply_white_box(img, 0.05, seed=7)
        changed = np.any(out.pixels != img.pixels, axis=2)
        np.testing.assert_array_equal(out.pixels[~changed], img.pixels[~changed])

    def test_deterministic_placement(self):
        img = _random_image(10)
        a = apply_white_box(img, 0.1, seed=4)
        b = apply_white_box(img, 0.1, seed=4)
        assert a.pixels.tobytes() == b.pixels.tobytes()


class TestSeveritySweep:
    def test_fog_preset(self):
        sweep = severity_sweep("fog", "fog-paper", base_seed=100)
        assert list(sweep.severities) == [0.005, 0.01, 0.02]
        assert sweep.seed == 100

    def test_noise_preset(self):
        severities = severity_sweep("gaussian_noise", "noise-paper").severities
        assert len(severities) == 50
        assert severities[0] == pytest.approx(0.001)
        assert severities[-1] == pytest.approx(0.01)
        gaps = np.diff(severities)
        np.testing.assert_allclose(gaps, gaps[0], rtol=1e-9)

    def test_whitebox_preset(self):
        severities = severity_sweep("white_box", "whitebox-paper").severities
        assert len(severities) == 20
        assert severities[0] == pytest.approx(0.007)
        assert severities[-1] == pytest.approx(0.119)

    def test_explicit_single_value(self):
        severities = severity_sweep("fog", [0.1]).severities
        assert len(severities) == 1 and severities[0] == 0.1

    def test_non_monotone_grid_rejected(self):
        with pytest.raises(ValidationError):
            severity_sweep("fog", [0.1, 0.05])

    def test_preset_kind_mismatch(self):
        with pytest.raises(ValidationError):
            severity_sweep("fog", "noise-paper")

    def test_shared_output_directory_rejected(self):
        # both round to 0.123456 at 6 significant digits
        with pytest.raises(ValidationError, match="0.123456"):
            severity_sweep("gaussian_noise", [0.1, 0.1234561, 0.1234562])

    @pytest.mark.parametrize("preset", sorted(SWEEP_PRESETS))
    def test_preset_output_directories_distinct(self, preset):
        kind, severities = SWEEP_PRESETS[preset]
        sweep = severity_sweep(kind, preset)
        assert len({severity_dirname(s) for s in sweep.severities}) == len(severities)

    def test_returns_the_record(self):
        sweep = severity_sweep("fog", [0.005, 0.01], base_seed=3, atmospheric_light=0.8)
        assert sweep == Sweep("fog", (0.005, 0.01), seed=3, atmospheric_light=0.8)

    def test_composition_order_matters(self):
        img = _random_image(11)
        fog = Sweep("fog", (0.02,))
        noise = Sweep("gaussian_noise", (0.05,), seed=1)
        a = apply_corruption(apply_corruption(img, fog)[0], noise)[0]
        b = apply_corruption(apply_corruption(img, noise)[0], fog)[0]
        assert not np.array_equal(a.pixels, b.pixels)


class TestSweepRecord:
    @pytest.mark.parametrize(
        "kind, severities, light, message",
        [
            ("fog", (), DEFAULT_ATMOSPHERIC_LIGHT, "severity grid must be non-empty"),
            ("fog", (0.02, 0.01), DEFAULT_ATMOSPHERIC_LIGHT, "strictly increasing"),
            ("fog", (0.01, 0.01), DEFAULT_ATMOSPHERIC_LIGHT, "strictly increasing"),
            ("white_box", (0.5, 1.5), DEFAULT_ATMOSPHERIC_LIGHT, "area fraction must be <= 1"),
            ("fog", (0.01,), 1.5, "atmospheric_light must lie in"),
            ("fog", (0.01,), math.nan, "atmospheric_light must lie in"),
            ("rain", (0.1,), DEFAULT_ATMOSPHERIC_LIGHT, "unknown corruption kind"),
            ("gaussian_noise", (0.1, math.inf), DEFAULT_ATMOSPHERIC_LIGHT, "non-negative real"),
            ("fog", (-0.1, 0.01), DEFAULT_ATMOSPHERIC_LIGHT, "non-negative real"),
            ("white_box", (0.1, math.nan), DEFAULT_ATMOSPHERIC_LIGHT, "non-negative real"),
            ("gaussian_noise", (0.1, 0.1000001), DEFAULT_ATMOSPHERIC_LIGHT,
             "share the output directory '0.1'"),
        ],
    )
    def test_each_rule_rejects_a_direct_record(self, kind, severities, light, message):
        with pytest.raises(ValidationError, match=message):
            Sweep(kind, severities, atmospheric_light=light)

    def test_grid_whose_severities_share_a_directory_rejected(self):
        # 0.1 and 0.1000001 both name the directory 0.1, so a sweep over
        # this grid would write two outputs to one path
        with pytest.raises(ValidationError):
            Sweep("white_box", (0.1, 0.3, 0.1000001))

    @pytest.mark.parametrize("seed", [-3, 2**63, 1.5, True, "7"])
    def test_seed_outside_its_range_rejected(self, seed):
        with pytest.raises(ValidationError, match="seed must be an integer in"):
            Sweep("gaussian_noise", (0.1,), seed=seed)

    def test_largest_seed_accepted(self):
        assert Sweep("white_box", (0.1,), seed=2**63 - 1).seed == 2**63 - 1

    def test_severities_kept_as_python_floats(self):
        sweep = Sweep("fog", np.linspace(0.01, 0.02, 3))
        assert sweep.severities == (0.01, 0.015, 0.02)
        assert all(type(s) is float for s in sweep.severities)


# (image shapes, grid, whether image 0 has tied box tops): severity 0
# (top = H), fraction 1.0 (a box across the short side), tied tops, 1xN
# and Nx1 images (every box one pixel), several images of different
# shapes in one sweep, and frames of several 8 KiB deflate bands. There,
# at 20 and 17 rows per band, image 0's fourth box fills rows 40-79 (two
# whole bands), image 1's boxes of side 1 and 2 lie in its last band
# (rows 136-151) and its fifth box runs from the band edge at row 17 to
# the bottom; fraction 1.0 covers both squares whole.
WHITE_BOX_CASES = {
    "zero and full": ([(12, 16)], [0.0, 0.3, 1.0], False),
    "tied tops": ([(24, 16)], [0.02, 0.05, 0.1, 0.2, 0.4], True),
    "1xN": ([(1, 37)], [0.0, 0.01, 0.5, 1.0], True),
    "Nx1": ([(37, 1)], [0.0, 0.01, 0.5, 1.0], True),
    "several images": ([(12, 16), (1, 37), (37, 1), (64, 96)], [0.0, 0.01, 0.05, 0.2, 1.0], False),
    "band edges": (
        [(130, 130), (152, 152), (96, 200)],
        [0.0, 1 / 152**2, 4 / 152**2, 40**2 / 130**2, 135**2 / 152**2, 1.0],
        True,
    ),
}


class TestRunSweep:
    def test_layout_and_manifest(self, tmp_path):
        src = tmp_path / "clean"
        src.mkdir()
        for i in range(3):
            save_image(_random_image(20 + i, h=8, w=8), src / f"img-{i}.png")
        sweep = severity_sweep("fog", [0.005, 0.02], base_seed=0)
        out = tmp_path / "out"
        manifest = run_sweep(src, sweep, out)
        for sev in ("0.005", "0.02"):
            for i in range(3):
                assert (out / "fog" / sev / f"img-{i}.png").exists()
        assert len(manifest["entries"]) == 6
        assert manifest["depth_policy"] == "default_ramp"
        on_disk = json.loads((out / "fog" / "manifest.json").read_text())
        assert on_disk["kind"] == "fog"
        assert len(on_disk["entries"]) == 6

    def test_outputs_reproducible(self, tmp_path):
        src = tmp_path / "clean"
        src.mkdir()
        save_image(_random_image(30, h=8, w=8), src / "a.png")
        sweep = severity_sweep("gaussian_noise", [0.05], base_seed=7)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        run_sweep(src, sweep, out1)
        run_sweep(src, sweep, out2)
        f1 = out1 / "gaussian_noise" / "0.05" / "a.png"
        f2 = out2 / "gaussian_noise" / "0.05" / "a.png"
        assert f1.read_bytes() == f2.read_bytes()

    def test_corrupted_images_decode(self, tmp_path):
        src = tmp_path / "clean"
        src.mkdir()
        save_image(_random_image(40, h=8, w=8), src / "a.png")
        out = tmp_path / "o"
        run_sweep(src, severity_sweep("white_box", [0.25]), out)
        img = load_image(out / "white_box" / "0.25" / "a.png")
        assert np.any(img.pixels == 1.0)

    def test_each_source_read_once(self, tmp_path, monkeypatch):
        import cornercase.corruptions as corruptions

        src = tmp_path / "clean"
        src.mkdir()
        for i in range(3):
            save_image(_random_image(50 + i, h=8, w=8), src / f"img-{i}.png")
        reads = []

        def counting_read_png(path, layout=None):
            reads.append(path)
            return read_png(path, layout)

        monkeypatch.setattr(corruptions, "read_png", counting_read_png)
        sweep = severity_sweep("white_box", [0.05, 0.1, 0.2, 0.4], base_seed=10)
        manifest = run_sweep(src, sweep, tmp_path / "o")
        assert len(reads) == 3
        # manifest stays severity-major; image i has seed 10 + i at every severity
        assert [(e["severity"], e["seed"], Path(e["source"]).name) for e in manifest["entries"]] == [
            (severity, sweep.seed + i, f"img-{i}.png")
            for severity in sweep.severities for i in range(3)
        ]

    def test_empty_dir_rejected(self, tmp_path):
        src = tmp_path / "clean"
        src.mkdir()
        with pytest.raises(ValidationError):
            run_sweep(src, severity_sweep("fog", [0.01]), tmp_path / "o")

    # a failure before the last output is raised by the next hand-off to
    # the writers, one at the last output when they are joined
    @pytest.mark.parametrize("blocked", ["0.1/img-1.png", "0.2/img-2.png"])
    def test_writer_failure_raised_with_writers_joined(self, tmp_path, blocked):
        src = tmp_path / "clean"
        src.mkdir()
        for i in range(3):
            save_image(_random_image(55 + i, h=8, w=8), src / f"img-{i}.png")
        out = tmp_path / "o"
        (out / "white_box" / blocked).mkdir(parents=True)
        before = threading.active_count()
        with pytest.raises(IsADirectoryError):
            run_sweep(src, severity_sweep("white_box", [0.05, 0.1, 0.2]), out)
        assert threading.active_count() == before
        # the writers stop after the failure; the manifest is never written
        assert not (out / "white_box" / "manifest.json").exists()

    # the first output's write fails, a middle one's, and the last one's
    @pytest.mark.parametrize("written", [0, 4, 8])
    def test_failed_write_leaves_no_manifest_and_no_temporary(self, tmp_path, monkeypatch, written):
        import cornercase.corruptions as corruptions

        src = tmp_path / "clean"
        src.mkdir()
        for i in range(3):
            save_image(_random_image(60 + i, h=8, w=8), src / f"img-{i}.png")
        out = tmp_path / "o"
        run_sweep(src, severity_sweep("white_box", [0.05, 0.1, 0.2]), out)
        outputs = itertools.count()

        def failing_encode_png(*job):
            pieces = _encode_png(*job)
            if next(outputs) < written:
                return pieces

            def cut_short():  # a write that fails after its first pieces
                yield from pieces[:3]
                raise OSError("no space left")

            return cut_short()

        monkeypatch.setattr(corruptions, "_encode_png", failing_encode_png)
        with pytest.raises(OSError, match="no space left"):
            run_sweep(src, severity_sweep("white_box", [0.05, 0.1, 0.2], base_seed=1), out)
        # the first run's manifest is gone, not left to describe mixed outputs
        assert not (out / "white_box" / "manifest.json").exists()
        assert not list(out.rglob("*.tmp"))
        for png in out.rglob("*.png"):
            read_png(png)  # every file under a final name is whole

    def test_hand_offs_stop_while_writers_are_busy(self, tmp_path, monkeypatch):
        import cornercase.corruptions as corruptions

        src = tmp_path / "clean"
        src.mkdir()
        for i in range(6):
            save_image(_random_image(70 + i, h=8, w=8), src / f"img-{i}.png")
        encoding = threading.Semaphore(0)
        release = threading.Event()
        reads = []

        def blocked_encode_png(*job):
            encoding.release()
            release.wait()
            return _encode_png(*job)

        def counting_read_png(path, layout=None):
            reads.append(path)
            return read_png(path, layout)

        monkeypatch.setattr(corruptions, "_encode_png", blocked_encode_png)
        monkeypatch.setattr(corruptions, "read_png", counting_read_png)
        # one severity: each source read makes one frame, handed off at once
        sweep = severity_sweep("white_box", [0.1])
        sweep = threading.Thread(
            target=run_sweep, args=(src, sweep, tmp_path / "o"), daemon=True
        )
        sweep.start()
        try:
            for _ in range(_PNG_WRITERS):
                assert encoding.acquire(timeout=30), "a writer never started encoding"
            time.sleep(0.2)  # room for the main thread to hand off more, were it free to
            assert len(reads) == _PNG_WRITERS + 1
        finally:
            release.set()
            sweep.join(60)
        assert not sweep.is_alive()
        assert len(list((tmp_path / "o").rglob("*.png"))) == 6

    @pytest.mark.parametrize(
        "shapes, grid, tied", WHITE_BOX_CASES.values(), ids=list(WHITE_BOX_CASES)
    )
    def test_white_box_files_equal_quantized_corruption(self, tmp_path, shapes, grid, tied):
        src = tmp_path / "clean"
        src.mkdir()
        for i, (h, w) in enumerate(shapes):
            save_image(_random_image(90 + i, h=h, w=w), src / f"img-{i}.png")
        sweep = severity_sweep("white_box", grid, base_seed=6)
        h, w = shapes[0]
        tops = [_box(h, w, 6, severity)[0] for severity in sweep.severities]
        assert (len(set(tops)) < len(tops)) == tied
        run_sweep(src, sweep, tmp_path / "o")
        for i in range(len(shapes)):
            clean = load_image(src / f"img-{i}.png")  # the 8-bit source the sweep reads
            per_image = Sweep("white_box", sweep.severities, seed=6 + i)
            for severity, out in zip(sweep.severities, apply_corruption(clean, per_image)):
                write_png(tmp_path / "want.png", _quantize(out.pixels.copy()))
                rel = Path("white_box", severity_dirname(severity), f"img-{i}.png")
                assert (tmp_path / "o" / rel).read_bytes() == (
                    tmp_path / "want.png"
                ).read_bytes(), rel

    def test_white_box_sweep_memory_bounded(self, tmp_path):
        # numpy and zlib report their buffers to tracemalloc. Corrupting
        # the frame in float64 costs 16 times its uint8 bytes for the image
        # and one output; a 256x512 paper sweep peaked at 12.3 MiB that
        # way, at 4.0 MiB writing every output from the uint8 source over a
        # shared deflate prefix, and at 3.7 MiB from the source's deflate bands.
        h, w = 256, 512
        (tmp_path / "clean").mkdir()
        save_image(_random_image(95, h=h, w=w), tmp_path / "clean" / "a.png")
        sweep = severity_sweep("white_box", "whitebox-paper")
        tracemalloc.start()
        try:
            run_sweep(tmp_path / "clean", sweep, tmp_path / "o")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * h * w * 3, f"peak {peak / 2**20:.2f} MiB"
        assert len(list((tmp_path / "o").rglob("*.png"))) == len(sweep.severities)

    def test_fog_sweep_with_provided_depth(self, tmp_path):
        from cornercase.images import save_depth

        src = tmp_path / "clean"
        depth_dir = tmp_path / "depth"
        src.mkdir()
        depth_dir.mkdir()
        img = ImageBuffer(np.full((8, 8, 3), 0.2))
        save_image(img, src / "a.png")
        near = DepthMap(depth=np.full((8, 8), 10.0), valid=np.ones((8, 8), dtype=bool))
        save_depth(near, depth_dir / "a.png", meters_per_unit=0.01)
        sweep = severity_sweep("fog", [0.02])
        with_depth = run_sweep(src, sweep, tmp_path / "o1", depth_dir=depth_dir)
        without = run_sweep(src, sweep, tmp_path / "o2")
        assert with_depth["depth_policy"] == "provided"
        assert without["depth_policy"] == "default_ramp"
        # a uniformly near scene fogs far less than the 300m-top ramp
        a = load_image(tmp_path / "o1" / "fog" / "0.02" / "a.png").pixels
        b = load_image(tmp_path / "o2" / "fog" / "0.02" / "a.png").pixels
        assert a.mean() < b.mean()


# 64x96 images make blocks of 3 severities, so a 5-point grid spans a
# full block and a partial one
SWEEP_GRIDS = {
    "fog": [0.0, 0.004, 0.01, 0.02, 0.05],
    "gaussian_noise": [0.0, 0.01, 0.05, 0.1, 0.3],
    "white_box": [0.0, 0.01, 0.05, 0.2, 0.5],
}


class TestSweepBlocks:
    @pytest.mark.parametrize("kind", sorted(SWEEP_GRIDS))
    def test_blocks_equal_single_image_corruption(self, kind):
        images = [_random_image(60 + i, h=64, w=96) for i in range(3)]
        sweep = severity_sweep(kind, SWEEP_GRIDS[kind], base_seed=4)
        seen = []
        for i, j, seed, block in _sweep_blocks([(img, None) for img in images], sweep):
            assert seed == 4 + i
            assert block.shape[0] * block[0].size <= _SWEEP_BLOCK_ELEMENTS
            for k, pixels in enumerate(block):
                one = Sweep(kind, (sweep.severities[j + k],), seed=seed)
                want = _reference_corruption(images[i], one)[0].pixels
                assert pixels.tobytes() == want.tobytes()
                seen.append((i, j + k))
        assert seen == [(i, j) for i in range(3) for j in range(5)]

    @pytest.mark.parametrize("kind, holes", [("fog", False), ("fog", True),
                                             ("gaussian_noise", False), ("white_box", False)])
    def test_apply_corruption_equals_single_image_functions(self, kind, holes):
        # 64x96 makes blocks of 3, so the 5-point grid spans two blocks
        img = _random_image(75, h=64, w=96)
        depth = None
        if holes:  # the invalid pixels take the valid median
            rng = np.random.default_rng(76)
            depth = DepthMap(rng.uniform(2.0, 300.0, (64, 96)), rng.random((64, 96)) >= 0.2)
        sweep = Sweep(kind, SWEEP_GRIDS[kind], seed=8, atmospheric_light=0.8)
        single = {
            "fog": lambda s: apply_fog(img, depth, s, atmospheric_light=0.8),
            "gaussian_noise": lambda s: apply_gaussian_noise(img, s, seed=8),
            "white_box": lambda s: apply_white_box(img, s, seed=8),
        }[kind]
        outs = apply_corruption(img, sweep, depth)
        assert len(outs) == len(sweep.severities)
        for severity, out in zip(sweep.severities, outs):
            assert not out.pixels.flags.writeable
            assert out.pixels.tobytes() == single(severity).pixels.tobytes()

    @pytest.mark.parametrize("kind", sorted(SWEEP_GRIDS))
    def test_sweep_outputs_equal_corrupt_at_each_severity(self, tmp_path, kind):
        src = tmp_path / "clean"
        src.mkdir()
        for i in range(3):
            save_image(_random_image(70 + i, h=64, w=96), src / f"img-{i}.png")
        grid = SWEEP_GRIDS[kind]
        sweep_out, corrupt_out = tmp_path / "sweep", tmp_path / "corrupt"
        argv = ["--images", str(src), "--kind", kind, "--seed", "9"]
        grid_arg = ",".join(repr(v) for v in grid)
        assert main(["sweep", *argv, "--grid", grid_arg, "--out", str(sweep_out)]) == 0
        for sev in grid:
            assert main(["corrupt", *argv, "--severity", repr(sev), "--out", str(corrupt_out)]) == 0
        for sev in grid:
            for i in range(3):
                rel = Path(kind, format(sev, ".6g"), f"img-{i}.png")
                assert (sweep_out / rel).read_bytes() == (corrupt_out / rel).read_bytes(), rel

    # 64x96 images make blocks of 3 outputs, 128x128 ones blocks of 1
    @pytest.mark.parametrize("shape", [(64, 96), (128, 128)])
    @pytest.mark.parametrize("kind", sorted(SWEEP_GRIDS))
    def test_sweep_files_equal_per_output_save(self, tmp_path, kind, shape):
        h, w = shape
        assert (_SWEEP_BLOCK_ELEMENTS // (h * w * 3) > 1) == (shape == (64, 96))
        src = tmp_path / "clean"
        src.mkdir()
        for i in range(3):
            save_image(_random_image(75 + i, h=h, w=w), src / f"img-{i}.png")
        sweep = severity_sweep(kind, SWEEP_GRIDS[kind], base_seed=2)
        run_sweep(src, sweep, tmp_path / "sweep")
        _reference_sweep_outputs(src, sweep, tmp_path / "reference")
        written = sorted(p.relative_to(tmp_path / "reference")
                         for p in (tmp_path / "reference").rglob("*.png"))
        assert len(written) == 3 * len(sweep.severities)
        assert sorted(p.relative_to(tmp_path / "sweep")
                      for p in (tmp_path / "sweep").rglob("*.png")) == written
        for rel in written:
            assert (tmp_path / "sweep" / rel).read_bytes() == (
                tmp_path / "reference" / rel
            ).read_bytes(), rel

    def test_block_quantizer_equals_to_uint8(self):
        # every rounding boundary (k + 0.5) / 255, one ulp either side, and 0 and 1
        mid = (np.arange(255) + 0.5) / 255.0
        values = np.concatenate([[0.0, 1.0], mid, np.nextafter(mid, 0.0), np.nextafter(mid, 1.0)])
        frame = np.repeat(values[:, None], 3, axis=1)[None]  # (1, 767, 3)
        block = np.stack([frame, frame[:, ::-1]])
        want = np.stack([ImageBuffer(pixels).to_uint8() for pixels in block])
        assert want.dtype == np.uint8
        # to_uint8 before it shared the quantizer
        assert (want == np.floor(block * 255.0 + 0.5).astype(np.uint8)).all()
        got = _quantize(block.copy())
        assert got.dtype == np.uint8 and got.shape == block.shape
        assert (got == want).all()

    def test_noise_sweep_memory_bounded(self):
        # numpy reports its buffers to tracemalloc; the 50 corrupted
        # images at once would be 7.4 MB
        img = _random_image(80, h=64, w=96)
        sweep = severity_sweep("gaussian_noise", "noise-paper", base_seed=0)
        feats = np.empty((len(sweep.severities), 3 * 16 + 3))
        tracemalloc.start()
        try:
            for _, j, _, block in _sweep_blocks([(img, None)], sweep):
                feats[j : j + len(block)] = toy_encode(block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * _SWEEP_BLOCK_ELEMENTS, f"peak {peak / 2**20:.2f} MB"
        assert np.isfinite(feats).all()

    def test_noise_sweep_from_sums_memory_bounded(self):
        # a saturated image: every value with a nonzero draw clips at some
        # sigma, so half of the 18432 values are clip candidates. The
        # encoder peaked at 1.2 MiB here; one float64 array of 50 sigmas by
        # 9216 candidates alone is 3.5 MiB.
        rng = np.random.default_rng(81)
        img = ImageBuffer((rng.uniform(size=(64, 96, 3)) < 0.5).astype(float))
        sweep = severity_sweep("gaussian_noise", "noise-paper", base_seed=0)
        sigmas = list(sweep.severities)
        tracemalloc.start()
        try:
            feats = toy_encode_noise_sweep(img, _noise_field(0, img.pixels.shape), sigmas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"
        assert feats.shape == (len(sweep.severities), 3 * 16 + 3)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda img: apply_fog(img, None, -0.01),
            lambda img: apply_fog(img, None, math.nan),
            lambda img: apply_fog(img, None, 0.01, atmospheric_light=1.5),
            lambda img: apply_gaussian_noise(img, math.inf),
            lambda img: apply_white_box(img, 1.5),
        ],
    )
    def test_single_image_functions_share_spec_checks(self, corrupt):
        with pytest.raises(ValidationError, match="severity|white_box|atmospheric_light"):
            corrupt(_random_image(12))

    @pytest.mark.parametrize("kind", sorted(SWEEP_GRIDS))
    def test_zero_severity_returns_equal_copy(self, kind):
        img = _random_image(13)
        out = apply_corruption(img, Sweep(kind, (0.0,), seed=3))[0]
        assert out is not img and out.pixels.tobytes() == img.pixels.tobytes()



def _encode_spied(header, scanlines, source=None):
    """(file bytes, indices of the bands deflated) of one _encode_png, the
    bands found from where each deflated slice starts in scanlines."""
    step = max(1, _BAND_BYTES // scanlines.shape[1])
    deflate = images_module._deflate_band
    bands = []

    def spy(rows, last):
        row = (rows.ctypes.data - scanlines.ctypes.data) // scanlines.strides[0]
        bands.append(row // step)
        return deflate(rows, last)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(images_module, "_deflate_band", spy)
        data = b"".join(_encode_png(header, scanlines, source))
    return data, bands


def _painted_job(height, width, top, stop, seed=0):
    """(header, source scanlines, scanlines painted 255 in rows top to
    stop - 1 of the middle columns) of a random RGB frame."""
    rng = np.random.default_rng(seed)
    header, rows = _scanlines(rng.integers(0, 256, (height, width, 3), dtype=np.uint8))
    painted = rows.copy()
    painted[top:stop, 1 + 3 * (width // 4) : 1 + 3 * (width // 4 + width // 2 + 1)] = 255
    return header, rows, painted


class TestBandReuse:
    """A white-box job names its source's deflated bands and the box rows;
    the encoder re-deflates exactly the bands that hold any of those rows
    and writes the bytes of a full encode."""

    # 64 x 96 RGB scanlines are 289 bytes, so a band holds 28 rows and a
    # 64-row frame has 3 bands; 2 x 2730 gray-size rows of 1 + 8190 bytes
    # make bands of one row
    @pytest.mark.parametrize(
        "height, width, top, stop, want",
        [
            (64, 96, 64, 64, []),  # side 0, as _box places it
            (64, 96, 30, 30, []),  # side 0 inside the frame
            (64, 96, 0, 64, [0, 1, 2]),  # the full frame
            (64, 96, 27, 29, [0, 1]),  # across the edge of bands 0 and 1
            (64, 96, 28, 56, [1]),  # exactly band 1
            (64, 96, 55, 57, [1, 2]),  # across the edge of bands 1 and 2
            (64, 96, 63, 64, [2]),  # the last row, in the short last band
            (10, 20, 3, 7, [0]),  # a one-band frame
            (1, 37, 0, 1, [0]),  # a one-row frame
            (1, 37, 1, 1, []),
            (2, 2730, 1, 2, [1]),  # one row a band
        ],
    )
    def test_redeflates_exactly_the_bands_the_rows_touch(self, height, width, top, stop, want):
        header, rows, painted = _painted_job(height, width, top, stop)
        _, made = _encode_spied(header, rows)
        assert made == list(range(len(made)))
        got, redone = _encode_spied(header, painted, (_deflated_bands(rows), top, stop))
        assert redone == want
        assert got == b"".join(_encode_png(header, painted))

    @given(
        seed=st.integers(0, 2**32 - 1),
        width=st.integers(1, 400),
        bands=st.integers(1, 5),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_bytes_equal_an_encode_without_source(self, seed, width, bands, data):
        step = max(1, _BAND_BYTES // (3 * width + 1))
        height = data.draw(st.integers((bands - 1) * step + 1, bands * step))
        top = data.draw(st.integers(0, height))
        stop = data.draw(st.integers(top, height))
        header, rows, painted = _painted_job(height, width, top, stop, seed)
        got, redone = _encode_spied(header, painted, (_deflated_bands(rows), top, stop))
        assert got == b"".join(_encode_png(header, painted))
        assert redone == list(range(top // step, (stop - 1) // step + 1) if stop > top else [])

    def test_white_box_jobs_share_one_band_list(self, tmp_path):
        # 130 x 130 RGB: bands of 20 rows; the paper grid's boxes span 11 to 45 rows
        pixels = np.random.default_rng(3).integers(0, 256, (130, 130, 3), dtype=np.uint8)
        sweep = severity_sweep("white_box", "whitebox-paper", base_seed=4)
        jobs = list(_box_outputs(pixels, None, 4, sweep))
        header, rows = _scanlines(pixels)
        bands = jobs[0][1][2][0]
        assert bands == _deflated_bands(rows)
        for k, (j, (job_header, painted, (job_bands, top, stop))) in enumerate(jobs):
            box_top, left, side = _box(130, 130, 4, sweep.severities[k])
            assert j == k and job_header == header and job_bands is bands
            assert (top, stop) == (box_top, box_top + side)
            path = tmp_path / f"{k}.png"
            path.write_bytes(_encode_spied(job_header, painted, (job_bands, top, stop))[0])
            want = pixels.copy()
            want[box_top : box_top + side, left : left + side] = 255
            np.testing.assert_array_equal(read_png(path), want)


class TestExtremeSeverities:
    """Severities up to the float maximum: where beta * depth or sigma *
    field overflow, the value takes its limit, with no RuntimeWarning
    (the suite turns those into errors)."""

    def test_fog_at_largest_beta_is_the_light(self):
        img = _random_image(20)
        depth = DepthMap(np.full((12, 16), 2.0), np.ones((12, 16), dtype=bool))
        for d in (None, depth):
            out = apply_fog(img, d, 1e308, atmospheric_light=0.7)
            assert (out.pixels == 0.7).all()

    def test_noise_at_largest_sigma_clips_to_the_field_sign(self):
        img = _random_image(21)
        field = _noise_field(5, img.pixels.shape)
        assert (apply_gaussian_noise(img, 1e308, seed=5).pixels == (field > 0)).all()
        field[0, 0] = 0.0  # a zero draw leaves its pixel as it was
        want = np.where(field > 0, 1.0, np.where(field < 0, 0.0, img.pixels))
        assert (_noise_stack(img.pixels, field, np.array([1e308]))[0] == want).all()

    @pytest.mark.parametrize("kind", ["fog", "gaussian_noise"])
    def test_run_sweep_at_largest_severity(self, tmp_path, kind):
        src = tmp_path / "clean"
        src.mkdir()
        save_image(_random_image(22), src / "a.png")
        sweep = Sweep(kind, (0.01, 1e308), seed=1, atmospheric_light=0.6)
        run_sweep(src, sweep, tmp_path / "o")
        out = read_png(tmp_path / "o" / kind / "1e+308" / "a.png")
        if kind == "fog":
            assert (out == 153).all()  # floor(0.6 * 255 + 0.5)
        else:
            assert set(np.unique(out)) <= {0, 255}

    @pytest.mark.parametrize(
        "grid", [(0.001, 0.01, 9e307), (0.0, 0.5, 1e308), (1e308,), (1e-300, 8e307, 1e308)]
    )
    def test_noise_rows_from_sums_equal_the_engine_rows(self, grid):
        # a black and a white patch, so values clip at every sigma
        px = _random_image(23, h=24, w=32).pixels.copy()
        px[:6, :8] = 0.0
        px[-6:, -8:] = 1.0
        img = ImageBuffer(px)
        sweep = Sweep("gaussian_noise", grid, seed=7)
        got = _KINDS["gaussian_noise"].rows(img, None, 7, sweep, 4)
        want = _block_rows(img, None, 7, sweep, 4)
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["fog", "gaussian_noise"])
    def test_run_corruption_sweep_at_largest_severity(self, kind):
        from cornercase.density import fit_gmm
        from cornercase.embeddings import EmbeddingSet

        images = [(f"s{i}", _random_image(30 + i)) for i in range(6)]
        train = EmbeddingSet([f"t{i}" for i in range(20)],
                             [toy_encode(_random_image(40 + i)) for i in range(20)])
        model = fit_gmm(train, components=1, seed=0)
        rows, _ = run_corruption_sweep(images, Sweep(kind, (0.001, 0.01, 1e308), seed=2), model)
        assert [severity for severity, _ in rows] == [0.001, 0.01, 1e308]
        for _, report in rows:
            assert all(math.isfinite(v) for v in (report.auroc, report.fpr_at_95))
