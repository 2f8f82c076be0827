"""PNG codec and container validation tests."""

import itertools
import math
import os
import stat
import struct
import sys
import threading
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornercase.corruptions import run_sweep, severity_sweep
from cornercase.errors import FormatError, ValidationError
from cornercase.images import (
    _BAND_BYTES,
    _MAX_PNG_PIXELS,
    GRAY8,
    GRAY16,
    RGB8,
    DepthMap,
    _deflate_band,
    _encode_png,
    _png_chunks,
    _predictor_table,
    _scanlines,
    _write_file,
    ImageBuffer,
    load_depth,
    load_image,
    read_png,
    save_depth,
    save_image,
    write_png,
)
from cornercase.metrics import load_pixel_ground_truth
from cornercase.uncertainty import load_uncertainty_map


def _rng():
    return np.random.default_rng(42)


class TestPngRoundTrip:
    def test_rgb8(self, tmp_path):
        arr = _rng().integers(0, 256, size=(13, 17, 3), dtype=np.uint8)
        path = tmp_path / "img.png"
        write_png(path, arr)
        np.testing.assert_array_equal(read_png(path), arr)
        np.testing.assert_array_equal(read_png(path, RGB8), arr)

    def test_gray8(self, tmp_path):
        arr = _rng().integers(0, 256, size=(9, 5), dtype=np.uint8)
        path = tmp_path / "img.png"
        write_png(path, arr)
        np.testing.assert_array_equal(read_png(path), arr)
        np.testing.assert_array_equal(read_png(path, GRAY8), arr)

    def test_gray16(self, tmp_path):
        arr = _rng().integers(0, 65536, size=(7, 11), dtype=np.uint16)
        path = tmp_path / "img.png"
        write_png(path, arr)
        for decoded in (read_png(path), read_png(path, GRAY16)):
            assert decoded.dtype == np.uint16
            np.testing.assert_array_equal(decoded, arr)

    def test_write_is_deterministic(self, tmp_path):
        arr = _rng().integers(0, 256, size=(6, 6, 3), dtype=np.uint8)
        a, b = tmp_path / "a.png", tmp_path / "b.png"
        write_png(a, arr)
        write_png(b, arr)
        assert a.read_bytes() == b.read_bytes()


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    if pb <= pc:
        return b
    return c


def unfilter_loop_reference(raw: bytes, height: int, stride: int, bpp: int) -> bytearray:
    """The per-byte decoder the wavefront replaced, kept as its reference."""
    out = bytearray(height * stride)
    prior = bytearray(stride)
    pos = 0
    for row in range(height):
        ftype = raw[pos]
        pos += 1
        line = bytearray(raw[pos : pos + stride])
        pos += stride
        if ftype == 0:
            pass
        elif ftype == 1:  # Sub
            for i in range(bpp, stride):
                line[i] = (line[i] + line[i - bpp]) & 0xFF
        elif ftype == 2:  # Up
            for i in range(stride):
                line[i] = (line[i] + prior[i]) & 0xFF
        elif ftype == 3:  # Average
            for i in range(stride):
                left = line[i - bpp] if i >= bpp else 0
                line[i] = (line[i] + ((left + prior[i]) >> 1)) & 0xFF
        elif ftype == 4:  # Paeth
            for i in range(stride):
                left = line[i - bpp] if i >= bpp else 0
                upleft = prior[i - bpp] if i >= bpp else 0
                line[i] = (line[i] + _paeth(left, prior[i], upleft)) & 0xFF
        else:
            raise FormatError(f"unsupported PNG filter type {ftype}")
        out[row * stride : (row + 1) * stride] = line
        prior = line
    return out


def scanlines_loop_reference(payload: bytes, height: int) -> bytes:
    """The per-row scanline build write_png replaced, kept as its reference."""
    stride = len(payload) // height
    scanlines = bytearray()
    for row in range(height):
        scanlines.append(0)
        scanlines.extend(payload[row * stride : (row + 1) * stride])
    return bytes(scanlines)


def _layout(arr: np.ndarray):
    """PNG color type, bit depth and bytes per pixel of an array, and its
    samples as big-endian bytes, one row of the image per row."""
    if arr.dtype == np.uint16:
        return 0, 16, 2, arr.astype(">u2").view(np.uint8)
    if arr.ndim == 3:
        return 2, 8, 3, arr.reshape(arr.shape[0], -1)
    return 0, 8, 1, arr


def _random_image(layout: str, shape, rng) -> np.ndarray:
    if layout == "rgb8":
        return rng.integers(0, 256, size=(*shape, 3), dtype=np.uint8)
    if layout == "gray8":
        return rng.integers(0, 256, size=shape, dtype=np.uint8)
    return rng.integers(0, 65536, size=shape, dtype=np.uint16)


def _filtered_scanlines(arr: np.ndarray, filters) -> bytes:
    """Independent minimal PNG filter step, applying a chosen filter per row.

    Exercises the decoder against scanline filters our own writer never
    emits (Sub, Up, Average, Paeth).
    """
    _, _, bpp, rows = _layout(arr)
    stride = rows.shape[1]
    out = bytearray()
    prior = [0] * stride
    for r in range(rows.shape[0]):
        ftype = filters[r % len(filters)]
        out.append(ftype)
        line = rows[r].tolist()
        for i in range(stride):
            left = line[i - bpp] if i >= bpp else 0
            upleft = prior[i - bpp] if i >= bpp else 0
            if ftype == 0:
                enc = line[i]
            elif ftype == 1:
                enc = line[i] - left
            elif ftype == 2:
                enc = line[i] - prior[i]
            elif ftype == 3:
                enc = line[i] - ((left + prior[i]) >> 1)
            else:
                enc = line[i] - _paeth(left, prior[i], upleft)
            out.append(enc & 0xFF)
        prior = line
    return bytes(out)


def _encode_with_filters(arr: np.ndarray, filters) -> bytes:
    color_type, bit_depth, _, _ = _layout(arr)
    idat = zlib.compress(_filtered_scanlines(arr, filters))
    return _png_file(arr.shape[1], arr.shape[0], color_type, idat, bit_depth)


def _png_file(width, height, color_type, idat, bit_depth=8, parts=1):
    """PNG bytes for an image with the given raw IDAT payload, split
    into that many IDAT chunks."""

    def chunk(ctype, payload):
        return (
            struct.pack(">I", len(payload))
            + ctype
            + payload
            + struct.pack(">I", zlib.crc32(ctype + payload) & 0xFFFFFFFF)
        )

    ihdr = struct.pack(">IIBBBBB", width, height, bit_depth, color_type, 0, 0, 0)
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + b"".join(
            chunk(b"IDAT", idat[i * len(idat) // parts : (i + 1) * len(idat) // parts])
            for i in range(parts)
        )
        + chunk(b"IEND", b"")
    )


LAYOUTS = ["rgb8", "gray8", "gray16"]


class TestPngFilters:
    @pytest.mark.parametrize("filters", [[0], [1], [2], [3], [4], [0, 1, 2, 3, 4]])
    def test_all_filter_types_decode(self, tmp_path, filters):
        arr = _rng().integers(0, 256, size=(10, 8, 3), dtype=np.uint8)
        path = tmp_path / "f.png"
        path.write_bytes(_encode_with_filters(arr, filters))
        np.testing.assert_array_equal(read_png(path), arr)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize(
        "shape",
        [
            (1, 1), (1, 9), (9, 1), (2, 2), (6, 13), (13, 6), (24, 36), (36, 24),
            # column lanes (taller than wide), and strips
            (40, 3), (97, 5), (1, 300), (300, 1), (2, 150), (150, 2),
        ],
    )
    def test_mixed_filters_equal_source_and_loop_reference(self, tmp_path, layout, shape):
        rng = np.random.default_rng([LAYOUTS.index(layout), *shape])
        path = tmp_path / "f.png"
        # four draws mix all five filters; the fifth has None and Sub rows
        # only, decoded with no wavefront
        for kinds in (5, 5, 5, 5, 2):
            arr = _random_image(layout, shape, rng)
            filters = rng.integers(0, kinds, size=shape[0]).tolist()
            scanlines = _filtered_scanlines(arr, filters)
            _, _, bpp, rows = _layout(arr)
            path.write_bytes(_encode_with_filters(arr, filters))
            decoded = read_png(path)
            assert decoded.dtype == arr.dtype and decoded.shape == arr.shape
            np.testing.assert_array_equal(decoded, arr)
            reference = unfilter_loop_reference(scanlines, shape[0], rows.shape[1], bpp)
            assert _layout(decoded)[3].tobytes() == bytes(reference)

    def test_tall_narrow_decode_memory_follows_pixel_count(self, tmp_path):
        # A wavefront buffer sized by the height squared would take 800 MB
        # here. None and Sub rows are decoded with no wavefront, into the
        # output and one copy of the Sub rows; the inflated rows and the
        # per-row filter masks add a few bytes per row.
        height = 20000
        arr = _random_image("gray8", (height, 1), _rng())
        filters = [0] * height
        filters[7] = 1  # one Sub row, so the file is not sliced
        path = tmp_path / "tall.png"
        path.write_bytes(_encode_with_filters(arr, filters))
        tracemalloc.start()
        try:
            decoded = read_png(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(decoded, arr)
        assert peak < 32 * arr.nbytes

    def test_tall_narrow_wavefront_memory_follows_pixel_count(self, tmp_path):
        # one Paeth row puts the whole image through the wavefront, whose
        # buffer, sized by the shorter side, is about 2 bytes per pixel byte
        height = 5000
        arr = _random_image("gray8", (height, 1), _rng())
        filters = [0] * height
        filters[7] = 4
        path = tmp_path / "tall.png"
        path.write_bytes(_encode_with_filters(arr, filters))
        tracemalloc.start()
        try:
            decoded = read_png(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(decoded, arr)
        assert peak < 32 * arr.nbytes

    def test_predictor_table_equals_scalar_predictors(self):
        # entry (f - 2, a - c + 255, b - c + 255) is (predictor - c) mod 256
        # of Up (f 2), Average (3) and Paeth (4) for every byte triple
        table = _predictor_table().reshape(3, 511, 511)
        assert table.dtype == np.uint8 and table.nbytes == 3 * 511 * 511
        byte = np.arange(256)
        a, b = byte[:, None], byte[None, :]
        for c in range(256):
            x, y = a - c + 255, b - c + 255
            p = a + b - c
            pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
            paeth = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
            for f, predictor in ((0, b + 0 * a), (1, (a + b) >> 1), (2, paeth)):
                np.testing.assert_array_equal(table[f, x, y], (predictor - c) % 256)
        # and the vector Paeth above is the scalar one, on every (a - c, b - c)
        # pair some byte triple reaches (with the least such c)
        for dx in range(-255, 256):
            for dy in range(-255, 256):
                c = max(0, -dx, -dy)
                if c + max(dx, dy, 0) <= 255:
                    want = (_paeth(c + dx, c + dy, c) - c) % 256
                    assert table[2, dx + 255, dy + 255] == want, (dx, dy)

    @pytest.mark.parametrize("bad", [5, 255])
    def test_unsupported_filter_byte_rejected(self, tmp_path, bad):
        raw = bytearray(_filtered_scanlines(np.zeros((4, 3, 3), dtype=np.uint8), [0, 1, 4, 2]))
        raw[2 * 10] = bad  # the filter byte of row 2, after two 1 + 9 byte rows
        path = tmp_path / "f.png"
        path.write_bytes(_png_file(3, 4, 2, zlib.compress(bytes(raw))))
        with pytest.raises(FormatError, match=f"unsupported PNG filter type {bad}"):
            read_png(path)


class TestPngWriterBytes:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (13, 17)])
    def test_bytes_equal_per_row_scanline_build(self, tmp_path, layout, shape):
        arr = _random_image(layout, shape, _rng())
        color_type, bit_depth, _, rows = _layout(arr)
        idat = zlib.compress(scanlines_loop_reference(rows.tobytes(), shape[0]), 6)
        path = tmp_path / "w.png"
        write_png(path, arr)
        assert path.read_bytes() == _png_file(shape[1], shape[0], color_type, idat, bit_depth)


class TestWriteFile:
    def test_pieces_written_in_turn(self, tmp_path):
        path = tmp_path / "out"
        _write_file(path, [b"ab", "\u00e9\n", np.arange(3, dtype="<u2"), bytearray(b"z")])
        assert path.read_bytes() == b"ab\xc3\xa9\n\x00\x00\x01\x00\x02\x00z"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_failed_write_keeps_the_old_file_and_no_temporary(self, tmp_path):
        path = tmp_path / "out"
        path.write_bytes(b"old")

        def pieces():
            yield b"new"
            raise OSError("no space left")

        with pytest.raises(OSError, match="no space left"):
            _write_file(path, pieces())
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_symlink_is_replaced_not_followed(self, tmp_path):
        target, link = tmp_path / "target", tmp_path / "link"
        target.write_bytes(b"kept")
        link.symlink_to(target)
        _write_file(link, [b"new"])
        assert not link.is_symlink() and link.read_bytes() == b"new"
        assert target.read_bytes() == b"kept"

    def test_threads_writing_one_path_never_share_a_temporary(self, tmp_path):
        # the sweep's writer threads name temporaries from one counter: a
        # shared name would fail a rename or mix two writers' pieces
        path, errors = tmp_path / "out", []
        payloads = [bytes([i]) * 4096 for i in range(8)]

        def write(payload):
            try:
                for _ in range(40):
                    _write_file(path, [payload[:2048], payload[2048:]])
            except OSError as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write, args=(p,)) for p in payloads]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert path.read_bytes() in payloads
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_mode_comes_from_the_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            _write_file(tmp_path / "out", [b"x"])
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "out").stat().st_mode) == 0o640


def banded_idat_loop_reference(scanlines: bytes, stride: int) -> bytes:
    """The zlib stream of scanlines cut into bands of whole rows, as many
    as fit in 8 KiB and at least one: each band raw-deflated at level 6 by
    its own compressor, a full flush after every band but the last and
    the stream's finish after the last, behind the header 78 9c and
    before the adler32 of all the scanlines."""
    band = max(1, 8192 // stride) * stride
    out = [b"\x78\x9c"]
    for start in range(0, len(scanlines), band):
        compressor = zlib.compressobj(6, zlib.DEFLATED, -15)
        out.append(compressor.compress(scanlines[start : start + band]))
        last = start + band >= len(scanlines)
        out.append(compressor.flush(zlib.Z_FINISH if last else zlib.Z_FULL_FLUSH))
    out.append(struct.pack(">I", zlib.adler32(scanlines)))
    return b"".join(out)


class TestPngWriterBands:
    # (layout, shape, bands): scanlines of exactly one band and one byte
    # over, one row longer than a band, a tall strip, 16-bit gray, and a
    # sweep-sized scene
    @pytest.mark.parametrize(
        "layout, shape, bands",
        [
            ("gray8", (64, 127), 1),
            ("gray8", (3, 2730), 2),
            ("rgb8", (1, 3000), 1),
            ("rgb8", (20000, 1), 10),
            ("gray16", (100, 90), 3),
            ("rgb8", (64, 96), 3),
        ],
    )
    def test_bytes_equal_banded_loop_reference(self, tmp_path, layout, shape, bands):
        arr = _random_image(layout, shape, _rng())
        color_type, bit_depth, _, rows = _layout(arr)
        scanlines = scanlines_loop_reference(rows.tobytes(), shape[0])
        stride = len(scanlines) // shape[0]
        assert _BAND_BYTES == 8192 and -(-shape[0] // max(1, 8192 // stride)) == bands
        idat = banded_idat_loop_reference(scanlines, stride)
        if bands == 1:
            assert idat == zlib.compress(scanlines, 6)
        path = tmp_path / "w.png"
        write_png(path, arr)
        assert path.read_bytes() == _png_file(shape[1], shape[0], color_type, idat, bit_depth)
        got = read_png(path)
        assert got.dtype == arr.dtype
        np.testing.assert_array_equal(got, arr)


class TestBandLocality:
    # A white-box sweep output takes the source's deflated bytes for every
    # band its box misses; the writer relies on a band's bytes depending
    # on that band's rows alone.
    @given(
        seed=st.integers(0, 2**32 - 1),
        stride=st.integers(2, 3000),
        bands=st.integers(1, 6),
        changed=st.integers(0, 5),
        levels=st.sampled_from([1, 3, 256]),
    )
    @settings(max_examples=20, deadline=None)
    def test_changing_one_band_changes_only_its_slice(self, seed, stride, bands, changed, levels):
        rng = np.random.default_rng(seed)
        step = max(1, _BAND_BYTES // stride)
        height = (bands - 1) * step + int(rng.integers(1, step + 1))
        before = rng.integers(0, levels, (height, stride - 1), dtype=np.uint8)
        b = changed % bands
        after = before.copy()
        after[b * step : (b + 1) * step] ^= 0xFF
        # the bytes write_png writes, with the file's IDAT cut out
        files = [b"".join(_encode_png(*_scanlines(pixels))) for pixels in (before, after)]
        idats = [bytes(_png_chunks("x", data)[1]) for data in files]

        def band(pixels, i):
            return _deflate_band(_scanlines(pixels[i * step : (i + 1) * step])[1], i == bands - 1)

        # the other bands deflate the same rows in both files
        above = 2 + sum(len(band(before, i)) for i in range(b))
        below = 4 + sum(len(band(before, i)) for i in range(b + 1, bands))
        x, y = idats
        assert x[:above] == y[:above] and x[-below:-4] == y[-below:-4]
        assert x[above:-below] == band(before, b) and y[above:-below] == band(after, b)
        assert x[above:-below] != y[above:-below]


class TestPngErrors:
    def test_bad_signature(self, tmp_path):
        path = tmp_path / "x.png"
        path.write_bytes(b"not a png at all")
        with pytest.raises(FormatError):
            read_png(path)

    def test_corrupt_crc(self, tmp_path):
        arr = np.zeros((4, 4, 3), dtype=np.uint8)
        path = tmp_path / "x.png"
        write_png(path, arr)
        blob = bytearray(path.read_bytes())
        blob[-5] ^= 0xFF  # flip a bit inside the IEND CRC
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_png(path)

    # byte offsets in a toolkit-written file: IHDR type 12, IHDR CRC 29,
    # IDAT type 37, IDAT payload 41; from the end, IDAT CRC -16
    @pytest.mark.parametrize("offset", [12, 15, 29, 32, 37, 41, -16, -13])
    def test_flipped_byte_fails_crc(self, tmp_path, offset):
        arr = _rng().integers(0, 256, size=(5, 6, 3), dtype=np.uint8)
        path = tmp_path / "x.png"
        write_png(path, arr)
        blob = bytearray(path.read_bytes())
        assert blob[12:16] == b"IHDR" and blob[37:41] == b"IDAT"
        blob[offset] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="fails CRC check"):
            read_png(path)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_split_image_data_decodes_the_same(self, tmp_path, layout):
        arr = _random_image(layout, (9, 13), _rng())
        color_type, bit_depth, _, _ = _layout(arr)
        idat = zlib.compress(_filtered_scanlines(arr, [0, 1, 2, 3, 4]))
        for parts in (1, 3):
            path = tmp_path / f"split{parts}.png"
            blob = _png_file(arr.shape[1], arr.shape[0], color_type, idat, bit_depth, parts)
            assert blob.count(b"IDAT") == parts
            path.write_bytes(blob)
            got = read_png(path)
            assert got.dtype == arr.dtype
            np.testing.assert_array_equal(got, arr)

    def test_inflate_bomb_rejected(self, tmp_path):
        # a 1x1 gray image needs 2 bytes; this IDAT inflates to 1 MiB
        idat = zlib.compress(bytes(1 << 20))
        assert len(idat) < 2048
        path = tmp_path / "bomb.png"
        path.write_bytes(_png_file(1, 1, 0, idat))
        with pytest.raises(FormatError, match="goes past"):
            read_png(path)

    def test_trailing_image_data_rejected(self, tmp_path):
        path = tmp_path / "x.png"
        path.write_bytes(_png_file(1, 1, 0, zlib.compress(b"\x00\x07") + b"junk"))
        with pytest.raises(FormatError):
            read_png(path)

    def test_truncated_image_data_rejected(self, tmp_path):
        path = tmp_path / "x.png"
        path.write_bytes(_png_file(1, 1, 0, zlib.compress(b"\x00\x07")[:-4]))
        with pytest.raises(FormatError):
            read_png(path)
        # a CRC-valid IDAT that is no zlib stream at all
        path.write_bytes(_png_file(1, 1, 0, b"\x00\x01\x02\x03"))
        with pytest.raises(FormatError, match="corrupt PNG image data"):
            read_png(path)

    def test_unsupported_dtype(self, tmp_path):
        with pytest.raises(ValidationError):
            write_png(tmp_path / "x.png", np.zeros((4, 4), dtype=np.float64))

    # PNG requires a width and a height of at least 1
    @pytest.mark.parametrize("width, height", [(0, 4), (4, 0)])
    def test_zero_size_rejected(self, tmp_path, width, height):
        path = tmp_path / "x.png"
        path.write_bytes(_png_file(width, height, 2, zlib.compress(bytes(height))))
        with pytest.raises(FormatError, match=f"PNG is {width}x{height}; width and height"):
            read_png(path)
        with pytest.raises(ValidationError, match="cannot encode an empty array"):
            write_png(tmp_path / "y.png", np.zeros((height, width, 3), dtype=np.uint8))


# the largest frame the pixel budget admits
_BUDGET_WIDTH, _BUDGET_HEIGHT = 8192, _MAX_PNG_PIXELS // 8192


@pytest.fixture(scope="module")
def budget_png(tmp_path_factory):
    """make(color_type, bit_depth, bytes per pixel): a PNG of the largest
    frame the pixel budget admits, whose IDAT inflates to the zero rows its
    header implies, one file per layout: 65-131 KB on disk, 67-134 MB
    inflated."""
    made = {}

    def make(color_type, bit_depth, bpp):
        key = (color_type, bit_depth)
        if key not in made:
            row = bytes(1 + _BUDGET_WIDTH * bpp)
            deflate = zlib.compressobj(6)
            rows = [deflate.compress(row) for _ in range(_BUDGET_HEIGHT)]
            idat = b"".join([*rows, deflate.flush()])
            made[key] = tmp_path_factory.mktemp("budget") / f"{color_type}-{bit_depth}.png"
            made[key].write_bytes(
                _png_file(_BUDGET_WIDTH, _BUDGET_HEIGHT, color_type, idat, bit_depth)
            )
        return made[key]

    return make


def _sweep_source(path):
    """run_sweep over a directory holding path as its one source."""
    (path.parent / "imgs").mkdir(exist_ok=True)
    (path.parent / "imgs" / "a.png").write_bytes(path.read_bytes())
    run_sweep(path.parent / "imgs", severity_sweep("white_box", [0.1]), path.parent / "o")


# the PNG headers a reader must reject, as (color type, bit depth, bytes
# per pixel): RGB readers get 16-bit grayscale (67 MB inflated) and RGBA
# (134 MB), the others RGB (101 MB)
_GRAY_READERS = [load_depth, load_uncertainty_map, load_pixel_ground_truth]
_WRONG_HEADERS = [
    *((reader, header) for reader in (load_image, _sweep_source) for header in ((0, 16, 2), (6, 8, 4))),
    *((reader, (2, 8, 3)) for reader in _GRAY_READERS),
]


class TestPngLayouts:
    @pytest.mark.parametrize(
        "layout, other", itertools.permutations([RGB8, GRAY8, GRAY16], 2),
        ids=lambda layout: layout.name.replace(" ", "_"),
    )
    def test_other_layout_rejected_by_name(self, tmp_path, layout, other):
        path = tmp_path / "x.png"
        write_png(path, np.zeros((2, 3, *other.pixel_shape), dtype=other.dtype))
        with pytest.raises(FormatError, match=f"expected {layout.wanted}, got {other.name}$"):
            read_png(path, layout)

    @pytest.mark.parametrize(
        "reader, header", _WRONG_HEADERS,
        ids=[f"{reader.__name__}-{header[0]}-{header[1]}" for reader, header in _WRONG_HEADERS],
    )
    def test_wrong_layout_rejected_before_inflate(self, budget_png, tmp_path, reader, header):
        path = tmp_path / "x.png"
        path.write_bytes(budget_png(*header).read_bytes())
        tracemalloc.start()
        try:
            with pytest.raises(FormatError):
                reader(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"{peak / 2**20:.1f} MiB"


class TestImageBuffer:
    def test_quantization_round_half_up(self):
        # 0.5/255 exactly at a half step must round up
        img = ImageBuffer(np.full((1, 1, 3), 0.5 / 255.0))
        assert img.to_uint8()[0, 0, 0] == 1

    def test_range_validation(self):
        with pytest.raises(ValidationError):
            ImageBuffer(np.full((2, 2, 3), 1.5))
        with pytest.raises(ValidationError):
            ImageBuffer(np.full((2, 2, 3), np.nan))

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.nan, "image contains non-finite values"),
            (np.inf, "image contains non-finite values"),
            (-np.inf, "image contains non-finite values"),
            (1.5, r"image values must lie in \[0, 1\]"),
            (-0.5, r"image values must lie in \[0, 1\]"),
        ],
    )
    def test_bad_value_messages(self, bad, message):
        pixels = np.full((3, 4, 3), 0.25)
        pixels[1, 2, 0] = bad
        with pytest.raises(ValidationError, match=message):
            ImageBuffer(pixels)
        # a non-finite value is named even beside an out-of-range one
        pixels[0, 0, 1] = 2.0 if np.isfinite(bad) else bad
        pixels[2, 3, 2] = 2.0
        with pytest.raises(ValidationError, match=message):
            ImageBuffer(pixels)

    def test_caller_arrays_are_copied(self):
        pixels = np.full((3, 4, 3), 0.25)
        img = ImageBuffer(pixels)
        pixels[:] = 0.75
        assert np.all(img.pixels == 0.25)
        levels = np.full((3, 4, 3), 51, dtype=np.uint8)
        from_levels = ImageBuffer.from_uint8(levels)
        levels[:] = 255
        assert np.all(from_levels.pixels == 0.2)
        assert not img.pixels.flags.writeable and not from_levels.pixels.flags.writeable

    def test_from_uint8_equals_float_cast_then_divide_bit_for_bit(self):
        levels = np.arange(256, dtype=np.uint8).repeat(3).reshape(16, 16, 3)
        img = ImageBuffer.from_uint8(levels)
        assert img.pixels.tobytes() == (levels.astype(float) / 255.0).tobytes()
        # any integer or float input is divided in float64
        assert ImageBuffer.from_uint8(levels.astype(np.float32)).pixels.tobytes() == (
            img.pixels.tobytes()
        )

    def test_file_round_trip(self, tmp_path):
        rng = _rng()
        img = ImageBuffer(rng.uniform(size=(6, 7, 3)))
        path = tmp_path / "img.png"
        save_image(img, path)
        again = load_image(path)
        # one 8-bit quantization step of error at most
        assert np.abs(again.pixels - img.pixels).max() <= 0.5 / 255.0

    def test_gray_png_rejected_as_image(self, tmp_path):
        path = tmp_path / "g.png"
        write_png(path, np.zeros((3, 3), dtype=np.uint8))
        with pytest.raises(FormatError):
            load_image(path)


class TestDepthMap:
    def test_round_trip_with_sidecar(self, tmp_path):
        rng = _rng()
        depth = rng.uniform(1.0, 200.0, size=(5, 4))
        valid = rng.uniform(size=(5, 4)) > 0.2
        dm = DepthMap(depth=depth, valid=valid)
        path = tmp_path / "d.png"
        save_depth(dm, path, meters_per_unit=0.01)
        again = load_depth(path)
        np.testing.assert_array_equal(again.valid, valid)
        np.testing.assert_allclose(
            again.depth[valid], depth[valid], atol=0.005 + 1e-9
        )

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "d.png"
        write_png(path, np.full((2, 2), 100, dtype=np.uint16))
        with pytest.raises(FormatError):
            load_depth(path)

    @pytest.mark.parametrize(
        "scale",
        ["true", '"0.5"', "NaN", "Infinity", "1e400", pytest.param("1" + "0" * 400, id="10**400"),
         "0", "-0.5", "null", "1e308", "2.8e303"],
    )
    def test_sidecar_scale_must_be_a_positive_finite_number(self, tmp_path, scale):
        # 65535 times 1e308 or 2.8e303 is not finite: rejected before any depth is made
        path = tmp_path / "d.png"
        write_png(path, np.full((2, 2), 100, dtype=np.uint16))
        Path(str(path) + ".json").write_text('{"meters_per_unit": %s}' % scale)
        with pytest.raises(FormatError, match="d.png.json"):
            load_depth(path)

    def test_largest_sidecar_scale_loads(self, tmp_path):
        scale = 2.7e303  # 65535 times it is 1.77e308, below the float maximum
        path = tmp_path / "d.png"
        write_png(path, np.array([[65535, 0]], dtype=np.uint16))
        Path(str(path) + ".json").write_text('{"meters_per_unit": %r}' % scale)
        dm = load_depth(path)
        assert dm.depth[0, 0] == 65535 * scale and dm.valid.tolist() == [[True, False]]

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
    def test_save_rejects_a_bad_scale(self, tmp_path, scale):
        dm = DepthMap(depth=np.full((2, 2), 5.0), valid=np.ones((2, 2), dtype=bool))
        with pytest.raises(ValidationError):
            save_depth(dm, tmp_path / "d.png", meters_per_unit=scale)
        assert not (tmp_path / "d.png").exists()

    def test_invalid_depths_rejected(self):
        with pytest.raises(ValidationError):
            DepthMap(depth=np.zeros((2, 2)), valid=np.ones((2, 2), dtype=bool))
