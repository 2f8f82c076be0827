"""PNG codec and container validation tests."""

import math
import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornercase.errors import FormatError, ValidationError
from cornercase.images import (
    DepthMap,
    ImageBuffer,
    load_depth,
    load_image,
    read_png,
    save_depth,
    save_image,
    write_png,
)


def _rng():
    return np.random.default_rng(42)


class TestPngRoundTrip:
    def test_rgb8(self, tmp_path):
        arr = _rng().integers(0, 256, size=(13, 17, 3), dtype=np.uint8)
        path = tmp_path / "img.png"
        write_png(path, arr)
        np.testing.assert_array_equal(read_png(path), arr)

    def test_gray8(self, tmp_path):
        arr = _rng().integers(0, 256, size=(9, 5), dtype=np.uint8)
        path = tmp_path / "img.png"
        write_png(path, arr)
        np.testing.assert_array_equal(read_png(path), arr)

    def test_gray16(self, tmp_path):
        arr = _rng().integers(0, 65536, size=(7, 11), dtype=np.uint16)
        path = tmp_path / "img.png"
        write_png(path, arr)
        decoded = read_png(path)
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
    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 2), (6, 13), (13, 6), (24, 36), (36, 24)])
    def test_mixed_filters_equal_source_and_loop_reference(self, tmp_path, layout, shape):
        rng = np.random.default_rng([LAYOUTS.index(layout), *shape])
        path = tmp_path / "f.png"
        for _ in range(4):
            arr = _random_image(layout, shape, rng)
            filters = rng.integers(0, 5, size=shape[0]).tolist()
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
        # here. Sized by the shorter side it is 4 bytes per pixel byte;
        # the inflated rows, the per-row filter masks and the output add
        # about 12 bytes per row.
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


class TestDeflateFromPrefix:
    # A white-box sweep deflates a source's rows once and finishes each
    # output from a copy of that compressor taken at its box's top; the
    # writer relies on zlib giving the bytes of one compress call that way.
    @given(
        seed=st.integers(0, 2**32 - 1),
        height=st.integers(1, 24),
        row_bytes=st.integers(1, 2000),
        levels=st.sampled_from([1, 3, 256]),
    )
    @settings(max_examples=20, deadline=None)
    def test_prefix_copy_then_suffix_equals_one_compress(self, seed, height, row_bytes, levels):
        rows = np.random.default_rng(seed).integers(0, levels, (height, row_bytes), dtype=np.uint8)
        want = zlib.compress(rows, 6)
        # one live compressor, copied at every split before it goes on
        compressor, head, copies = zlib.compressobj(6), b"", []
        for split in range(height + 1):
            copies.append((head, compressor.copy()))
            if split < height:
                head += compressor.compress(rows[split])
        for split, (prefix, copy) in enumerate(copies):
            assert prefix + copy.compress(rows[split:]) + copy.flush() == want, split


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

    def test_unsupported_dtype(self, tmp_path):
        with pytest.raises(ValidationError):
            write_png(tmp_path / "x.png", np.zeros((4, 4), dtype=np.float64))


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
         "0", "-0.5", "null"],
    )
    def test_sidecar_scale_must_be_a_positive_finite_number(self, tmp_path, scale):
        path = tmp_path / "d.png"
        write_png(path, np.full((2, 2), 100, dtype=np.uint16))
        Path(str(path) + ".json").write_text('{"meters_per_unit": %s}' % scale)
        with pytest.raises(FormatError, match="d.png.json"):
            load_depth(path)

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
    def test_save_rejects_a_bad_scale(self, tmp_path, scale):
        dm = DepthMap(depth=np.full((2, 2), 5.0), valid=np.ones((2, 2), dtype=bool))
        with pytest.raises(ValidationError):
            save_depth(dm, tmp_path / "d.png", meters_per_unit=scale)
        assert not (tmp_path / "d.png").exists()

    def test_invalid_depths_rejected(self):
        with pytest.raises(ValidationError):
            DepthMap(depth=np.zeros((2, 2)), valid=np.ones((2, 2), dtype=bool))
