"""PNG codec and container validation tests."""

import struct
import zlib

import numpy as np
import pytest

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


def _encode_with_filters(arr: np.ndarray, filters: list) -> bytes:
    """Independent minimal PNG encoder applying a chosen filter per row.

    Exercises the decoder against scanline filters our own writer never
    emits (Sub, Up, Average, Paeth).
    """

    def paeth(a, b, c):
        p = a + b - c
        pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
        if pa <= pb and pa <= pc:
            return a
        if pb <= pc:
            return b
        return c

    h, w, _ = arr.shape
    bpp = 3
    stride = w * bpp
    flat = arr.reshape(h, stride).astype(int)
    out = bytearray()
    prior = [0] * stride
    for r in range(h):
        ftype = filters[r % len(filters)]
        out.append(ftype)
        line = flat[r].tolist()
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
                enc = line[i] - paeth(left, prior[i], upleft)
            out.append(enc & 0xFF)
        prior = line

    return _png_file(w, h, 2, zlib.compress(bytes(out)))


def _png_file(width, height, color_type, idat):
    """PNG bytes for an 8-bit image with the given raw IDAT payload."""

    def chunk(ctype, payload):
        return (
            struct.pack(">I", len(payload))
            + ctype
            + payload
            + struct.pack(">I", zlib.crc32(ctype + payload) & 0xFFFFFFFF)
        )

    ihdr = struct.pack(">IIBBBBB", width, height, 8, color_type, 0, 0, 0)
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", idat)
        + chunk(b"IEND", b"")
    )


class TestPngFilters:
    @pytest.mark.parametrize("filters", [[0], [1], [2], [3], [4], [0, 1, 2, 3, 4]])
    def test_all_filter_types_decode(self, tmp_path, filters):
        arr = _rng().integers(0, 256, size=(10, 8, 3), dtype=np.uint8)
        path = tmp_path / "f.png"
        path.write_bytes(_encode_with_filters(arr, filters))
        np.testing.assert_array_equal(read_png(path), arr)


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

    def test_invalid_depths_rejected(self):
        with pytest.raises(ValidationError):
            DepthMap(depth=np.zeros((2, 2)), valid=np.ones((2, 2), dtype=bool))
