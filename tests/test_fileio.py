import json

import numpy as np
import pytest

from slidereg.errors import FormatError
from slidereg.fileio import read_image, read_landmarks, read_pgm, read_raw16, write_pgm
from slidereg.geometry import GridGeometry, ScalarImage


class TestPGM:
    def test_round_trip_8bit(self, tmp_path, rng):
        geom = GridGeometry((6, 9), (1.0, 1.0), (0.0, 0.0))
        img = ScalarImage(geom, rng.integers(0, 256, geom.dims).astype(float))
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        back = read_pgm(path)
        np.testing.assert_array_equal(back.values, img.values)

    def test_round_trip_16bit(self, tmp_path, rng):
        geom = GridGeometry((5, 4), (1.0, 1.0), (0.0, 0.0))
        img = ScalarImage(geom, rng.integers(0, 65536, geom.dims).astype(float))
        path = tmp_path / "img16.pgm"
        write_pgm(path, img)
        back = read_pgm(path)
        np.testing.assert_array_equal(back.values, img.values)

    def test_comments_in_header(self, tmp_path):
        raw = b"P5\n# a comment\n3 2\n255\n" + bytes(range(6))
        path = tmp_path / "c.pgm"
        path.write_bytes(raw)
        img = read_pgm(path)
        np.testing.assert_array_equal(img.values, np.arange(6).reshape(2, 3))

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(5))
        with pytest.raises(FormatError, match="truncated"):
            read_pgm(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
        with pytest.raises(FormatError, match="magic"):
            read_pgm(path)

    def test_non_integer_rejected_on_write(self, tmp_path, grid2d):
        img = ScalarImage(grid2d, np.full(grid2d.dims, 0.5))
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "x.pgm", img)


class TestRaw16:
    def _write(self, tmp_path, values, dims, spacing=(2.5, 1.0, 1.0)):
        raw = tmp_path / "vol.raw"
        raw.write_bytes(np.asarray(values, dtype="<i2").tobytes())
        meta = tmp_path / "vol.json"
        meta.write_text(json.dumps({"dims": list(dims), "spacing": list(spacing)}))
        return raw, meta

    def test_round_trip(self, tmp_path, rng):
        dims = (4, 5, 6)
        vals = rng.integers(-1200, 1200, dims)
        raw, meta = self._write(tmp_path, vals, dims)
        img = read_raw16(raw, meta)
        np.testing.assert_array_equal(img.values, vals)
        assert img.geometry.spacing == (2.5, 1.0, 1.0)

    def test_size_mismatch(self, tmp_path, rng):
        dims = (4, 5, 6)
        vals = rng.integers(0, 10, (4, 5, 5))
        raw, meta = self._write(tmp_path, vals, dims)
        with pytest.raises(FormatError, match="sidecar dims"):
            read_raw16(raw, meta)

    def test_fractional_dims_rejected(self, tmp_path):
        # [12.9, 12, 12] used to read a 12^3 file as a (12, 12, 12) volume
        raw, meta = self._write(tmp_path, np.zeros((12, 12, 12)), (12.9, 12, 12))
        with pytest.raises(FormatError, match=r"vol\.json: sidecar dims must be an integer, got 12\.9"):
            read_raw16(raw, meta)

    def test_integral_float_dims_read(self, tmp_path, rng):
        vals = rng.integers(-1200, 1200, (12, 12, 12))
        raw, meta = self._write(tmp_path, vals, (12.0, 12, 12))
        img = read_raw16(raw, meta)
        assert img.geometry.dims == (12, 12, 12)
        np.testing.assert_array_equal(img.values, vals)

    @pytest.mark.parametrize(
        "meta, message",
        [([12, 12, 12], "sidecar is not a JSON object"),
         ({"dims": 12, "spacing": [1, 1, 1]}, "sidecar 'dims' must be a list of numbers, got 12"),
         ({"dims": [12, 12, 12], "spacing": 1.0}, "sidecar 'spacing' must be a list of numbers, got 1.0"),
         ({"dims": [12, 12, 12], "spacing": [None, 1, 1]}, r"'spacing' must be a list of numbers, got \[null, 1, 1\]"),
         ({"dims": [12, 12, 12], "spacing": [True, 1, 1]}, r"'spacing' must be a list of numbers, got \[true, 1, 1\]"),
         ({"dims": [12, 12, 12], "spacing": [1, 1, 1], "origin": "0"}, "'origin' must be a list of numbers"),
         ({"dims": [12, 12], "spacing": [1, 1, 1]}, "sidecar dims, spacing, origin must have equal length"),
         ({"dims": [12, 12], "spacing": [0, 1]}, r"sidecar spacing must be finite and positive, got \(0\.0, 1\.0\)"),
         ({"dims": [144], "spacing": [1]}, "sidecar grid must be 2D or 3D, got 1 axes"),
         ({"dims": [12, 12, 12], "spacing": [1, 1, 1], "orgin": [5, 5, 5]}, r"unknown sidecar keys: \['orgin'\]")],
        ids=["not_an_object", "dims_number", "spacing_number", "spacing_null", "spacing_bool", "origin_string",
             "spacing_length", "spacing_zero", "one_axis", "unknown_key"],
    )
    def test_sidecar_types_checked(self, tmp_path, meta, message):
        # the first four used to raise TypeError, a true spacing read as 1.0, the
        # next three were bare ValueErrors naming neither the sidecar nor the key,
        # and a misspelt "origin" was ignored, reading the image at origin 0
        raw = tmp_path / "vol.raw"
        raw.write_bytes(np.zeros((12, 12, 12), "<i2").tobytes())
        (tmp_path / "vol.json").write_text(json.dumps(meta))
        with pytest.raises(FormatError, match=r"vol\.json: .*" + message):
            read_raw16(raw, tmp_path / "vol.json")

    def test_missing_key(self, tmp_path):
        raw = tmp_path / "v.raw"
        raw.write_bytes(b"\x00\x00")
        meta = tmp_path / "v.json"
        meta.write_text(json.dumps({"dims": [1, 1, 1]}))
        with pytest.raises(FormatError, match="spacing"):
            read_raw16(raw, meta)


class TestReadImage:
    def test_pgm_by_extension(self, tmp_path, rng):
        img = ScalarImage(GridGeometry((5, 7), (1.0, 1.0), (0.0, 0.0)), rng.integers(0, 256, (5, 7)).astype(float))
        write_pgm(tmp_path / "a.pgm", img)
        np.testing.assert_array_equal(read_image(tmp_path / "a.pgm").values, img.values)

    def test_sidecar_precedence(self, tmp_path, rng, write_raw16):
        vals = rng.integers(-1200, 1200, (3, 4, 5))
        raw = write_raw16(tmp_path / "vol", vals, (2.5, 1.0, 1.0))  # writes vol.json
        img = read_image(raw)  # no vol.raw.json: falls back to the stem sidecar
        np.testing.assert_array_equal(img.values, vals)
        assert img.geometry.spacing == (2.5, 1.0, 1.0)
        (tmp_path / "vol.raw.json").write_text(json.dumps({"dims": [3, 4, 5], "spacing": [3.0, 1.0, 1.0]}))
        assert read_image(raw).geometry.spacing == (3.0, 1.0, 1.0)
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"dims": [3, 4, 5], "spacing": [4.0, 1.0, 1.0]}))
        assert read_image(raw, other).geometry.spacing == (4.0, 1.0, 1.0)

    @pytest.mark.parametrize("key", ["spacing", "origin"])
    def test_non_finite_sidecar_geometry_rejected(self, tmp_path, key):
        raw = tmp_path / "vol.raw"
        raw.write_bytes(np.zeros((3, 4, 5), "<i2").tobytes())
        meta = {"dims": [3, 4, 5], "spacing": [1.0, 1.0, 1.0], "origin": [0.0, 0.0, 0.0]}
        meta[key][0] = float("nan")
        (tmp_path / "vol.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            read_image(raw)


class TestLandmarks:
    def test_read_300_one_based(self, tmp_path, rng):
        pts = rng.integers(1, 100, (300, 3))
        path = tmp_path / "lms.txt"
        path.write_text("\n".join(" ".join(str(v) for v in row) for row in pts))
        lms = read_landmarks(path, index_base=1, dims=(128, 128, 128))
        assert len(lms) == 300
        np.testing.assert_array_equal(lms.points, pts - 1.0)

    def test_zero_based_flag(self, tmp_path):
        path = tmp_path / "lms.txt"
        path.write_text("0 0\n3 4\n")
        lms = read_landmarks(path, index_base=0)
        np.testing.assert_array_equal(lms.points, [[0, 0], [3, 4]])

    def test_index_base_two_refused(self, tmp_path):
        path = tmp_path / "lms.txt"
        path.write_text("2 2\n")
        with pytest.raises(ValueError, match="index_base must be 0 or 1, got 2"):
            read_landmarks(path, index_base=2)

    def test_out_of_bounds_names_line(self, tmp_path):
        path = tmp_path / "lms.txt"
        path.write_text("2 2\n500 2\n")
        with pytest.raises(FormatError, match="line 2"):
            read_landmarks(path, index_base=1, dims=(10, 10))

    def test_out_of_bounds_names_the_file_line_past_blank_lines(self, tmp_path):
        # blank lines count: the bad point is on line 4, the second non-empty row
        path = tmp_path / "lms.txt"
        path.write_text("\n5 5\n\n40 3\n")
        with pytest.raises(FormatError, match=r"landmark on line 4 at \[40.0, 3.0\]"):
            read_landmarks(path, index_base=1, dims=(32, 32))

    def test_non_numeric_names_line(self, tmp_path):
        path = tmp_path / "lms.txt"
        path.write_text("1 2\nfoo 3\n")
        with pytest.raises(FormatError, match="line 2"):
            read_landmarks(path, index_base=1)
