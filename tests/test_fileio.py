"""CGEM tensor, PPM raster, and intrinsics JSON round trips; atomic writes."""

import os
import stat

import numpy as np
import pytest

from camgeom import DepthMap, Intrinsics
from camgeom.augment import RasterImage
from camgeom.errors import MalformedFile
from camgeom.fileio import (
    _open_atomic,
    read_cgem,
    read_depth,
    read_ppm,
    read_sidecar,
    load_intrinsics,
    save_intrinsics,
    sidecar_path,
    write_cgem,
    write_depth,
    write_json,
    write_ppm,
    write_sidecar,
)
from camgeom.rays import _adopt


class TestCgem:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((5, 7, 3)).astype(np.float32)
        path = tmp_path / "grid.cgem"
        write_cgem(path, data)
        np.testing.assert_array_equal(read_cgem(path), data)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "t.cgem"
        write_cgem(path, np.zeros((2, 3, 4), dtype=np.float32))
        raw = path.read_bytes()
        assert raw[:4] == b"CGEM"
        assert np.frombuffer(raw[4:16], dtype="<u4").tolist() == [2, 3, 4]
        assert len(raw) == 16 + 2 * 3 * 4 * 4

    def test_two_dim_input_gets_dim_one(self, tmp_path):
        path = tmp_path / "d.cgem"
        write_cgem(path, np.ones((4, 6)))
        assert read_cgem(path).shape == (4, 6, 1)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.cgem"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(ValueError, match="magic"):
            read_cgem(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.cgem"
        write_cgem(path, np.zeros((2, 2, 1), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ValueError, match="payload"):
            read_cgem(path)

    def test_read_is_a_read_only_view_that_a_raster_keeps(self, tmp_path):
        data = np.random.default_rng(3).random((4, 5, 3), dtype=np.float32)
        write_cgem(tmp_path / "img.cgem", data)
        read = read_cgem(tmp_path / "img.cgem")
        assert read.dtype == np.float32 and not read.flags.writeable
        np.testing.assert_array_equal(read, data)
        assert np.shares_memory(_adopt(RasterImage, read).data, read)  # as the CLI loads a .cgem image

    def test_finite_value_past_float32_is_rejected_before_writing(self, tmp_path):
        # a float32 cast would turn it into inf; inf and NaN themselves are written as they are
        with pytest.raises(MalformedFile, match="float32 range"):
            write_cgem(tmp_path / "big.cgem", np.array([[1.0, np.inf, 3.5e38]]))
        assert list(tmp_path.iterdir()) == []
        write_cgem(tmp_path / "ok.cgem", np.array([[np.nan, -np.inf, 3.4e38]]))
        np.testing.assert_array_equal(read_cgem(tmp_path / "ok.cgem")[0, :, 0], np.float32([np.nan, -np.inf, 3.4e38]))

    def test_sidecar_round_trip(self, tmp_path):
        path = tmp_path / "g.cgem"
        write_cgem(path, np.zeros((1, 1, 8), dtype=np.float32))
        write_sidecar(path, {"kind": "test", "base_period": 10000.0})
        assert read_sidecar(path)["kind"] == "test"


class TestDepthFile:
    def test_round_trip_with_invalid_pixels(self, tmp_path):
        values = np.array([[1.5, np.nan], [2.25, 4.0]])
        depth = DepthMap.from_array(values)
        k = Intrinsics(500, 500, 1, 1, 2, 2)
        path = tmp_path / "d.cgem"
        write_depth(path, depth, k)
        back, back_k = read_depth(path)
        np.testing.assert_array_equal(back.valid, depth.valid)
        np.testing.assert_array_equal(back.values[back.valid], values[depth.valid].astype(np.float32))
        assert back_k == k

    def test_sidecar_intrinsics_optional(self, tmp_path):
        path = tmp_path / "d.cgem"
        write_depth(path, DepthMap.from_array(np.ones((2, 2))))
        _, k = read_depth(path)
        assert k is None


class TestPpm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        image = rng.integers(0, 256, size=(10, 14, 3), dtype=np.uint8)
        path = tmp_path / "img.ppm"
        write_ppm(path, image)
        np.testing.assert_array_equal(read_ppm(path), image)

    def test_header_is_plain_p6(self, tmp_path):
        path = tmp_path / "img.ppm"
        write_ppm(path, np.zeros((2, 3, 3), dtype=np.uint8))
        assert path.read_bytes().startswith(b"P6\n3 2\n255\n")

    def test_comment_lines_tolerated(self, tmp_path):
        path = tmp_path / "img.ppm"
        body = bytes(range(18))
        path.write_bytes(b"P6\n# made by hand\n3 2\n255\n" + body)
        image = read_ppm(path)
        assert image.shape == (2, 3, 3)
        assert image.tobytes() == body

    def test_read_is_a_read_only_view_that_a_raster_keeps(self, tmp_path):
        image = np.random.default_rng(4).integers(0, 256, size=(3, 4, 3), dtype=np.uint8)
        write_ppm(tmp_path / "img.ppm", image)
        read = read_ppm(tmp_path / "img.ppm")
        assert read.dtype == np.uint8 and not read.flags.writeable
        np.testing.assert_array_equal(read, image)
        assert np.shares_memory(_adopt(RasterImage, read).data, read)  # as the CLI loads a .ppm image

    @pytest.mark.parametrize("raw", [b"P6\n3 2\n255\n" + bytes(17), b"P6\n1 1\n255", b"P6 1 1 255\n"])
    def test_truncated_pixel_data_rejected(self, tmp_path, raw):
        (tmp_path / "img.ppm").write_bytes(raw)
        with pytest.raises(MalformedFile, match="truncated pixel data"):
            read_ppm(tmp_path / "img.ppm")

    def test_bytes_past_the_pixel_data_are_ignored(self, tmp_path):
        (tmp_path / "img.ppm").write_bytes(b"P6\n1 1\n255\n" + bytes([1, 2, 3, 4]))
        assert read_ppm(tmp_path / "img.ppm").tolist() == [[[1, 2, 3]]]

    def test_rejects_wrong_dtype(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(tmp_path / "x.ppm", np.zeros((2, 2, 3), dtype=np.float32))


class TestIntrinsicsFile:
    def test_round_trip(self, tmp_path):
        k = Intrinsics(581.25, 580.0, 319.5, 239.5, 640, 480)
        path = tmp_path / "k.json"
        save_intrinsics(path, k)
        assert load_intrinsics(path) == k

    def test_error_names_the_file(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text('{"fx": 1, "fy": 1, "cx": 0, "cy": 0, "width": 0, "height": 1}')
        with pytest.raises(Exception, match="k.json"):
            load_intrinsics(path)


class TestAtomicWrites:
    """Every writer goes through one temporary file that is renamed over its target."""

    WRITERS = {
        "cgem": lambda path: write_cgem(path, np.ones((2, 3, 1))),
        "ppm": lambda path: write_ppm(path, np.zeros((2, 3, 3), dtype=np.uint8)),
        "json": lambda path: write_json(path, {"a": 1}),
        "intrinsics": lambda path: save_intrinsics(path, Intrinsics(5.0, 5.0, 1.0, 1.0, 2, 2)),
    }

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_file_mode_is_the_one_open_gives(self, tmp_path, kind):
        reference = tmp_path / "reference"
        with open(reference, "w"):
            pass
        self.WRITERS[kind](tmp_path / "target")
        assert stat.S_IMODE(os.stat(tmp_path / "target").st_mode) == stat.S_IMODE(os.stat(reference).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["reference", "target"]

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_name_too_long_names_the_target_and_leaves_nothing(self, tmp_path, kind):
        target = tmp_path / ("x" * 300)
        with pytest.raises(OSError) as info:
            self.WRITERS[kind](target)
        assert info.value.filename == str(target)
        assert list(tmp_path.iterdir()) == []

    def test_block_that_raises_keeps_the_old_file(self, tmp_path):
        target = tmp_path / "t.bin"
        target.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with _open_atomic(target) as fh:
                fh.write(b"partial")
                raise RuntimeError("interrupted")
        assert target.read_bytes() == b"old"
        assert list(tmp_path.iterdir()) == [target]

    def test_replaces_an_existing_file(self, tmp_path):
        target = tmp_path / "t.txt"
        target.write_text("a much longer earlier text")
        with _open_atomic(target, "w") as fh:
            fh.write("new")
        assert target.read_text() == "new"

    def test_array_bytes_are_written_as_they_lie_in_memory(self, tmp_path):
        data = np.arange(24, dtype=np.uint8).reshape(2, 4, 3)[:, ::2]  # strided view
        write_ppm(tmp_path / "s.ppm", data)
        assert (tmp_path / "s.ppm").read_bytes() == b"P6\n2 2\n255\n" + np.ascontiguousarray(data).tobytes()
        write_cgem(tmp_path / "s.cgem", np.zeros((0, 3, 2)))
        assert len((tmp_path / "s.cgem").read_bytes()) == 16


class TestJsonErrors:
    def test_sidecar_that_is_not_json_names_its_file(self, tmp_path):
        sidecar_path(tmp_path / "d.cgem").write_text("{nope")
        with pytest.raises(MalformedFile, match="d.cgem.json: invalid JSON"):
            read_sidecar(tmp_path / "d.cgem")
