"""The array value types: each holds a read-only, C-order copy of what a caller gives it, and the
library's own functions hand over the arrays they make, frozen in place and aliasing nothing."""

import hashlib

import numpy as np
import pytest

from camgeom import (
    DepthMap,
    Intrinsics,
    PixelTransform,
    RasterImage,
    TokenGridSpec,
    embed,
    embed_points,
    ray_grid,
    resample,
    resample_depth,
    token_point_grid,
)
from camgeom.depthmap import PointGrid
from camgeom.fileio import read_depth, sidecar_path, write_depth
from camgeom.rays import EmbeddingGrid, RayGrid, _adopt

K = Intrinsics(500.0, 500.0, 32.0, 24.0, 64, 48)
# every kind of invalid depth next to valid ones
EDGE_DEPTHS = np.array([[0.0, -1.0, 2.5], [np.inf, -np.inf, np.nan], [1.0, 3.0, 4.0]])


# type name -> (constructor, rng -> the caller's arrays)
BUILDERS = {
    "RasterImage": (RasterImage, lambda rng: [rng.integers(0, 256, (6, 5, 3), dtype=np.uint8)]),
    "RasterImage-2d": (RasterImage, lambda rng: [rng.random((6, 5), dtype=np.float32)]),
    "DepthMap": (DepthMap, lambda rng: [np.array([[1.0, 2.0], [3.0, np.nan]])]),
    "PointGrid": (PointGrid,  # a quarter of the tokens invalid: three NaN
                  lambda rng: [np.where(rng.random((3, 4, 1)) < 0.25, np.nan, rng.standard_normal((3, 4, 3)))]),
    "RayGrid": (RayGrid, lambda rng: [rng.standard_normal(4), rng.standard_normal(3)]),
    "EmbeddingGrid": (lambda data: EmbeddingGrid(data, ("a", "b")),
                      lambda rng: [rng.standard_normal((3, 4, 8))]),
}
LAYOUTS = {"c": lambda a: a, "fortran": np.asfortranarray, "strided": lambda a: np.repeat(a, 2, axis=0)[::2]}


def _held_arrays(value) -> dict:
    return {name: getattr(value, name) for name in ("data", "values", "valid", "points", "rx", "ry")
            if hasattr(value, name)}


def _library_calls():
    """One value of each type as the library's own functions return them, with the arrays it was made from."""
    rng = np.random.default_rng(3)
    values = rng.uniform(1, 5, (48, 64))
    values[::7, ::5] = np.nan
    depth = DepthMap.from_array(values)
    t = PixelTransform(1.13, 1.13, 3.2, -2.7, 70, 50)
    grid = TokenGridSpec.cover(K, 14.0)
    points = token_point_grid(depth, K, grid)
    rays = ray_grid(K, grid)
    uint8 = RasterImage(rng.integers(0, 256, (48, 64, 3), dtype=np.uint8))
    float32 = RasterImage(rng.random((48, 64, 3), dtype=np.float32))
    return {
        "resample-uint8": (resample(uint8, t), [uint8.data]),
        "resample-float32": (resample(float32, t, mode="pad"), [float32.data]),
        "resample_depth": (resample_depth(depth, t), [depth.values, depth.valid]),
        "DepthMap.from_array": (depth, [values]),
        "token_point_grid": (points, [depth.values, depth.valid]),
        "ray_grid": (rays, []),
        "embed": (embed(rays, K, dim=16), [rays.rx, rays.ry]),
        "embed_points": (embed_points(points, dim=12), [points.points, points.valid]),
        "embed-float32": (embed(rays, K, dim=16, dtype=np.float32), [rays.rx, rays.ry]),
        "embed_points-float32": (embed_points(points, dim=12, dtype=np.float32), [points.points, points.valid]),
    }


def _library_values():
    """One value of each type as the library's own functions return them."""
    return {name: value for name, (value, _) in _library_calls().items()}


class TestValueTypes:
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_caller_mutation_does_not_reach_the_value(self, name):
        build, arrays = BUILDERS[name]
        inputs = arrays(np.random.default_rng(0))
        value = build(*inputs)
        before = {key: array.copy() for key, array in _held_arrays(value).items()}
        for array in inputs:
            array[...] = ~array if array.dtype == bool else 0
        for key, array in _held_arrays(value).items():
            np.testing.assert_array_equal(array, before[key], err_msg=key)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_built_values_hold_read_only_c_order_arrays(self, name, layout):
        build, arrays = BUILDERS[name]
        value = build(*[LAYOUTS[layout](a) for a in arrays(np.random.default_rng(0))])
        for key, array in _held_arrays(value).items():
            assert not array.flags.writeable, key
            assert array.flags.c_contiguous, key

    @pytest.mark.parametrize("name", sorted(_library_values()))
    def test_returned_values_hold_read_only_c_order_arrays(self, name):
        for key, array in _held_arrays(_library_values()[name]).items():
            assert not array.flags.writeable, key
            assert array.flags.c_contiguous, key


def test_an_embedding_layout_may_be_any_collection_of_names():
    grid = EmbeddingGrid(np.zeros((2, 2, 4)), (name for name in ("a", "b")))
    assert grid.layout == ("a", "b") and grid.dim == 4


class TestEmbeddingDtype:
    """An embedding holds float32 data as float32, so the CLI's float32 tensors are not widened; any other
    dtype becomes float64."""

    def test_a_callers_float32_data_is_held_as_a_float32_copy(self):
        data = np.random.default_rng(0).standard_normal((2, 3, 4)).astype(np.float32)
        grid = EmbeddingGrid(data, ("a", "b"))
        assert grid.data.dtype == np.float32 and grid.data.tobytes() == data.tobytes()
        assert not np.shares_memory(grid.data, data)

    @pytest.mark.parametrize("dtype", [np.float16, np.int32, np.uint8, np.float64])
    def test_other_data_becomes_float64(self, dtype):
        data = np.arange(24).reshape(2, 3, 4).astype(dtype)
        grid = EmbeddingGrid(data, ("a", "b"))
        assert grid.data.dtype == np.float64
        np.testing.assert_array_equal(grid.data, data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_adopted_data_is_not_copied(self, dtype):
        data = np.zeros((2, 3, 4), dtype)
        grid = _adopt(EmbeddingGrid, data, ("a", "b"), {})
        assert grid.data is data and not data.flags.writeable


class TestAdoptedArrays:
    """The library hands the arrays it makes to its values without a copy; none may alias an input or each other."""

    @pytest.mark.parametrize("name", sorted(_library_calls()))
    def test_returned_arrays_share_no_memory_with_their_inputs(self, name):
        value, inputs = _library_calls()[name]
        held = list(_held_arrays(value).values())
        for i, array in enumerate(held):
            for other in inputs + held[:i]:
                assert not np.shares_memory(array, other), name

    def test_adopt_takes_one_value_per_init_field(self):
        with pytest.raises(ValueError, match="shorter"):  # no meta
            _adopt(EmbeddingGrid, np.zeros((1, 1, 8)), ("a", "b"))
        for cls, values in ((DepthMap, np.ones((2, 2))), (PointGrid, np.ones((2, 2, 3)))):
            with pytest.raises(ValueError, match="longer"):  # each derives its mask
                _adopt(cls, values, np.ones((2, 2), bool))

    def test_read_depth_holds_its_own_read_only_c_order_arrays(self, tmp_path):
        written = DepthMap.from_array(EDGE_DEPTHS)
        write_depth(tmp_path / "d.cgem", written)
        depth, _ = read_depth(tmp_path / "d.cgem")
        assert not np.shares_memory(depth.values, depth.valid)
        for array in (depth.values, depth.valid):
            assert not array.flags.writeable and array.flags.c_contiguous
            assert not np.shares_memory(array, written.values) and not np.shares_memory(array, written.valid)

    def test_from_array_leaves_the_callers_array_unchanged(self):
        values = EDGE_DEPTHS.copy()  # C-order float64, so a conversion would need no copy
        assert values.flags.c_contiguous and values.dtype == np.float64
        before = values.tobytes()
        depth = DepthMap.from_array(values)
        assert values.tobytes() == before and values.flags.writeable
        assert not np.shares_memory(depth.values, values)


class TestDepthNaNRule:
    def test_invalid_pixels_hold_nan(self):
        depth = DepthMap.from_array(EDGE_DEPTHS)
        np.testing.assert_array_equal(np.isnan(depth.values), ~depth.valid)
        np.testing.assert_array_equal(depth.values[depth.valid], [2.5, 1.0, 3.0, 4.0])

    def test_depth_file_round_trip_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "d.cgem"
        write_depth(path, DepthMap.from_array(EDGE_DEPTHS), Intrinsics(500, 500, 1.5, 1.5, 3, 3))
        back, _ = read_depth(path)
        digests = [hashlib.sha256(blob).hexdigest()[:16] for blob in (
            path.read_bytes(), sidecar_path(path).read_bytes(), back.values.tobytes(), back.valid.tobytes())]
        assert digests == PINNED_DEPTH_DIGESTS


# CGEM file, sidecar, read-back values and mask
PINNED_DEPTH_DIGESTS = ["e51355f9c82da632", "8c31e62a3438f5d0", "f26e57e8f2462f78", "2a34d6ae62b87445"]
