"""The array value types: each holds its own read-only, C-order copy of what it is given."""

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
from camgeom.rays import EmbeddingGrid, RayGrid

K = Intrinsics(500.0, 500.0, 32.0, 24.0, 64, 48)
# every kind of invalid depth next to valid ones
EDGE_DEPTHS = np.array([[0.0, -1.0, 2.5], [np.inf, -np.inf, np.nan], [1.0, 3.0, 4.0]])


# type name -> (constructor, rng -> the caller's arrays)
BUILDERS = {
    "RasterImage": (RasterImage, lambda rng: [rng.integers(0, 256, (6, 5, 3), dtype=np.uint8)]),
    "RasterImage-2d": (RasterImage, lambda rng: [rng.random((6, 5), dtype=np.float32)]),
    "DepthMap": (DepthMap, lambda rng: [np.array([[1.0, 2.0], [3.0, -1.0]]), np.array([[True, True], [True, False]])]),
    "PointGrid": (PointGrid, lambda rng: [rng.standard_normal((3, 4, 3)), np.ones((3, 4), dtype=bool)]),
    "RayGrid": (RayGrid, lambda rng: [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))]),
    "EmbeddingGrid": (lambda data: EmbeddingGrid(data, 8, ("a", "b"), 100.0),
                      lambda rng: [rng.standard_normal((3, 4, 8))]),
}
LAYOUTS = {"c": lambda a: a, "fortran": np.asfortranarray, "strided": lambda a: np.repeat(a, 2, axis=0)[::2]}


def _held_arrays(value) -> dict:
    return {name: getattr(value, name) for name in ("data", "values", "valid", "points", "rx", "ry")
            if hasattr(value, name)}


def _library_values():
    """One value of each type as the library's own functions return them."""
    rng = np.random.default_rng(3)
    values = rng.uniform(1, 5, (48, 64))
    values[::7, ::5] = np.nan
    depth = DepthMap.from_array(values)
    t = PixelTransform(1.13, 1.13, 3.2, -2.7, 70, 50)
    grid = TokenGridSpec.cover(K, 14.0)
    points = token_point_grid(depth, K, grid)
    rays = ray_grid(K, grid)
    return {
        "resample-uint8": resample(RasterImage(rng.integers(0, 256, (48, 64, 3), dtype=np.uint8)), t),
        "resample-float32": resample(RasterImage(rng.random((48, 64, 3), dtype=np.float32)), t, mode="pad"),
        "resample_depth": resample_depth(depth, t),
        "DepthMap.from_array": depth,
        "token_point_grid": points,
        "ray_grid": rays,
        "embed": embed(rays, K, dim=16),
        "embed_points": embed_points(points, dim=12),
    }


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
