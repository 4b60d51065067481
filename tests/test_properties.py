"""Property tests: the pinhole core (unprojection, the resize rule, ray
preservation), resampling against per-pixel oracles, at the ends of the float
range and banded against the whole-frame formula, oriented-box IoU (symmetry, rigid
invariance, bit-for-bit invariance under exact translation and power-of-two
scaling, the clipper against the closed form, a closed mesh after every clip,
aabb_iou on zero angles),
float32 token tensors as the float64 ones rounded once,
the input parsers (every input parses or raises CamGeomError, nothing
else) and the CLI's error contract (every command, one input corrupted).

Derandomized with no example database by default, so every run draws the same
cases; ``conftest.py`` defines that profile and a ``sweep`` one, and keeps
Hypothesis's remaining cache out of the checkout.
"""

import contextlib
import dataclasses
import functools
import io
import json
import math
import struct
import tempfile
import warnings
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from camgeom import boxes
from camgeom.augment import _BAND_ROWS, RasterImage, resample, resample_depth
from camgeom.boxes import OrientedBox3, aabb_iou, clipped_intersection_volume, intersection_volume, iou3d
from camgeom.camera import Intrinsics, project_array, unproject_array
from camgeom.cli import DEFAULTS, main
from camgeom.depthmap import DEFAULT_GEO_PERIOD, DepthMap, PointGrid, embed_points, unproject
from camgeom.errors import BadDimension, CamGeomError, InvalidValue, NonPositiveDepth
from camgeom.evaluation import _balanced_objects, parse_detections
from camgeom.fileio import read_cgem, read_ppm, save_intrinsics, write_cgem, write_depth, write_ppm
from camgeom.rays import DEFAULT_BASE_PERIOD, DEFAULT_FOCAL_REFERENCE, RayGrid, embed, sinusoid_features
from camgeom.transforms import PixelTransform, apply_transform, ray_preservation_check, scale
from oracles import band_resample, bilinear_oracle, ix_depth_resample, nearest_depth_oracle, random_box
from oracles import whole_frame_resample

SETTINGS = settings()  # the loaded profile: derandomized unless --hypothesis-profile=sweep (conftest.py)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, allow_subnormal=False)


@st.composite
def intrinsics(draw):
    width = draw(st.integers(1, 4096))
    height = draw(st.integers(1, 4096))
    # principal points at 0 or at least 1e-3 px from it: the relative round-trip
    # bound below is meaningless for values that scaling pushes toward subnormals
    def principal(extent):
        return _floats(-extent, 2 * extent).filter(lambda c: c == 0 or abs(c) >= 1e-3)

    return Intrinsics(draw(_floats(50, 5000)), draw(_floats(50, 5000)),
                      draw(principal(width)), draw(principal(height)), width, height)


@SETTINGS
@given(intrinsics(), st.lists(st.tuples(_floats(0, 1), _floats(0, 1), _floats(1e-3, 1e4)), min_size=1, max_size=16))
def test_project_inverts_unproject(k, samples):
    fu, fv, z = (np.array(c) for c in zip(*samples))
    u, v = fu * k.width, fv * k.height
    uv = project_array(unproject_array(u, v, z, k), k)
    assert np.max(np.abs(uv - np.stack([u, v], axis=-1))) <= 1e-9


@SETTINGS
@given(intrinsics(), _floats(1 / 64, 64))
def test_scale_round_trip(k, s):
    back = scale(scale(k, s), 1 / s)
    for name in ("fx", "fy", "cx", "cy"):
        assert math.isclose(getattr(back, name), getattr(k, name), rel_tol=1e-12, abs_tol=0.0), name


@SETTINGS
@given(intrinsics(), _floats(0.05, 20), _floats(0.05, 20), _floats(-5000, 5000), _floats(-5000, 5000),
       st.integers(1, 8192), st.integers(1, 8192))
def test_consistent_update_preserves_rays(k, sx, sy, du, dv, out_width, out_height):
    t = PixelTransform(sx, sy, du, dv, out_width, out_height)
    assert ray_preservation_check(k, t, samples=16) < 1e-9


@SETTINGS
@given(intrinsics(), _floats(0.05, 20), _floats(0.05, 20), _floats(-5000, 5000), _floats(-5000, 5000))
def test_updated_principal_point_is_the_transformed_one(k, sx, sy, du, dv):
    # the intrinsics update and the pixel map are one rule: (cx, cy) -> (sx*cx - du, sy*cy - dv)
    t = PixelTransform(sx, sy, du, dv, 8, 8)
    updated, (cx, cy) = apply_transform(k, t), t.apply(k.cx, k.cy)
    assert (updated.cx.hex(), updated.cy.hex()) == (float(cx).hex(), float(cy).hex())
    assert (updated.cx.hex(), updated.cy.hex()) == ((sx * k.cx - du).hex(), (sy * k.cy - dv).hex())


@st.composite
def resample_cases(draw):
    """A small seeded source (uint8 or float32 raster, depth with holes) and a
    transform valid for the drawn mode: any window in pad mode, a window
    inside the scaled source in crop mode."""
    height, width = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    mode = draw(st.sampled_from(["pad", "crop"]))
    dtype = draw(st.sampled_from([np.uint8, np.float32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (height, width, draw(st.sampled_from([1, 3])))
    data = rng.integers(0, 256, size=shape, dtype=np.uint8) if dtype == np.uint8 else rng.random(shape, dtype=np.float32)
    depth = rng.uniform(0.5, 20.0, size=(height, width))
    depth[rng.random((height, width)) < 0.2] = np.nan
    if mode == "pad":
        sx, sy = draw(_floats(0.2, 5)), draw(_floats(0.2, 5))
        t = PixelTransform(sx, sy, draw(_floats(-20, 20)), draw(_floats(-20, 20)),
                           draw(st.integers(1, 16)), draw(st.integers(1, 16)))
    else:
        sx, sy = draw(_floats(1.0 / width, 5)), draw(_floats(1.0 / height, 5))
        out_w = draw(st.integers(1, max(1, math.floor(sx * width))))
        out_h = draw(st.integers(1, max(1, math.floor(sy * height))))
        t = PixelTransform(sx, sy, draw(_floats(0, max(0.0, sx * width - out_w))),
                           draw(_floats(0, max(0.0, sy * height - out_h))), out_w, out_h)
    return RasterImage(data), DepthMap.from_array(depth), t, mode


@SETTINGS
@given(resample_cases())
def test_resample_matches_per_pixel_oracle(case):
    image, _, t, mode = case
    out = resample(image, t, mode).data
    expected = bilinear_oracle(image.data, t, mode)
    assert out.dtype == image.data.dtype
    if out.dtype == np.uint8:
        rounded = np.clip(np.rint(expected), 0, 255)
        assert np.max(np.abs(out.astype(np.float64) - rounded)) <= 1
    else:
        np.testing.assert_allclose(out, expected, rtol=1e-6, atol=1e-7)
    if mode == "pad":
        # both taps of a column (row) outside the source: nothing to blend but the pad value
        x = (np.arange(t.out_width) + 0.5 + t.du) / t.sx - 0.5
        y = (np.arange(t.out_height) + 0.5 + t.dv) / t.sy - 0.5
        assert not out[:, (np.floor(x) + 1 < 0) | (np.floor(x) >= image.width)].any()
        assert not out[(np.floor(y) + 1 < 0) | (np.floor(y) >= image.height)].any()


@SETTINGS
@given(resample_cases())
def test_resample_depth_matches_per_pixel_oracle(case):
    _, depth, t, _ = case
    out = resample_depth(depth, t)
    values, valid = nearest_depth_oracle(depth.values, depth.valid, t)
    np.testing.assert_array_equal(out.valid, valid)
    np.testing.assert_array_equal(out.values, values)  # NaN where invalid, on both sides


# any small 2-D float64 array: NaN, +-inf, signed zeros, subnormals and the largest floats too
_ANY_DEPTHS = arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=5), elements=st.floats())
_PAD = st.builds(PixelTransform, _floats(0.2, 5), _floats(0.2, 5), _floats(-8, 8), _floats(-8, 8),
                 st.integers(1, 8), st.integers(1, 8))
_SHIFT = PixelTransform(1.0, 1.0, 0.5, -1.0, 3, 2)


@SETTINGS
@given(_ANY_DEPTHS, _PAD)
@example(np.array([[-0.0, 1.0]]), _SHIFT)
@example(np.array([[np.inf, 2.0]]), _SHIFT)
@example(np.array([[5e-324, 1e308]]), _SHIFT)
@example(np.full((2, 3), np.nan), _SHIFT)
@example(np.array([[-np.nan, 1.0]]), _SHIFT)  # a caller's NaN of another bit pattern
@example(np.ones((0, 3)), _SHIFT)
def test_a_depth_map_holds_nan_exactly_where_invalid(a, t):
    # explicit examples: which constants a derandomized draw mines depends on the modules collected
    if not a.size:  # a map with no pixel is rejected where it enters, so no sampler meets one
        for build in (DepthMap, DepthMap.from_array):
            with pytest.raises(BadDimension):
                build(a)
        return
    valid = np.isfinite(a) & (a > 0)
    depth = DepthMap.from_array(a)
    np.testing.assert_array_equal(depth.valid, valid)
    assert depth.values[valid].tobytes() == a[valid].tobytes() and np.isnan(depth.values[~valid]).all()
    if (~np.isnan(a) & ~valid).any():
        with pytest.raises(NonPositiveDepth):
            DepthMap(a)
    else:
        assert DepthMap(a).values.tobytes() == depth.values.tobytes()
    out = resample_depth(depth, t)
    np.testing.assert_array_equal(out.valid, ~np.isnan(out.values))


@st.composite
def extreme_transforms(draw):
    """A small source with no zero pixel and every depth valid, and a transform at the ends of the
    float range: scales 2^+-1000 and shifts up to +-1e300, so a source coordinate may pass any int."""
    height, width = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    image = RasterImage(rng.integers(1, 256, size=(height, width, 3), dtype=np.uint8))
    depth = DepthMap.from_array(rng.uniform(0.5, 20.0, size=(height, width)))
    scales = st.integers(-1000, 1000).map(lambda p: 2.0**p)
    shifts = st.floats(-1e300, 1e300, allow_nan=False)
    t = PixelTransform(draw(scales), draw(scales), draw(shifts), draw(shifts),
                       draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    return image, depth, t


_FAR = (RasterImage(np.full((2, 3, 3), 9, np.uint8)), DepthMap.from_array(np.ones((2, 3))),
        PixelTransform(2.0**-1000, 2.0**1000, 1e300, -1e300, 4, 4))


@SETTINGS
@given(extreme_transforms())
@example(_FAR)
@example((_FAR[0], _FAR[1], PixelTransform(2.0**-1000, 2.0**-1000, -1e300, 0.0, 4, 4)))
def test_pad_resample_at_the_ends_of_the_float_range(case):
    image, depth, t = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = resample(image, t).data
        out_depth = resample_depth(depth, t)
    with np.errstate(over="ignore"):  # a center's source coordinate may be +-inf
        u = (np.arange(t.out_width) + 0.5 + t.du) / t.sx
        v = (np.arange(t.out_height) + 0.5 + t.dv) / t.sy
    assert out.shape == (t.out_height, t.out_width, 3)
    assert out_depth.values.shape == (t.out_height, t.out_width)
    # more than half a pixel outside, both bilinear taps are outside: only the pad value
    assert not out[:, (u < -0.5) | (u >= image.width + 0.5)].any()
    assert not out[(v < -0.5) | (v >= image.height + 0.5)].any()
    # a depth pixel is valid exactly where its center falls inside the (all-valid) source
    inside = ((v >= 0) & (v < depth.height))[:, None] & ((u >= 0) & (u < depth.width))[None, :]
    np.testing.assert_array_equal(out_depth.valid, inside)


@st.composite
def band_edge_cases(draw):
    """A seeded raster and a transform whose output height sits at a band edge of
    resample: one row, a band less or more one row, one band, or several bands."""
    out_h = draw(st.sampled_from([1, max(1, _BAND_ROWS - 1), _BAND_ROWS, _BAND_ROWS + 1])
                 | st.integers(2 * _BAND_ROWS, 5 * _BAND_ROWS + 3))
    height, width = draw(st.integers(1, 40)), draw(st.integers(1, 24))
    mode = draw(st.sampled_from(["pad", "crop"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (height, width, draw(st.sampled_from([1, 3])))
    if draw(st.sampled_from([np.uint8, np.float32])) == np.uint8:
        data = rng.integers(0, 256, size=shape, dtype=np.uint8)
    else:
        data = rng.random(shape, dtype=np.float32)
    if mode == "pad":
        t = PixelTransform(draw(_floats(0.2, 5)), draw(_floats(0.2, 5)), draw(_floats(-20, 20)),
                           draw(_floats(-20, 20)), draw(st.integers(1, 24)), out_h)
    else:
        sx, sy = draw(_floats(1.0 / width, 5)), draw(_floats(out_h / height, out_h / height + 5))
        out_w = draw(st.integers(1, max(1, math.floor(sx * width))))
        t = PixelTransform(sx, sy, draw(_floats(0, max(0.0, sx * width - out_w))),
                           draw(_floats(0, max(0.0, sy * height - out_h))), out_w, out_h)
    return RasterImage(data), t, mode


@SETTINGS
@given(band_edge_cases())
def test_banded_resample_equals_whole_frame_formula(case):
    image, t, mode = case
    out = resample(image, t, mode).data
    expected = whole_frame_resample(image.data, t, mode)
    assert out.dtype == expected.dtype and out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()


def _source(height: int, width: int, channels: int, dtype, seed: int) -> tuple[RasterImage, DepthMap]:
    """A seeded raster and a depth map with NaN holes, of one extent."""
    rng = np.random.default_rng(seed)
    shape = (height, width, channels)
    if dtype == np.uint8:
        data = rng.integers(0, 256, size=shape, dtype=np.uint8)
    else:
        data = (rng.random(shape, dtype=np.float32) - 0.5) * 2e3
    depth = rng.uniform(0.5, 20.0, size=(height, width))
    depth[rng.random((height, width)) < 0.2] = np.nan
    return RasterImage(data), DepthMap.from_array(depth)


@st.composite
def policy_cases(draw):
    """A seeded source from 1 x 1 up and a transform whose scale and shift are drawn
    across the augmentation policy's range (scale 0.7 to 1.4, shift up to 0.15 of
    the scaled extent) and beyond it, for either mode."""
    height, width = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    mode = draw(st.sampled_from(["pad", "crop"]))
    image, depth = _source(height, width, draw(st.sampled_from([1, 3])), draw(st.sampled_from([np.uint8, np.float32])),
                           draw(st.integers(0, 2**32 - 1)))
    scales = _floats(0.7, 1.4) | _floats(0.05, 6)
    sx = draw(scales)
    sy = draw(st.just(sx) | scales)
    if mode == "pad":
        shifts = _floats(-0.15, 0.15) | _floats(-1.5, 1.5)
        t = PixelTransform(sx, sy, draw(shifts) * sx * width, draw(shifts) * sy * height,
                           draw(st.integers(1, 48)), draw(st.integers(1, 48)))
    else:
        sx, sy = max(sx, 1.0 / width), max(sy, 1.0 / height)
        out_w = draw(st.integers(1, max(1, math.floor(sx * width))))
        out_h = draw(st.integers(1, max(1, math.floor(sy * height))))
        t = PixelTransform(sx, sy, draw(_floats(0, 1)) * max(0.0, sx * width - out_w),
                           draw(_floats(0, 1)) * max(0.0, sy * height - out_h), out_w, out_h)
    return image, depth, t, mode


def _policy_case(height, width, channels, dtype, t, mode):
    return (*_source(height, width, channels, dtype, 22), t, mode)


@SETTINGS
@given(policy_cases())
@example(_policy_case(20, 9, 3, np.uint8, PixelTransform(0.8, 0.75, -2.5, 1.25, 11, 15), "pad"))
@example(_policy_case(20, 9, 1, np.float32, PixelTransform(1.0, 1.0, 0.5, 3.5, 8, 16), "crop"))
@example(_policy_case(20, 9, 3, np.float32, PixelTransform(1.3, 0.85, 1.75, -2.0, 12, 17), "pad"))
@example(_policy_case(20, 9, 1, np.uint8, PixelTransform(1.7, 1.7, 0.25, 0.75, 15, 33), "crop"))
@example(_policy_case(20, 9, 3, np.uint8, PixelTransform(1.7, 1.7, -0.25, -3.0, 15, 33), "pad"))
@example(_policy_case(1, 1, 3, np.float32, PixelTransform(3.7, 2.2, -1.3, -0.4, 5, 4), "pad"))
@example(_policy_case(1, 1, 1, np.uint8, PixelTransform(2.5, 2.5, 0.25, 0.5, 2, 2), "crop"))
def test_resample_equals_the_band_oracle(case):
    image, depth, t, mode = case
    out = resample(image, t, mode).data
    expected = band_resample(image.data, t, mode)
    assert out.dtype == expected.dtype and out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()
    out_depth = resample_depth(depth, t)
    values, valid = ix_depth_resample(depth.values, depth.valid, t)
    assert out_depth.values.tobytes() == values.tobytes() and out_depth.valid.tobytes() == valid.tobytes()


# the embeddings evaluate whole arrays at once; the references below embed token by token
_EMBED_SETTINGS = settings(SETTINGS, max_examples=60)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def ray_grid_cases(draw):
    """A caller-built ray grid, rx per column and ry per row, whose entries come from a small pool, so values
    repeat, and signed zeros."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    pool = draw(st.lists(st.sampled_from([0.0, -0.0]) | _FINITE, min_size=1, max_size=6))

    def channel(size):
        return np.array(draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size)), dtype=np.float64)

    return RayGrid(channel(cols), channel(rows)), draw(intrinsics()), draw(st.sampled_from([8, 16, 64]))


@_EMBED_SETTINGS
@given(ray_grid_cases())
@example((RayGrid([0.0, -0.0, 0.0], [-0.0, 0.0]), Intrinsics(1000, 1000, 0, 0, 2, 2), 8))
def test_embed_equals_the_per_token_reference(case):
    grid, k, dim = case
    per_scalar, period = dim // 4, DEFAULT_BASE_PERIOD
    focals = [math.log(f / DEFAULT_FOCAL_REFERENCE) for f in (k.fx, k.fy)]
    expected = np.array([[np.concatenate([sinusoid_features(x, per_scalar, period) for x in (rx, ry, *focals)])
                          for rx in grid.rx] for ry in grid.ry])
    assert embed(grid, k, dim=dim).data.tobytes() == expected.tobytes()


# any small rows x cols x 3 float64 array, NaN drawn often enough that whole tokens are NaN
_ANY_POINTS = arrays(np.float64, st.tuples(st.integers(0, 3), st.integers(0, 3), st.just(3)),
                     elements=st.floats() | st.just(math.nan))


@SETTINGS
@given(_ANY_POINTS)
@example(np.array([[[0.0, 0.0, math.inf], [math.nan, -math.inf, 1.0]]]))
@example(np.array([[[-math.inf] * 3, [1.0, 2.0, 3.0]]]))  # NaN in no coordinate, yet not finite
@example(np.array([[[math.nan] * 3, [-0.0, 5e-324, 1e308]]]))
def test_a_point_grid_holds_nan_exactly_where_invalid(a):
    points = a.reshape(-1, 3).tolist()
    finite = [all(map(math.isfinite, p)) for p in points]
    if all(f or all(map(math.isnan, p)) for f, p in zip(finite, points)):
        assert PointGrid(a).valid.ravel().tolist() == finite
    else:
        with pytest.raises(InvalidValue):
            PointGrid(a)


@st.composite
def point_grid_cases(draw):
    """Token points with finite coordinates at valid tokens and three NaN at invalid ones, and the drawn mask."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    valid = np.array(draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)
    coords = [draw(_FINITE) if ok else math.nan for ok in valid.ravel() for _ in range(3)]
    return PointGrid(np.array(coords).reshape(rows, cols, 3)), valid, draw(st.sampled_from([6, 12, 60]))


@_EMBED_SETTINGS
@given(point_grid_cases())
@example((PointGrid([[[0.0, -0.0, 1e308], [math.nan, math.nan, math.nan]]]), np.array([[True, False]]), 6))
def test_embed_points_equals_the_per_token_reference(case):
    grid, valid, dim = case
    np.testing.assert_array_equal(grid.valid, valid)
    data = embed_points(grid, dim=dim).data
    for (i, j), ok in np.ndenumerate(valid):
        expected = np.zeros(dim)
        if ok:
            expected = np.concatenate([sinusoid_features(x, dim // 3, DEFAULT_GEO_PERIOD) for x in grid.points[i, j]])
        assert data[i, j].tobytes() == expected.tobytes()


# The tokens commands fill float32 outputs from float64 arithmetic, each value rounded once: a float32 output is the
# float64 output's astype, bit for bit, NaN positions and -0.0 included.  Each property's examples hold a NaN depth,
# a subnormal depth, -0.0 ray components and a depth at float32's maximum where its inputs can hold them, so these
# cases are drawn whichever modules are collected.
_F32_MAX = float(np.finfo(np.float32).max)
_F32_PAST = 2.0**128 - 2.0**103  # the least float64 that rounds past float32's maximum, to inf
_EDGES = [math.nan, 5e-324, -0.0, _F32_MAX, _F32_PAST, math.nextafter(_F32_PAST, 0)]
_UNIT = Intrinsics(1.0, 1.0, 0.0, 0.0, 4, 4)


def _rounded_once(narrow: np.ndarray, wide: np.ndarray) -> bool:
    with np.errstate(over="ignore"):  # a value past float32's range is inf on both sides
        return narrow.dtype == np.float32 and narrow.tobytes() == wide.astype(np.float32).tobytes()


@st.composite
def unproject_array_cases(draw):
    """Pixel coordinates, -0.0 among them, depths of any sign and size with float32's edges among them, a camera."""
    n = draw(st.integers(1, 6))
    coords = st.lists(st.floats(-1e4, 1e4) | st.just(-0.0), min_size=n, max_size=n)
    depths = st.lists(st.floats(allow_infinity=False) | st.sampled_from(_EDGES), min_size=n, max_size=n)
    return np.array(draw(coords)), np.array(draw(coords)), np.array(draw(depths)), draw(intrinsics())


@SETTINGS
@given(unproject_array_cases())
@example((np.array([0.5]), np.array([0.5]), np.array([math.nan]), _UNIT))
@example((np.array([0.5]), np.array([0.5]), np.array([5e-324]), _UNIT))
@example((np.array([-0.0]), np.array([-0.0]), np.array([2.0]), _UNIT))  # -0.0 - 0.0: rx and ry are -0.0
@example((np.array([0.5, 1.5]), np.array([0.5, 0.5]), np.array([_F32_MAX, _F32_MAX]), _UNIT))  # 1.5 x max: inf
def test_float32_points_are_the_float64_points_rounded_once(case):
    u, v, z, k = case
    with np.errstate(over="ignore"):  # a point past the float64 range is inf on both sides
        wide, narrow = unproject_array(u, v, z, k), unproject_array(u, v, z, k, np.float32)
    assert _rounded_once(narrow, wide)


@_EMBED_SETTINGS
@given(arrays(np.float64, array_shapes(max_dims=2, max_side=4),
              elements=st.floats(allow_infinity=False) | st.sampled_from(_EDGES)),
       st.sampled_from([2, 4, 16]), st.sampled_from([DEFAULT_BASE_PERIOD, DEFAULT_GEO_PERIOD]))
@example(np.array([math.nan]), 4, DEFAULT_GEO_PERIOD)
@example(np.array([5e-324]), 4, DEFAULT_GEO_PERIOD)
@example(np.array([-0.0, 0.0]), 4, DEFAULT_BASE_PERIOD)
@example(np.array([_F32_MAX, -_F32_MAX]), 16, DEFAULT_GEO_PERIOD)
def test_float32_features_are_the_float64_features_rounded_once(x, dim, period):
    assert _rounded_once(sinusoid_features(x, dim, period, np.float32), sinusoid_features(x, dim, period))


# a ray grid holds no NaN (RayGrid rejects it), so its examples are the other three edges
@_EMBED_SETTINGS
@given(ray_grid_cases())
@example((RayGrid([-0.0, 0.0], [-0.0]), _UNIT, 8))
@example((RayGrid([5e-324, -5e-324], [_F32_MAX]), _UNIT, 16))
def test_float32_embedding_is_the_float64_embedding_rounded_once(case):
    grid, k, dim = case
    assert _rounded_once(embed(grid, k, dim=dim, dtype=np.float32).data, embed(grid, k, dim=dim).data)


@_EMBED_SETTINGS
@given(point_grid_cases())
@example((PointGrid([[[math.nan] * 3, [-0.0, -0.0, 1.0]]]), np.array([[False, True]]), 6))
@example((PointGrid([[[0.0, 0.0, 5e-324], [_F32_MAX, -_F32_MAX, _F32_MAX]]]), np.array([[True, True]]), 12))
def test_float32_geometric_embedding_is_the_float64_one_rounded_once(case):
    grid, _, dim = case
    assert _rounded_once(embed_points(grid, dim=dim, dtype=np.float32).data, embed_points(grid, dim=dim).data)


@st.composite
def far_depth_cases(draw):
    """A depth map of 1 to 3 x 1 to 3 pixels, many near float32's maximum, NaN and float32's edges among them, and
    a camera of its extent whose rays reach well past unit length."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    depths = (st.floats(1e37, 1e39) | st.floats(5e-324, 1.7976931348623157e308)
              | st.sampled_from([d for d in _EDGES if d != -0.0]))
    values = np.array(draw(st.lists(depths, min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)
    focal, center = _floats(0.05, 10), _floats(-4, 8)
    return DepthMap(values), Intrinsics(draw(focal), draw(focal), draw(center), draw(center), cols, rows)


# a pixel center minus cx is never -0.0, so an on-axis ray's components are +0.0
@SETTINGS
@given(far_depth_cases())
@example((DepthMap([[math.nan, 1.0]]), Intrinsics(1.0, 1.0, 1.0, 0.5, 2, 1)))
@example((DepthMap([[5e-324]]), Intrinsics(0.05, 0.05, 0.0, 0.0, 1, 1)))
@example((DepthMap([[_F32_MAX]]), Intrinsics(1.0, 1.0, 0.5, 0.5, 1, 1)))  # on axis: (+0.0, +0.0, max) fits
@example((DepthMap([[_F32_MAX, _F32_MAX]]), Intrinsics(1.0, 1.0, 0.0, 0.5, 2, 1)))  # x = 1.5 x max does not
@example((DepthMap([[_F32_PAST, math.nextafter(_F32_PAST, 0)]]), Intrinsics(1.0, 1.0, 1.0, 0.5, 2, 1)))
def test_float32_unproject_raises_exactly_for_a_point_past_float32(case):
    depth, k = case
    try:
        wide = unproject(depth, k)[0]
    except InvalidValue:  # a point past the float64 range is past float32's as well
        wide = None
    with np.errstate(over="ignore"):
        past = wide is None or bool(np.isinf(wide.astype(np.float32)).any())
    if past:
        with pytest.raises(InvalidValue):
            unproject(depth, k, np.float32)
    else:
        assert _rounded_once(unproject(depth, k, np.float32)[0], wide)


_ANGLE = _floats(-math.pi, math.pi)


@st.composite
def box_pairs(draw):
    """Two oriented boxes whose centers are close enough to overlap often."""
    def box(center):
        size = [draw(_floats(0.1, 3)) for _ in range(3)]
        return OrientedBox3(center, size, draw(_ANGLE), draw(_ANGLE), draw(_ANGLE))

    center = [draw(_floats(-3, 3)) for _ in range(3)]
    offset = [draw(_floats(-1.5, 1.5)) for _ in range(3)]
    return box(center), box([c + d for c, d in zip(center, offset)])


def _moved(box, center, yaw_delta=0.0):
    return OrientedBox3(center, box.size, box.yaw + yaw_delta, box.pitch, box.roll)


@SETTINGS
@given(box_pairs())
def test_iou_is_symmetric(pair):
    a, b = pair
    assert abs(iou3d(a, b) - iou3d(b, a)) <= 1e-9


@SETTINGS
@given(box_pairs(), st.tuples(_floats(-10, 10), _floats(-10, 10), _floats(-10, 10)))
def test_iou_invariant_under_common_translation(pair, shift):
    a, b = pair
    moved = [_moved(box, np.add(box.center, shift)) for box in pair]
    assert abs(iou3d(*moved) - iou3d(a, b)) <= 1e-9


@SETTINGS
@given(box_pairs(), _ANGLE)
def test_iou_invariant_under_common_yaw(pair, theta):
    # Rz(theta) @ Rz(yaw) Ry(pitch) Rx(roll) is the box with yaw + theta
    c, s = math.cos(theta), math.sin(theta)
    rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    turned = [_moved(box, rz @ np.asarray(box.center), theta) for box in pair]
    assert abs(iou3d(*turned) - iou3d(*pair)) <= 1e-9


@SETTINGS
@given(box_pairs())
def test_clipper_matches_closed_form_for_equal_attitudes(pair):
    # intersection_volume takes the closed form here; the clipper must agree with it
    a, b = pair
    b = OrientedBox3(b.center, b.size, a.yaw, a.pitch, a.roll)
    scale = max(1.0, a.volume(), b.volume())
    assert abs(clipped_intersection_volume(a, b) - intersection_volume(a, b)) <= 1e-9 * scale


_SLAB = OrientedBox3((0, 0, 0), (3, 1, 0.125), 0, 0, 0)


@SETTINGS
@given(box_pairs(), st.tuples(_floats(-1e-10, 1e-10), _floats(-1e-10, 1e-10), _floats(-1e-10, 1e-10)))
@example((_SLAB, _SLAB), (0.0, 8.478e-11, 0.0))  # 1 - IoU = 1.017e-9, past a fixed 1e-9 bound
def test_coincident_boxes_with_nearly_equal_attitudes(pair, deltas):
    # A box turned by a small theta about its k axis keeps 1 - IoU ~ (L_i**2 + L_j**2) theta / (2 L_i L_j),
    # at most (L_max / L_min) theta; a turn about a tilted axis loses at most sqrt(3) times that, and the
    # deltas turn the box by at most the sum of their sizes.  Margin 2 covers sqrt(3) and higher-order
    # terms, 1e-12 the clipper's rounding.
    a = pair[0]
    b = OrientedBox3(a.center, a.size, a.yaw + deltas[0], a.pitch + deltas[1], a.roll + deltas[2])
    assert 1 - iou3d(a, b) <= 2 * max(a.size) / min(a.size) * sum(map(abs, deltas)) + 1e-12


# regression cases: a unit cube against itself moved 0.25 in x and yawed 0.5 (IoU 0.548), which the
# world-frame clipper scored 1.0 at x = 2**30 and at scale 2**-66; and the flat (2**511, 2**511, 1) pair
# moved 0.3 of its width, scored 0.3685 (a, b) and 0.4348 (b, a) where its unit-scale twin scores 0.4933
_CUBES = (OrientedBox3((0, 0, 0), (1, 1, 1), 0, 0, 0), OrientedBox3((0.25, 0, 0), (1, 1, 1), 0.5, 0, 0))
_FLAT = (OrientedBox3((0, 0, 0), (2.0**511, 2.0**511, 1), 0, 0, 0),
         OrientedBox3((0.3 * 2.0**511, 0, 0), (2.0**511, 2.0**511, 1), 0.5, 0, 0))
_INVARIANCE_SETTINGS = settings(SETTINGS, max_examples=150)


@st.composite
def grid_pairs(draw):
    """:func:`box_pairs` with centers on a 2**-12 grid, so a shift by k * 2**30 (|k| < 1000) is exact."""
    return tuple(_moved(box, [round(c * 4096) / 4096 for c in box.center]) for box in draw(box_pairs()))


@_INVARIANCE_SETTINGS
@given(grid_pairs(), st.tuples(*[st.integers(-999, 999)] * 3))
@example(_CUBES, (1, 0, 0))
@example(_CUBES, (-999, 999, 0))
def test_iou_is_bit_identical_under_translation_by_multiples_of_2_30(pair, multiples):
    moved = [_moved(box, np.add(box.center, np.multiply(multiples, 2.0**30))) for box in pair]
    assert iou3d(*moved).hex() == iou3d(*pair).hex()
    assert iou3d(*moved[::-1]).hex() == iou3d(*pair[::-1]).hex()


def _scaled(box, p):
    return OrientedBox3(np.ldexp(box.center, p), np.ldexp(box.size, p), box.yaw, box.pitch, box.roll)


@_INVARIANCE_SETTINGS
@given(box_pairs(), st.integers(-300, 300))
@example(_CUBES, -66)
@example(_CUBES, 66)
@example(_CUBES, 300)
def test_iou_is_bit_identical_under_scaling_by_powers_of_two(pair, p):
    assert iou3d(*(_scaled(box, p) for box in pair)).hex() == iou3d(*pair).hex()


@_INVARIANCE_SETTINGS
@given(box_pairs(), st.integers(-300, 300), _floats(-1e300, 1e300))
@example(_FLAT, 0, 0.0)
@example(_CUBES, 0, 1e9)
def test_iou_lies_in_the_unit_interval(pair, p, x):
    a, b = (_moved(box, np.add(box.center, (x, 0.0, 0.0))) for box in (_scaled(box, p) for box in pair))
    assert 0.0 <= iou3d(a, b) <= 1.0 and 0.0 <= iou3d(b, a) <= 1.0


def _clipped_meshes(a, b, order):
    """The index faces of every mesh ``boxes._clip`` returns while clipping b against a."""
    clip, meshes = boxes._clip, []

    def record(*args):
        meshes.append(clip(*args))
        return meshes[-1]

    with mock.patch.object(boxes, "_clip", record):
        clipped_intersection_volume(a, b, order)
    return meshes


def _near_equal_pair(seed):
    rng = np.random.default_rng(seed)
    a = random_box(rng)
    return a, OrientedBox3(np.add(a.center, rng.uniform(-0.3, 0.3, 3)), a.size,
                           *np.add((a.yaw, a.pitch, a.roll), rng.choice([-1e-15, 1e-15], 3)))


def _unit_cube(center, yaw=0.0, pitch=0.0, roll=0.0):
    return OrientedBox3(center, (1, 1, 1), yaw, pitch, roll)


_THIN = (OrientedBox3((0, 0, 0), (1, 1, 1e-6), 0, 0, 0), OrientedBox3((0.2, 0, 0), (1, 1e-6, 1), 0.3, 0, 0))


@SETTINGS
@given(box_pairs())
@example(_near_equal_pair(1))
@example(_near_equal_pair(2))
@example(_near_equal_pair(3))
@example((_unit_cube((0, 0, 0)), _unit_cube((0.5, 0, 0), yaw=math.pi / 2)))
@example((_unit_cube((0, 0, 0)), _unit_cube((0.25, 0.5, 0.5), pitch=math.pi / 2, roll=-math.pi / 2)))
@example(_THIN)
@example((_THIN[1], dataclasses.replace(_THIN[0], yaw=1e-15)))
def test_every_clip_leaves_a_closed_mesh(pair):
    # each directed edge of the kept faces and caps appears once, and reversed exactly once
    for order in ("zyx", "xyz"):
        for faces in _clipped_meshes(*pair, order):
            edges = Counter((face[n - 1], face[n]) for face in faces for n in range(len(face)))
            assert all(count == 1 and edges[j, i] == 1 for (i, j), count in edges.items()), faces


@st.composite
def zero_angle_pairs(draw):
    """Two axis-aligned boxes from far-apart sizes and positions, b often overlapping a."""
    def box(center):
        return OrientedBox3(center, [draw(_floats(1e-8, 1e3)) for _ in range(3)], 0.0, 0.0, 0.0)

    center = [draw(_floats(-1e9, 1e9) | _floats(-3, 3)) for _ in range(3)]
    offset = [draw(_floats(-2, 2) | _floats(-1e308, 1e308)) for _ in range(3)]
    return box(center), box([c + d for c, d in zip(center, offset)])


@SETTINGS
@given(zero_angle_pairs())
@example((OrientedBox3((1.7e308, 0, 0), (1, 1, 1), 0, 0, 0), OrientedBox3((-1.7e308, 0, 0), (1, 1, 1), 0, 0, 0)))
def test_aabb_iou_is_iou3d_bit_for_bit_on_zero_angles(pair):
    a, b = pair
    assert aabb_iou(a, b).hex() == iou3d(a, b).hex()


# -- parser fuzzing ----------------------------------------------------------

# numbers a JSON document can carry: huge integers and non-finite floats included
_NUMBERS = st.one_of(st.integers(), st.integers(-10**400, 10**400), st.floats())
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), _NUMBERS, st.text(max_size=8)),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=12,
)
_DETECTION = st.builds(
    lambda label, key, box: {"label": label, key: box},
    st.one_of(st.text(max_size=8), _JSON),
    st.sampled_from(["bbox_3d", "box_3d", "box"]),
    st.one_of(st.lists(_NUMBERS, min_size=8, max_size=10), _JSON),
)


def _dumps(value) -> str:
    return json.dumps(value, allow_nan=True)


@st.composite
def transcripts(draw):
    text = draw(st.one_of(
        st.text(),
        st.lists(_DETECTION, max_size=4).map(_dumps),
        _JSON.map(_dumps),
    ))
    cut = draw(st.integers(0, len(text)))
    text = text[:cut] if draw(st.booleans()) else text
    return draw(st.sampled_from(["{}", "```json\n{}\n```", "noise {} noise"])).format(text)


@SETTINGS
@given(transcripts())
@example("[" * 100_000)
@example('[{"label": "a", "bbox_3d": [' + "1" * 5000 + ", 0, 0, 1, 1, 1, 0, 0, 0]}]")
def test_parse_detections_parses_or_raises_camgeom_error(text):
    try:
        parse_detections(text)
    except CamGeomError:
        pass


# JSON objects whose strings hold braces, quotes and backslashes, between filler holding no brace or quote
_SPAN_TEXT = st.text('{}"\\ab:\n', max_size=6)
_SPAN_OBJECT = st.dictionaries(_SPAN_TEXT, st.recursive(
    _SPAN_TEXT, lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(_SPAN_TEXT, inner, max_size=3)),
    max_leaves=6), max_size=3)
_FILLER = st.text("ab \n:,[]\\", max_size=4)


@SETTINGS
@given(st.lists(st.tuples(_FILLER, _SPAN_OBJECT), max_size=4), _FILLER)
@example([("", {"label": "a}b{"})], "")  # a brace in a string
@example([("[", {"label": 'say "}" now'}), (", ", {"label": "b"})], "\\")  # an escaped quote before a brace
def test_balanced_objects_are_the_written_objects(parts, tail):
    spans = [json.dumps(obj) for _, obj in parts]
    text = "".join(filler + span for (filler, _), span in zip(parts, spans)) + tail
    assert _balanced_objects(text) == spans


_INTRINSICS_KEYS = ["fx", "fy", "cx", "cy", "width", "height"]


@SETTINGS
@given(st.one_of(
    st.fixed_dictionaries({key: st.one_of(_NUMBERS, _JSON) for key in _INTRINSICS_KEYS}),
    st.dictionaries(st.one_of(st.sampled_from(_INTRINSICS_KEYS), st.text(max_size=4)), _JSON),
    _JSON,
))
def test_intrinsics_from_mapping_parses_or_raises_camgeom_error(obj):
    try:
        Intrinsics.from_mapping(obj)
    except CamGeomError:
        pass


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


_DIMENSION = st.one_of(st.integers(0, 4), st.integers(0, 2**32 - 1))


@st.composite
def cgem_bytes(draw):
    rows, cols, dim = draw(_DIMENSION), draw(_DIMENSION), draw(_DIMENSION)
    magic = draw(st.sampled_from([b"CGEM", b"CGEN"]))
    exact = rows * cols * dim * 4
    body = draw(st.binary(min_size=exact, max_size=exact) if exact <= 256 else st.binary(max_size=64))
    raw = struct.pack("<4sIII", magic, rows, cols, dim) + body
    return raw[:draw(st.integers(0, len(raw)))] if draw(st.booleans()) else raw


@st.composite
def ppm_bytes(draw):
    fields = [str(draw(st.integers(-3, 6) | st.integers())).encode() for _ in range(3)]
    if draw(st.booleans()):
        fields[2] = b"255"
    sep = draw(st.sampled_from([b" ", b"\n", b"\n# note\n", b"\t"]))
    header = b"P6\n" + sep.join(fields) + b"\n"
    raw = header + draw(st.binary(max_size=128))
    return raw[:draw(st.integers(0, len(raw)))] if draw(st.booleans()) else raw


@SETTINGS
@given(st.one_of(cgem_bytes(), st.binary()))
@example(struct.pack("<4sIII", b"CGEM", 0, 2**32 - 1, 2**32 - 1))
def test_read_cgem_parses_or_raises_camgeom_error(scratch_file, raw):
    scratch_file.write_bytes(raw)
    try:
        read_cgem(scratch_file)
    except CamGeomError:
        pass


@SETTINGS
@given(st.one_of(ppm_bytes(), st.binary()))
@example(b"P6\n-1 -1\n255\nabc")
@example(b"P6\n0 5\n255\n")
def test_read_ppm_parses_or_raises_camgeom_error(scratch_file, raw):
    scratch_file.write_bytes(raw)
    try:
        image = read_ppm(scratch_file)
    except CamGeomError:
        return
    assert image.ndim == 3 and image.shape[2] == 3 and min(image.shape) >= 1


# -- the CLI contract --------------------------------------------------------
# Every command, run on a small valid workspace with one input corrupted, exits 0, 1 or 2; a
# non-zero exit prints one line and no traceback; nothing appears outside the output location;
# and in augment a bad sample leaves the others written.

_K = Intrinsics(500.0, 500.0, 32.0, 24.0, 64, 48)
_LONG_INT = '{"fx": ' + "1" * 5000 + "}"  # past Python's 4,300-digit limit for int conversion
_GT = '[{"label": "chair", "bbox_3d": [0, 0, 2, 1, 1, 1, 0.3, 0, 0]}]'
_MANIFEST = [
    {"id": "img0", "image": "img0.ppm", "intrinsics": _K.to_dict()},
    {"id": "img1", "image": "img1.ppm", "intrinsics": "k.json", "depth": "depth.cgem"},
    {"id": "img2", "image": "img2.cgem", "intrinsics": "k2.json"},
]
_OUT = ("--out", "{root}/out")
# command -> (argv, the files it reads); flags pin every setting that sizes the work
_COMMANDS = {
    "augment": (["augment", "--manifest", "{root}/manifest.jsonl", *_OUT, "--workers", "1",
                 "--scale-min", "0.5", "--scale-max", "1.5"],
                ["manifest.jsonl", "k.json", "img1.ppm", "depth.cgem", "depth.cgem.json"]),
    "embed": (["embed", "--intrinsics", "{root}/k.json", "--out", "{root}/out/e.cgem", "--rows", "3", "--cols", "4",
               "--dim", "8"], ["k.json"]),
    "embed --depth": (["embed", "--intrinsics", "{root}/k.json", "--depth", "{root}/depth.cgem",
                       "--out", "{root}/out/e.cgem", "--rows", "1", "--cols", "1", "--geo-dim", "6"],
                      ["k.json", "depth.cgem", "depth.cgem.json"]),
    "unproject": (["unproject", "--depth", "{root}/depth.cgem", "--out", "{root}/out/p.cgem"],
                  ["depth.cgem", "depth.cgem.json"]),
    "eval": (["eval", "--preds", "{root}/preds.txt", "--truths", "{root}/gt.json", *_OUT], ["preds.txt", "gt.json"]),
    "ambiguity": (["ambiguity", *_OUT, "--n-scenes", "2"], []),
}
_PER_SAMPLE = {"k.json", "img1.ppm", "depth.cgem", "depth.cgem.json"}  # read by augment for img1 alone


def _workspace(root: Path) -> None:
    rng = np.random.default_rng(3)
    save_intrinsics(root / "k.json", _K)
    save_intrinsics(root / "k2.json", _K)
    write_ppm(root / "img0.ppm", rng.integers(0, 256, (48, 64, 3), dtype=np.uint8))
    write_ppm(root / "img1.ppm", rng.integers(0, 256, (48, 64, 3), dtype=np.uint8))
    write_cgem(root / "img2.cgem", rng.uniform(0, 1, (48, 64, 3)).astype(np.float32))
    write_depth(root / "depth.cgem", DepthMap.from_array(rng.uniform(1, 5, (48, 64))), _K)
    (root / "manifest.jsonl").write_text("".join(json.dumps(entry) + "\n" for entry in _MANIFEST))
    (root / "preds.txt").write_text(f"```json\n{_GT}\n```")
    (root / "gt.json").write_text(_GT)
    (root / "config.json").write_text("{}")


def _leaves(node, path=()):
    for key, value in node.items():
        yield from _leaves(value, path + (key,)) if isinstance(value, dict) else [path + (key,)]


# every config key but objects_per_scene, which no flag pins: a huge value is a run that does not end
_CONFIG_KEYS = [path for path in _leaves(DEFAULTS) if path != ("ambiguity", "objects_per_scene")] + [("bogus",)]
_JSON_TEXT = st.one_of(st.text(max_size=40), _JSON.map(_dumps), st.sampled_from([_LONG_INT, "1" * 5000, "[" * 100_000]))
_MAPPINGS = st.one_of(
    st.fixed_dictionaries({key: st.one_of(_NUMBERS, _JSON) for key in _INTRINSICS_KEYS}),
    intrinsics().map(Intrinsics.to_dict),
)
_PATH_OR_NOT = st.one_of(st.sampled_from(["img0.ppm", "img2.cgem", "depth.cgem", "k.json", "missing.ppm"]),
                         _JSON.filter(lambda value: not isinstance(value, str)))  # no text: it could name any file


@st.composite
def manifest_bytes(draw):
    """The workspace manifest with one line replaced by, or followed by, a bad one."""
    lines = [json.dumps(entry) for entry in _MANIFEST]
    bad = draw(st.one_of(_JSON_TEXT, st.fixed_dictionaries(
        {"id": st.one_of(st.sampled_from(["img0", "new", "", "..", "a/b"]), _JSON), "image": _PATH_OR_NOT,
         "intrinsics": st.one_of(st.just("k.json"), _PATH_OR_NOT, _MAPPINGS)},
        optional={"depth": _PATH_OR_NOT, "boxes": st.sampled_from(["gt.json", "preds.txt", "img0.ppm"])},
    ).map(_dumps)))
    index = draw(st.integers(0, len(lines) - 1))
    lines[index:index + 1] = [bad] if draw(st.booleans()) else [lines[index], bad]
    return "\n".join(lines).encode()


_TEXT_BYTES = st.one_of(_JSON_TEXT.map(str.encode), st.binary(max_size=16))
_CONTENTS = {
    "manifest.jsonl": st.one_of(manifest_bytes(), _TEXT_BYTES),
    "k.json": st.one_of(_TEXT_BYTES, _MAPPINGS.map(_dumps).map(str.encode)),
    "img1.ppm": st.one_of(ppm_bytes(), st.binary(max_size=64)),
    "depth.cgem": cgem_bytes(),
    "depth.cgem.json": st.one_of(_TEXT_BYTES,
                                 st.fixed_dictionaries({"intrinsics": _MAPPINGS}).map(_dumps).map(str.encode)),
    "config.json": st.one_of(_TEXT_BYTES, st.builds(
        lambda path, value: _dumps(functools.reduce(lambda inner, key: {key: inner}, reversed(path), value)).encode(),
        st.sampled_from(_CONFIG_KEYS), st.one_of(_NUMBERS, _JSON, st.lists(_NUMBERS, max_size=3)),
    )),
    "preds.txt": transcripts().map(str.encode),
    "gt.json": transcripts().map(str.encode),
}


@st.composite
def corrupted_runs(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    name = draw(st.sampled_from(_COMMANDS[command][1] + ["config.json"]))
    return command, name, draw(_CONTENTS[name])


def _outside(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.relative_to(root).parts[0] != "out")


@settings(SETTINGS, max_examples=150)
@given(corrupted_runs())
# the over-long integer measured to end in a traceback: in a manifest, an intrinsics file and a config
@example(("augment", "manifest.jsonl", _LONG_INT.encode()))
@example(("embed", "k.json", _LONG_INT.encode()))
@example(("eval", "config.json", _LONG_INT.encode()))
@example(("unproject", "depth.cgem.json", _LONG_INT.encode()))
@example(("augment", "depth.cgem.json", _LONG_INT.encode()))
# one token whose center lies far past any int: it pools the last pixel, with no cast warning
@example(("embed --depth", "config.json", b'{"embed": {"patch": 1e300}}'))
# found by this test: a line break in a key, an int no float can hold, a spread whose heights overflow
@example(("ambiguity", "config.json", b'{"\\n": null}'))
@example(("embed", "config.json", b'{"embed": {"focal_reference": 1' + b"0" * 400 + b"}}"))
@example(("ambiguity", "config.json", b'{"ambiguity": {"prior_spread": 2409}}'))
def test_every_command_keeps_the_error_contract(run):
    command, name, content = run
    with tempfile.TemporaryDirectory(prefix="camgeom-contract-") as tmp:
        root = Path(tmp)
        _workspace(root)
        (root / name).write_bytes(content)
        before = _outside(root)
        argv = [arg.format(root=root) for arg in _COMMANDS[command][0]] + ["--config", str(root / "config.json")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2)
        err = err.getvalue()
        if code:
            assert err.startswith("error: " if code == 2 else "i/o error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert _outside(root) == before
        if command == "augment" and name in _PER_SAMPLE:
            assert code == 0 and (root / "out" / "img0.ppm").exists() and (root / "out" / "img2.cgem").exists()
