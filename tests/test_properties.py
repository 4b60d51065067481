"""Property tests: the pinhole core (unprojection, the resize rule, ray
preservation), resampling against per-pixel oracles and banded resampling
against the whole-frame formula, oriented-box IoU (symmetry, rigid
invariance, the clipper against the closed form, aabb_iou on zero angles)
and the input parsers (every input parses or raises CamGeomError, nothing
else).

Derandomized with no example database, so every run draws the same cases;
``conftest.py`` keeps Hypothesis's remaining cache out of the checkout.
"""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from camgeom.augment import _BAND_ROWS, RasterImage, resample, resample_depth
from camgeom.boxes import OrientedBox3, aabb_iou, clipped_intersection_volume, intersection_volume, iou3d
from camgeom.camera import Intrinsics, project_array, unproject_array
from camgeom.depthmap import DepthMap
from camgeom.errors import CamGeomError
from camgeom.evaluation import parse_detections
from camgeom.fileio import read_cgem, read_ppm
from camgeom.transforms import PixelTransform, ray_preservation_check, scale
from oracles import bilinear_oracle, nearest_depth_oracle, whole_frame_resample

SETTINGS = settings(database=None, derandomize=True, deadline=None)


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


@SETTINGS
@given(box_pairs(), st.tuples(_floats(-1e-10, 1e-10), _floats(-1e-10, 1e-10), _floats(-1e-10, 1e-10)))
def test_coincident_boxes_with_nearly_equal_attitudes(pair, deltas):
    a = pair[0]
    b = OrientedBox3(a.center, a.size, a.yaw + deltas[0], a.pitch + deltas[1], a.roll + deltas[2])
    assert iou3d(a, b) >= 1 - 1e-9


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
