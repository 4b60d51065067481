"""Property tests: the pinhole core (unprojection, the resize rule, ray
preservation), resampling against per-pixel oracles and banded resampling
against the whole-frame formula, oriented-box IoU (symmetry, rigid
invariance, bit-for-bit invariance under exact translation and power-of-two
scaling, the clipper against the closed form, aabb_iou on zero angles),
the input parsers (every input parses or raises CamGeomError, nothing
else) and the CLI's error contract (every command, one input corrupted).

Derandomized with no example database, so every run draws the same cases;
``conftest.py`` keeps Hypothesis's remaining cache out of the checkout.
"""

import contextlib
import functools
import io
import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from camgeom.augment import _BAND_ROWS, RasterImage, resample, resample_depth
from camgeom.boxes import OrientedBox3, aabb_iou, clipped_intersection_volume, intersection_volume, iou3d
from camgeom.camera import Intrinsics, project_array, unproject_array
from camgeom.cli import DEFAULTS, main
from camgeom.depthmap import DEFAULT_GEO_PERIOD, DepthMap, PointGrid, embed_points
from camgeom.errors import CamGeomError
from camgeom.evaluation import parse_detections
from camgeom.fileio import read_cgem, read_ppm, save_intrinsics, write_cgem, write_depth, write_ppm
from camgeom.rays import DEFAULT_BASE_PERIOD, DEFAULT_FOCAL_REFERENCE, RayGrid, embed, sinusoid_features
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


# the embeddings evaluate each distinct value once; the references below embed token by token
_EMBED_SETTINGS = settings(SETTINGS, max_examples=60)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def ray_grid_cases(draw):
    """A caller-built ray grid whose entries come from a small pool, so values repeat, and signed zeros."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    pool = draw(st.lists(st.sampled_from([0.0, -0.0]) | _FINITE, min_size=1, max_size=6))

    def channel():
        return np.array(draw(st.lists(st.sampled_from(pool), min_size=rows * cols, max_size=rows * cols)),
                        dtype=np.float64).reshape(rows, cols)

    return RayGrid(channel(), channel()), draw(intrinsics()), draw(st.sampled_from([8, 16, 64]))


@_EMBED_SETTINGS
@given(ray_grid_cases())
@example((RayGrid([[0.0, -0.0], [-0.0, 0.0]], [[-0.0, -0.0], [0.0, 0.0]]), Intrinsics(1000, 1000, 0, 0, 2, 2), 8))
def test_embed_equals_the_per_token_reference(case):
    grid, k, dim = case
    per_scalar, period = dim // 4, DEFAULT_BASE_PERIOD
    focals = [math.log(f / DEFAULT_FOCAL_REFERENCE) for f in (k.fx, k.fy)]
    expected = np.array([[np.concatenate([sinusoid_features(x, per_scalar, period) for x in (rx, ry, *focals)])
                          for rx, ry in zip(row_x, row_y)] for row_x, row_y in zip(grid.rx, grid.ry)])
    assert embed(grid, k, dim=dim).data.tobytes() == expected.tobytes()


@st.composite
def point_grid_cases(draw):
    """Token points with finite coordinates at valid tokens and anything, +-inf and NaN too, at invalid ones."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    valid = np.array(draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)
    coords = [draw(_FINITE if ok else st.floats()) for ok in valid.ravel() for _ in range(3)]
    return PointGrid(np.array(coords).reshape(rows, cols, 3), valid), draw(st.sampled_from([6, 12, 60]))


@_EMBED_SETTINGS
@given(point_grid_cases())
@example((PointGrid([[[0.0, 0.0, math.inf], [math.nan, -math.inf, 1.0]]], [[False, False]]), 6))
def test_embed_points_equals_the_per_token_reference(case):
    grid, dim = case
    data = embed_points(grid, dim=dim).data
    for (i, j), ok in np.ndenumerate(grid.valid):
        expected = np.zeros(dim)
        if ok:
            expected = np.concatenate([sinusoid_features(x, dim // 3, DEFAULT_GEO_PERIOD) for x in grid.points[i, j]])
        assert data[i, j].tobytes() == expected.tobytes()


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
