"""The one number rule, at every value type and checker that takes numbers from a caller.

A number is an int or a float (np.float64 included), never a bool or text,
and finite; a count is an int or an integral float.  Each site raises its
own CamGeomError class for a value that breaks the rule, and stores valid
numbers as the same floats (counts as the same ints) it always has.  The
array value types raise theirs for a shape, dtype or content they cannot
hold, whether a caller builds them or the library adopts its own arrays.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camgeom.ambiguity import SizePrior, generate_scenes, make_witness
from camgeom.augment import AugmentationPolicy, RasterImage
from camgeom.boxes import OrientedBox3
from camgeom.camera import Intrinsics, Pixel, Point3, projected_height, projected_width
from camgeom.depthmap import (
    DepthMap,
    PointGrid,
    aware_depth_estimate,
    biased_depth_estimate,
    embed_points,
    token_point_grid,
)
from camgeom.errors import (
    BadDimension,
    BadThreshold,
    BelowMinimum,
    CamGeomError,
    DegenerateBox,
    IntrinsicsError,
    InvalidValue,
    NonPositiveDepth,
    NonPositiveFactor,
    NonPositiveInput,
    NonPositiveScale,
    NonPositiveSize,
)
from camgeom.evaluation import Detection, match_and_score
from camgeom.rays import EmbeddingGrid, RayGrid, TokenGridSpec, _adopt, embed, ray_grid, sinusoid_features
from camgeom.transforms import PixelTransform

SETTINGS = settings(database=None, derandomize=True, deadline=None)

K = Intrinsics(500.0, 500.0, 32.0, 24.0, 64, 48)
GRID = TokenGridSpec(3, 4, 16.0)
RAYS = ray_grid(K, GRID)
POINTS = token_point_grid(DepthMap.from_array(np.full((48, 64), 2.0)), K, GRID)

NUMBER, POSITIVE, COUNT = "number", "positive", "count"

# site -> (call taking the arguments as a list, valid arguments, {argument index: (kind, error class)})
SITES = {
    "Intrinsics": (lambda a: Intrinsics(*a), [500.0, 500.0, 32.0, 24.0, 64, 48],
                   {0: (POSITIVE, IntrinsicsError), 1: (POSITIVE, IntrinsicsError), 2: (NUMBER, IntrinsicsError),
                    3: (NUMBER, IntrinsicsError), 4: (COUNT, IntrinsicsError), 5: (COUNT, IntrinsicsError)}),
    "Point3": (lambda a: Point3(*a), [1.0, 2.0, 3.0], {i: (NUMBER, CamGeomError) for i in range(3)}),
    "Pixel": (lambda a: Pixel(*a), [1.0, 2.0], {i: (NUMBER, CamGeomError) for i in range(2)}),
    "projected_height": (lambda a: projected_height(a[0], a[1], K), [1.5, 2.0],
                         {0: (POSITIVE, NonPositiveSize), 1: (POSITIVE, NonPositiveDepth)}),
    "projected_width": (lambda a: projected_width(a[0], a[1], K), [1.5, 2.0],
                        {0: (POSITIVE, NonPositiveSize), 1: (POSITIVE, NonPositiveDepth)}),
    "PixelTransform": (lambda a: PixelTransform(*a), [1.5, 1.5, 2.0, -3.0, 96, 72],
                       {0: (POSITIVE, NonPositiveScale), 1: (POSITIVE, NonPositiveScale), 2: (NUMBER, CamGeomError),
                        3: (NUMBER, CamGeomError), 4: (COUNT, BelowMinimum), 5: (COUNT, BelowMinimum)}),
    "PixelTransform.scaling": (lambda a: PixelTransform.scaling(*a), [1.5, 64, 48],
                               {0: (POSITIVE, NonPositiveScale), 1: (COUNT, BelowMinimum), 2: (COUNT, BelowMinimum)}),
    "TokenGridSpec": (lambda a: TokenGridSpec(*a), [3, 4, 14.0],
                      {0: (COUNT, BelowMinimum), 1: (COUNT, BelowMinimum), 2: (NUMBER, BelowMinimum)}),
    "TokenGridSpec.cover": (lambda a: TokenGridSpec.cover(K, *a), [14.0], {0: (NUMBER, BelowMinimum)}),
    "sinusoid_features": (lambda a: sinusoid_features(np.zeros(3), 4, *a), [100.0], {0: (POSITIVE, CamGeomError)}),
    "embed": (lambda a: embed(RAYS, K, 16, *a), [10000.0, 1000.0],
              {0: (POSITIVE, CamGeomError), 1: (POSITIVE, CamGeomError)}),
    "embed_points": (lambda a: embed_points(POINTS, 12, *a), [100.0], {0: (POSITIVE, CamGeomError)}),
    "sinusoid_features.dim": (lambda a: sinusoid_features(np.zeros(3), a[0], 100.0), [4], {0: (COUNT, BadDimension)}),
    "embed.dim": (lambda a: embed(RAYS, K, a[0]), [16], {0: (COUNT, BadDimension)}),
    "embed_points.dim": (lambda a: embed_points(POINTS, a[0]), [12], {0: (COUNT, BadDimension)}),
    "AugmentationPolicy": (lambda a: AugmentationPolicy((a[0], a[1]), a[2], "pad", a[3]), [0.7, 1.4, 0.15, 7],
                           {0: (POSITIVE, CamGeomError), 1: (POSITIVE, CamGeomError), 2: (NUMBER, CamGeomError),
                            3: (COUNT, CamGeomError)}),
    "OrientedBox3": (lambda a: OrientedBox3(a[0:3], a[3:6], *a[6:]), [1.0, -2.0, 3.0, 1.5, 0.5, 2.0, 0.3, 0.0, -0.1],
                     {i: (POSITIVE if 3 <= i < 6 else NUMBER, DegenerateBox) for i in range(9)}),
    "OrientedBox3.from_list": (OrientedBox3.from_list, [1.0, -2.0, 3.0, 1.5, 0.5, 2.0, 0.3, 0.0, -0.1],
                               {i: (POSITIVE if 3 <= i < 6 else NUMBER, DegenerateBox) for i in range(9)}),
    "match_and_score": (lambda a: match_and_score([], [], *a), [0.5], {0: (POSITIVE, BadThreshold)}),
    "biased_depth_estimate": (lambda a: biased_depth_estimate(*a), [100.0, 1.5, 500.0],
                              {i: (POSITIVE, NonPositiveInput) for i in range(3)}),
    "aware_depth_estimate": (lambda a: aware_depth_estimate(a[0], a[1], K), [100.0, 1.5],
                             {i: (POSITIVE, NonPositiveInput) for i in range(2)}),
    "make_witness": (lambda a: make_witness((a[0], a[1], a[2]), "focal_depth", a[3]), [500.0, 2.0, 4.0, 2.0],
                     {i: (POSITIVE, NonPositiveFactor) for i in range(4)}),
    "make_witness-coupled": (lambda a: make_witness((500.0, 2.0, 4.0), "coupled", (a[0], a[1])), [1.7, 0.4],
                             {i: (POSITIVE, NonPositiveFactor) for i in range(2)}),
    "SizePrior": (lambda a: SizePrior(*a), [0.85, 0.1], {0: (POSITIVE, NonPositiveFactor), 1: (NUMBER, CamGeomError)}),
    "generate_scenes": (lambda a: generate_scenes(a[0], [K], seed=a[1], objects_per_scene=a[2]), [1, 3, 2],
                        {i: (COUNT, BelowMinimum) for i in range(3)}),
}
FIELDS = [(site, index) for site, (_, _, fields) in SITES.items() for index in fields]

_NOT_A_NUMBER = st.one_of(
    st.booleans(),
    st.text(max_size=4),
    st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf"), None, (1.0,)]),
    st.integers(min_value=10**400),
    st.integers(max_value=-10**400),
)
_NOT_INTEGRAL = st.floats(-1e6, 1e6).filter(lambda x: not x.is_integer())


@SETTINGS
@given(st.sampled_from(FIELDS), st.data())
def test_a_value_outside_the_rule_raises_the_sites_error_class(field, data):
    site, index = field
    call, valid, fields = SITES[site]
    kind, error = fields[index]
    args = list(valid)
    args[index] = data.draw(_NOT_A_NUMBER | _NOT_INTEGRAL if kind == COUNT else _NOT_A_NUMBER)
    with pytest.raises(CamGeomError) as info:
        call(args)
    assert type(info.value) is error, info.value


@pytest.mark.parametrize("site", sorted(SITES))
def test_valid_arguments_pass(site):
    call, valid, _ = SITES[site]
    call(valid)


# each of these went through, or raised TypeError, AttributeError, AssertionError or a plain ValueError, before
# the shared rule
REJECTED = {
    "transform-bool-extent": (lambda: PixelTransform(1, 1, 0, 0, True, 5), BelowMinimum),
    "transform-text-scale": (lambda: PixelTransform("2", 1, 0, 0, 5, 5), NonPositiveScale),
    "transform-inf-scale": (lambda: PixelTransform(math.inf, 1, 0, 0, 5, 5), NonPositiveScale),
    "transform-nan-offset": (lambda: PixelTransform(1, 1, math.nan, 0, 5, 5), CamGeomError),
    "scaling-bool-width": (lambda: PixelTransform.scaling(2.0, True, 5), BelowMinimum),
    "grid-bool-extents": (lambda: TokenGridSpec(True, True, 14), BelowMinimum),
    "grid-fractional-rows": (lambda: TokenGridSpec(2.5, 3, 14), BelowMinimum),
    "grid-text-rows": (lambda: TokenGridSpec("3", 4, 14), BelowMinimum),
    "grid-text-patch": (lambda: TokenGridSpec(3, 4, "14"), BelowMinimum),
    "policy-bool-seed": (lambda: AugmentationPolicy(seed=True), CamGeomError),
    "policy-text-scale-range": (lambda: AugmentationPolicy(scale_range=("0.7", "1.4")), CamGeomError),
    "policy-three-entry-scale-range": (lambda: AugmentationPolicy(scale_range=(1.0, 2.0, 3.0)), CamGeomError),
    "policy-scalar-scale-range": (lambda: AugmentationPolicy(scale_range=1.0), CamGeomError),
    "projected-height-bool": (lambda: projected_height(True, 2.0, K), NonPositiveSize),
    "witness-bool-base": (lambda: make_witness((500.0, True, 2.0), "focal_depth", 2), NonPositiveFactor),
    "witness-coupled-scalar-factor": (lambda: make_witness((500.0, 2.0, 4.0), "coupled", 2.0), NonPositiveFactor),
    "witness-coupled-three-factors": (lambda: make_witness((500.0, 2.0, 4.0), "coupled", (1.0, 2.0, 3.0)),
                                      NonPositiveFactor),
    "witness-two-entry-base": (lambda: make_witness((500.0, 2.0), "focal_depth", 2.0), NonPositiveFactor),
    "witness-four-entry-base": (lambda: make_witness((500.0, 2.0, 4.0, 1.0), "focal_depth", 2.0), NonPositiveFactor),
    "witness-variant-focal-overflows": (lambda: make_witness((1e10, 1, 1), "focal_depth", 1e300), NonPositiveFactor),
    "witness-variant-focal-subnormal": (lambda: make_witness((1e-300, 1, 1), "focal_depth", 1e-20),
                                        NonPositiveFactor),
    "witness-variant-depth-overflows": (lambda: make_witness((1, 1, 1), "coupled", (1e200, 1e200)), NonPositiveFactor),
    "box-text-center": (lambda: OrientedBox3(("0", 0, 0), (1, 1, 1), 0, 0, 0), DegenerateBox),
    "box-list-of-text": (lambda: OrientedBox3.from_list(["1"] * 9), DegenerateBox),
    "box-scalar-center": (lambda: OrientedBox3(1.0, (1, 1, 1), 0, 0, 0), DegenerateBox),
    "box-none-center": (lambda: OrientedBox3(None, (1, 1, 1), 0, 0, 0), DegenerateBox),
    "size-prior-text-spread": (lambda: SizePrior(1.0, "0.1"), CamGeomError),
    "scenes-fractional-count": (lambda: generate_scenes(2.5, [K]), BelowMinimum),
    "scenes-reversed-depth-range": (lambda: generate_scenes(1, [K], depth_range=(5.0, 1.0)), CamGeomError),
    "scenes-negative-near-depth": (lambda: generate_scenes(1, [K], depth_range=(-1e-3, 8.0)), NonPositiveDepth),
    "scenes-one-entry-prior": (lambda: generate_scenes(1, [K], size_priors={"car": (1.0,)}), CamGeomError),
    "scenes-scalar-prior": (lambda: generate_scenes(1, [K], size_priors={"car": 1.0}), CamGeomError),
    "scenes-empty-priors": (lambda: generate_scenes(1, [K], size_priors={}), CamGeomError),
    "scenes-list-of-priors": (lambda: generate_scenes(1, [K], size_priors=[("car", (1.0, 0.0))]), CamGeomError),
    "threshold-text": (lambda: match_and_score([], [], threshold="0.5"), BadThreshold),
    "point-text": (lambda: Point3("1", 0, 1), CamGeomError),
    "raster-two-channels": (lambda: RasterImage(np.zeros((4, 4, 2), np.uint8)), BadDimension),
    "raster-float64": (lambda: RasterImage(np.zeros((4, 4, 3))), BadDimension),
    "depth-mask-shape": (lambda: DepthMap(np.ones((2, 2)), np.ones((2, 3), bool)), BadDimension),
    "depth-valid-zero": (lambda: DepthMap(np.array([[1.0, 0.0]]), np.array([[True, True]])), NonPositiveDepth),
    "points-two-coordinates": (lambda: PointGrid(np.zeros((2, 2, 2)), np.ones((2, 2), bool)), BadDimension),
    "rays-shape": (lambda: RayGrid(np.zeros((2, 2)), np.zeros((2, 3))), BadDimension),
    "rays-nan": (lambda: RayGrid(np.array([[np.nan]]), np.zeros((1, 1))), InvalidValue),
    "embedding-dim": (lambda: EmbeddingGrid(np.zeros((2, 2, 4)), 8, ("a",), 100.0), BadDimension),
    "detection-blank-label": (lambda: Detection("  ", OrientedBox3((0, 0, 1), (1, 1, 1), 0, 0, 0)), InvalidValue),
    # the library's own arrays go through the same checks
    "adopted-raster-two-channels": (lambda: _adopt(RasterImage, np.zeros((4, 4, 2), np.uint8)), BadDimension),
    "adopted-depth-mask-shape": (lambda: _adopt(DepthMap, np.ones((2, 2)), np.ones((2, 3), bool)), BadDimension),
    "adopted-depth-valid-inf": (lambda: _adopt(DepthMap, np.array([[np.inf]]), np.array([[True]])), NonPositiveDepth),
    "adopted-points-two-coordinates": (lambda: _adopt(PointGrid, np.zeros((2, 2, 2)), np.ones((2, 2), bool)),
                                       BadDimension),
    "adopted-embedding-dim": (lambda: _adopt(EmbeddingGrid, np.zeros((2, 2, 4)), 8, ("a",), 100.0, {}),
                              BadDimension),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_rejected_input(case):
    call, error = REJECTED[case]
    with pytest.raises(CamGeomError) as info:
        call()
    assert type(info.value) is error, info.value


# value type -> (build from one float field, read that field back, valid values of the field)
STORED = {
    "Intrinsics.fx": (lambda v: Intrinsics(v, 500, 32, 24, 64, 48), lambda k: k.fx, (1e-3, 1e6)),
    "Intrinsics.cx": (lambda v: Intrinsics(500, 500, v, 24, 64, 48), lambda k: k.cx, (-1e6, 1e6)),
    "PixelTransform.sx": (lambda v: PixelTransform(v, 1, 0, 0, 5, 5), lambda t: t.sx, (1e-3, 1e3)),
    "PixelTransform.du": (lambda v: PixelTransform(1, 1, v, 0, 5, 5), lambda t: t.du, (-1e6, 1e6)),
    "TokenGridSpec.patch": (lambda v: TokenGridSpec(2, 2, v), lambda g: g.patch, (1, 1e3)),
    "AugmentationPolicy.lo": (lambda v: AugmentationPolicy((v, 1e3)), lambda p: p.scale_range[0], (1e-3, 1e3)),
    "AugmentationPolicy.shift": (lambda v: AugmentationPolicy(shift_fraction=v), lambda p: p.shift_fraction, (0, 0.5)),
    "OrientedBox3.center": (lambda v: OrientedBox3((v, 0, 0), (1, 1, 1), 0, 0, 0), lambda b: b.center[0], (-1e6, 1e6)),
    "OrientedBox3.size": (lambda v: OrientedBox3((0, 0, 0), (v, 1, 1), 0, 0, 0), lambda b: b.size[0], (1e-3, 1e3)),
    "OrientedBox3.yaw": (lambda v: OrientedBox3((0, 0, 0), (1, 1, 1), v, 0, 0), lambda b: b.yaw, (-10, 10)),
}


@st.composite
def stored_values(draw):
    name = draw(st.sampled_from(sorted(STORED)))
    lo, hi = STORED[name][2]
    value = draw(st.one_of(
        st.integers(math.ceil(lo), math.floor(hi)),
        st.floats(lo, hi, allow_subnormal=False),
        st.floats(lo, hi, allow_subnormal=False).map(np.float64),
    ))
    return name, value


@SETTINGS
@given(stored_values())
def test_valid_numbers_are_stored_as_the_same_floats(case):
    name, value = case
    build, read, _ = STORED[name]
    stored = read(build(value))
    assert type(stored) is float and stored.hex() == float(value).hex()


def test_integral_float_dims_are_counts():
    assert np.array_equal(sinusoid_features(np.zeros(3), 4.0, 100.0), sinusoid_features(np.zeros(3), 4, 100.0))
    assert np.array_equal(embed(RAYS, K, dim=8.0).data, embed(RAYS, K, dim=8).data)
    assert np.array_equal(embed_points(POINTS, dim=6.0).data, embed_points(POINTS, dim=6).data)


@pytest.mark.parametrize("value", [7, 7.0, np.float64(7.0)])
def test_counts_are_stored_as_ints(value):
    stored = (Intrinsics(1, 1, 0, 0, value, value).width, PixelTransform(1, 1, 0, 0, value, 1).out_width,
              TokenGridSpec(value, 1, 1).rows)
    assert all(type(s) is int and s == 7 for s in stored)
