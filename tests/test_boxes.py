"""Oriented box geometry and IoU, checked against closed forms and Monte Carlo."""

import dataclasses
import hashlib
import itertools
import math
import struct

import numpy as np
import pytest

from camgeom import OrientedBox3, aabb_iou, box_corners, iou3d
from camgeom.boxes import (
    _aligned_overlap,
    _geometry,
    _geometry_pass,
    box_face_polygons,
    clipped_intersection_volume,
    intersection_volume,
    polytope_volume,
    rotation_matrix,
)
from camgeom.errors import DegenerateBox
from oracles import face_list_intersection_volume, monte_carlo_iou, random_box


class TestBoxBasics:
    def test_nine_tuple_round_trip(self):
        values = [-0.5, -0.0, 0.7, 0.9, 0.4, 2.0, -2.5, 1.1, -2.9]
        box = OrientedBox3.from_list(values)
        assert box.to_list() == values

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateBox):
            OrientedBox3((0, 0, 0), (1, 0, 1), 0, 0, 0)
        with pytest.raises(DegenerateBox):
            OrientedBox3((0, 0, 0), (1, -1, 1), 0, 0, 0)
        with pytest.raises(DegenerateBox):
            OrientedBox3((0, 0, math.nan), (1, 1, 1), 0, 0, 0)
        with pytest.raises(DegenerateBox):
            OrientedBox3.from_list([0, 0, 0, 1, 1, 1, 0, 0])

    @pytest.mark.parametrize("size", [1e-120, 1e120])
    def test_volume_must_be_finite_and_positive(self, size):
        # each size is valid alone; the volume underflows to 0 or overflows to inf
        with pytest.raises(DegenerateBox):
            OrientedBox3((0, 0, 0), (size, size, size), 0, 0, 0)

    def test_unit_cube_corners(self):
        box = OrientedBox3((0, 0, 0), (1, 1, 1), 0, 0, 0)
        corners = box_corners(box)
        expected = {(sx, sy, sz) for sx in (-0.5, 0.5) for sy in (-0.5, 0.5) for sz in (-0.5, 0.5)}
        assert {tuple(c) for c in corners} == expected

    def test_quarter_yaw_swaps_xy_extents(self):
        box = OrientedBox3((0, 0, 0), (2, 1, 1), math.pi / 2, 0, 0)
        corners = box_corners(box)
        spans = corners.max(axis=0) - corners.min(axis=0)
        np.testing.assert_allclose(spans, [1, 2, 1], atol=1e-12)

    def test_corner_set_invariant_under_full_turn(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            box = random_box(rng)
            shifted = OrientedBox3(box.center, box.size, box.yaw + 2 * math.pi, box.pitch, box.roll)
            a = np.asarray(sorted(map(tuple, box_corners(box))))
            b = np.asarray(sorted(map(tuple, box_corners(shifted))))
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_face_polygons_reproduce_volume(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            box = random_box(rng)
            vol = polytope_volume(box_face_polygons(box))
            assert vol == pytest.approx(box.volume(), rel=1e-12)


class TestIoU3d:
    def test_identical_boxes_any_pose(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            box = random_box(rng)
            assert iou3d(box, box) == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_boxes(self):
        a = OrientedBox3((0, 0, 0), (1, 1, 1), 0.3, 0.2, 0.1)
        b = OrientedBox3((10, 0, 0), (1, 1, 1), 1.0, 0.5, 0.2)
        assert iou3d(a, b) == 0.0

    def test_axis_aligned_half_offset(self):
        a = OrientedBox3((0, 0, 0), (1, 1, 1), 0, 0, 0)
        b = OrientedBox3((0.5, 0, 0), (1, 1, 1), 0, 0, 0)
        assert iou3d(a, b) == pytest.approx(1 / 3, abs=1e-12)

    def test_touching_boxes_have_zero_overlap(self):
        a = OrientedBox3((0, 0, 0), (1, 1, 1), 0, 0, 0)
        b = OrientedBox3((1.0, 0, 0), (1, 1, 1), 0, 0, 0)
        assert iou3d(a, b) == 0.0

    def test_contained_box(self):
        outer = OrientedBox3((0, 0, 0), (2, 2, 2), 0, 0, 0)
        inner = OrientedBox3((0.1, -0.2, 0.3), (1, 0.5, 0.25), 0.7, 0.2, -0.4)
        assert iou3d(outer, inner) == pytest.approx(inner.volume() / outer.volume(), rel=1e-9)

    def test_rotated_square_classic_octagon(self):
        # unit cube vs itself yawed 45 deg: intersection area 2(sqrt(2)-1)
        # per slice, IoU = 1/sqrt(2)
        a = OrientedBox3((0, 0, 0), (1, 1, 1), 0, 0, 0)
        b = OrientedBox3((0, 0, 0), (1, 1, 1), math.pi / 4, 0, 0)
        inter = 2 * (math.sqrt(2) - 1)
        assert iou3d(a, b) == pytest.approx(inter / (2 - inter), rel=1e-12)

    def test_axis_aligned_matches_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = OrientedBox3(tuple(rng.uniform(-1, 1, 3)), tuple(rng.uniform(0.2, 2, 3)), 0, 0, 0)
            b = OrientedBox3(tuple(rng.uniform(-1, 1, 3)), tuple(rng.uniform(0.2, 2, 3)), 0, 0, 0)
            assert iou3d(a, b) == pytest.approx(aabb_iou(a, b), abs=1e-12)

    def test_clipper_itself_matches_closed_form_on_axis_aligned(self):
        # equal-attitude pairs normally take the frame-overlap shortcut; pin
        # the clipping pipeline against the closed form directly
        rng = np.random.default_rng(12)
        for _ in range(50):
            a = OrientedBox3(tuple(rng.uniform(-1, 1, 3)), tuple(rng.uniform(0.2, 2, 3)), 0, 0, 0)
            b = OrientedBox3(tuple(rng.uniform(-1, 1, 3)), tuple(rng.uniform(0.2, 2, 3)), 0, 0, 0)
            clipped = clipped_intersection_volume(a, b)
            assert clipped == pytest.approx(intersection_volume(a, b), abs=1e-12)

    def test_clipper_matches_shortcut_for_equal_attitudes(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            box = random_box(rng, center_span=0.5)
            other = OrientedBox3(
                tuple(rng.uniform(-0.5, 0.5, 3)), tuple(rng.uniform(0.3, 2, 3)),
                box.yaw, box.pitch, box.roll,
            )
            assert clipped_intersection_volume(box, other) == pytest.approx(
                intersection_volume(box, other), abs=1e-9
            )

    def test_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            a = random_box(rng)
            b = random_box(rng)
            assert iou3d(a, b) == pytest.approx(iou3d(b, a), abs=1e-9)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            a = random_box(rng)
            b = random_box(rng, center_span=1.0)
            base = iou3d(a, b)
            # common yaw + translation applied to both boxes
            yaw = rng.uniform(-math.pi, math.pi)
            shift = rng.uniform(-5, 5, size=3)
            rot = np.array(
                [[math.cos(yaw), -math.sin(yaw), 0], [math.sin(yaw), math.cos(yaw), 0], [0, 0, 1]]
            )
            moved = []
            for box in (a, b):
                center = rot @ np.asarray(box.center) + shift
                moved.append(OrientedBox3(tuple(center), box.size, box.yaw + yaw, box.pitch, box.roll))
            assert iou3d(moved[0], moved[1]) == pytest.approx(base, abs=1e-9)

    def test_monte_carlo_oracle_spot_check(self):
        # the full 200-pair x 1e6-sample sweep runs in the acceptance suite
        rng = np.random.default_rng(19)
        for _ in range(20):
            a = random_box(rng, center_span=1.0)
            b = random_box(rng, center_span=1.0)
            estimate = monte_carlo_iou(a, b, 200_000, rng)
            assert iou3d(a, b) == pytest.approx(estimate, abs=8e-3)

    def test_intersection_volume_commutes(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            a = random_box(rng, center_span=1.0)
            b = random_box(rng, center_span=1.0)
            assert intersection_volume(a, b) == pytest.approx(intersection_volume(b, a), abs=1e-9)

    def test_equal_attitudes_whose_offset_overflows_are_disjoint(self):
        # b - a overflows to inf, which the frame product would turn into NaN
        a = OrientedBox3((-1e308, -1e308, -1e308), (1, 1, 1), 0.3, 0.2, 0.1)
        b = dataclasses.replace(a, center=(1e308, 1e308, 1e308))
        assert intersection_volume(a, b) == iou3d(a, b) == 0.0

    def test_equal_attitudes_whose_frame_product_would_overflow_are_disjoint(self):
        # b - a = (1.7e308, 1.7e308, 0) is finite, but not once turned into the box frame
        a = OrientedBox3((-0.85e308, 0, 0), (1, 1, 1), 0.7, 0, 0)
        b = OrientedBox3((0.85e308, 1.7e308, 0), (1, 1, 1), 0.7, 0, 0)
        assert iou3d(a, b) == 0.0

    def test_offsets_whose_sum_overflows_are_measured_in_half_lengths_exactly(self):
        # the frame maps (x, x, 0) onto (x, 0, 0), so these far boxes meet; the overlap must be
        # that of the same pair shrunk by 2**-10, which takes the plain path, scaled back exactly
        frame = np.array([[0.5, -0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])

        def pair(unit):
            size = (1.5e308 * unit, unit, unit)
            return (OrientedBox3((-0.6e308 * unit, -0.6e308 * unit, 0), size, 0, 0, 0),
                    OrientedBox3((0.6e308 * unit, 0.6e308 * unit, 0), size, 0, 0, 0))

        far = _aligned_overlap(*pair(1.0), frame)
        assert far > 0 and far == 2.0**30 * _aligned_overlap(*pair(2.0**-10), frame)


class TestGeometryKeptOnTheBox:
    def test_each_rotation_order_gets_its_own_geometry(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            a, b = random_box(rng, center_span=0.5), random_box(rng, center_span=0.5)
            for first, second in (("zyx", "xyz"), ("xyz", "zyx")):
                used = [dataclasses.replace(box) for box in (a, b)]
                iou3d(*used, order=first)
                fresh = [dataclasses.replace(box) for box in (a, b)]
                assert iou3d(*used, order=second) == iou3d(*fresh, order=second)

    def test_used_box_keeps_its_dataclass_behaviour(self):
        rng = np.random.default_rng(37)
        a, b = random_box(rng, center_span=0.5), random_box(rng, center_span=0.5)
        fresh = dataclasses.replace(a)
        iou3d(a, b)
        assert a == fresh and hash(a) == hash(fresh) and repr(a) == repr(fresh)
        moved = dataclasses.replace(a, center=(0.2, -0.1, 0.3), yaw=0.4)
        assert moved != a
        assert iou3d(moved, b) == iou3d(OrientedBox3((0.2, -0.1, 0.3), a.size, 0.4, a.pitch, a.roll), b)


ORDERS = ["".join(p) for p in itertools.permutations("xyz")]
SPECIAL_ANGLES = [0.0, -0.0, math.pi, -math.pi, math.pi / 2, -math.pi / 2, 3 * math.pi / 2, 1e-9, 1e-300, 5e-324]


def _attitudes() -> np.ndarray:
    """Seeded draws in +-pi and +-1e3, then every triple of special angles, all-zero and mixed rows among them."""
    rng = np.random.default_rng(47)
    drawn = [rng.uniform(-math.pi, math.pi, (300, 3)), rng.uniform(-1e3, 1e3, (300, 3))]
    return np.concatenate([*drawn, list(itertools.product(SPECIAL_ANGLES, repeat=3))])


class TestRotationsOnArrays:
    """One rotation_matrix serves floats and arrays; the arrays' rows are the floats' bits."""

    @pytest.mark.parametrize("order", ORDERS)
    def test_each_row_is_the_scalar_rotation_bit_for_bit(self, order):
        attitudes = _attitudes()
        batch = rotation_matrix(*attitudes.T, order=order)
        assert batch.shape == (len(attitudes), 3, 3)
        off = [tuple(row) for row, rot in zip(attitudes.tolist(), batch)
               if rot.tobytes() != rotation_matrix(*row, order=order).tobytes()]
        assert not off, off[:5]

    def test_zero_rows_are_the_identity_with_positive_zeros(self):
        rows = np.array([[0.0, 0.0, 0.0], [0.3, 0.0, 0.0], [-0.0, 0.0, -0.0], [0.0, 1e-300, 0.0]])
        for order in ORDERS:
            batch = rotation_matrix(*rows.T, order=order)
            assert batch[0].tobytes() == batch[2].tobytes() == np.eye(3).tobytes()
            assert batch[1].tobytes() != np.eye(3).tobytes()

    @pytest.mark.parametrize("order", ["zyx", "xzy"])
    def test_the_pass_writes_what_one_box_gets(self, order):
        rng = np.random.default_rng(53)
        boxes = [random_box(rng, center_span=50.0) for _ in range(30)]
        boxes += [dataclasses.replace(box, yaw=0.0, pitch=0.0, roll=0.0) for box in boxes[:5]]
        boxes += [dataclasses.replace(box, yaw=0.0, roll=0.0) for box in boxes[5:10]]
        attitude, lo, hi = _geometry_pass(boxes, order)
        for k, box in enumerate(boxes):
            rot, low, high = box.__dict__["_geometry"][order]
            alone = dataclasses.replace(box)
            corners = box_corners(alone, order)
            assert rot.tobytes() == alone.rotation(order).tobytes() == _geometry(alone, order)[0].tobytes()
            assert repr((low, high)) == repr((corners.min(axis=0).tolist(), corners.max(axis=0).tolist()))
            assert repr((low, high)) == repr(_geometry(alone, order)[1:]) == repr((lo[k].tolist(), hi[k].tolist()))
            assert attitude[k].tolist() == [box.yaw, box.pitch, box.roll]


class TestAabbIoU:
    def test_volumes_whose_sum_overflows(self):
        # each volume is 1e308, so va + vb is inf; the union must not be
        box = OrientedBox3((0, 0, 0), (1e154, 1e154, 1), 0, 0, 0)
        half = dataclasses.replace(box, center=(5e153, 0, 0))
        assert iou3d(box, box) == aabb_iou(box, box) == 1.0
        assert iou3d(box, half) == aabb_iou(box, half) == pytest.approx(1 / 3, rel=1e-15)

    def test_ignores_rotation_by_design(self):
        a = OrientedBox3((0, 0, 0), (2, 1, 1), math.pi / 2, 0, 0)
        b = OrientedBox3((0, 0, 0), (2, 1, 1), 0, 0, 0)
        assert aabb_iou(a, b) == 1.0
        assert iou3d(a, b) < 1.0

    def test_disjoint(self):
        a = OrientedBox3((0, 0, 0), (1, 1, 1), 0, 0, 0)
        b = OrientedBox3((5, 5, 5), (1, 1, 1), 0, 0, 0)
        assert aabb_iou(a, b) == 0.0

    @pytest.mark.parametrize("size, x", [((1e-8, 1, 1), 1e8), ((0.001, 1, 1), 12345.678)])
    def test_box_far_from_the_origin_against_itself(self, size, x):
        # absolute corners once lost the thin side to rounding (0.0) or overshot it (above 1)
        box = OrientedBox3((x, 0, 0), size, 0, 0, 0)
        assert aabb_iou(box, box) == iou3d(box, box) == 1.0

    def test_offset_that_overflows_is_disjoint(self):
        a = OrientedBox3((-1e308, 0, 0), (1, 1, 1), 0, 0, 0)
        b = dataclasses.replace(a, center=(1e308, 0, 0))
        assert aabb_iou(a, b) == aabb_iou(b, a) == 0.0


def _pinned_pairs() -> list[tuple[OrientedBox3, OrientedBox3]]:
    """64 seeded pairs: 16 overlapping, 12 AABB-disjoint, 12 nested,
    12 near-coincident and 12 at eval's 10-60 m range (true positives and
    near misses)."""
    rng = np.random.default_rng(29)
    pairs = [(random_box(rng, center_span=0.5), random_box(rng, center_span=0.5)) for _ in range(16)]
    for _ in range(12):
        a, b = random_box(rng), random_box(rng)
        pairs.append((a, dataclasses.replace(b, center=np.add(b.center, (12.0, 0.0, 0.0)))))
    for _ in range(12):
        outer = random_box(rng, size_range=(2.0, 3.0))
        inner = random_box(rng, size_range=(0.2, 0.5))
        pairs.append((outer, dataclasses.replace(inner, center=np.add(outer.center, rng.uniform(-0.1, 0.1, 3)))))
    for _ in range(12):
        a = random_box(rng)
        pairs.append((a, OrientedBox3(
            np.add(a.center, rng.uniform(-1e-3, 1e-3, 3)), np.multiply(a.size, rng.uniform(0.999, 1.001, 3)),
            *np.add((a.yaw, a.pitch, a.roll), rng.uniform(-1e-3, 1e-3, 3)),
        )))
    for k in range(12):
        center = (rng.uniform(-25, 25), rng.uniform(-1, 1), rng.uniform(10, 60))
        truth = OrientedBox3(center, rng.uniform(0.6, 2.5, 3), rng.uniform(-math.pi, math.pi),
                             *rng.uniform(-0.2, 0.2, 2))
        shift = (0.75 * truth.size[0], 0.0, 0.0) if k % 2 else np.multiply(truth.size, rng.uniform(-0.03, 0.03, 3))
        pairs.append((truth, OrientedBox3(
            np.add(center, shift), np.multiply(truth.size, rng.uniform(0.95, 1.05, 3)),
            *np.add((truth.yaw, truth.pitch, truth.roll), rng.uniform(-0.03, 0.03, 3)),
        )))
    return pairs


# iou3d of each _pinned_pairs() pair, as computed before the clipper ran on plain floats
PINNED_IOU = [
    0.01954726521585923, 0.08070800345835602, 0.03616480950449535, 0.08400799542339543,
    0.2246069710251274, 0.08802974739809745, 0.1139056318243126, 0.07255159536373658,
    0.08343332192701719, 0.1568108057743226, 0.326501940717581, 0.10229149381480601,
    0.4117878276414817, 0.17903335675161777, 0.040840873047589356, 0.13757077316896232,
    0.0, 0.0, 0.0, 0.0,
    0.0, 0.0, 0.0, 0.0,
    0.0, 0.0, 0.0, 0.0,
    0.002316104795864545, 0.0018912940665452786, 0.0013035448436614853, 0.002460318744124186,
    0.0031500570009503942, 0.004907423675676697, 0.0024867573151822675, 0.002030055671380034,
    0.0036546449385671713, 0.006473482299700674, 0.0023108114452887996, 0.0016581149635599944,
    0.9977077727745453, 0.9970583491455821, 0.9972131941341681, 0.9931775037925946,
    0.9947553207189285, 0.9956532552112392, 0.9967052442895384, 0.9975124605372774,
    0.996385850521637, 0.9977624411750194, 0.997433676908451, 0.9939408274641753,
    0.8834931782288172, 0.13547920109546188, 0.891876857804409, 0.0,
    0.8995292788632758, 0.0, 0.8556669946439461, 0.09369855963277737,
    0.8768440994829025, 0.0, 0.9057762813984197, 0.002865036827269051,
]


class TestPinnedIoU:
    def test_matches_pinned_values(self):
        got = [iou3d(a, b) for a, b in _pinned_pairs()]
        off = [(k, value, pinned) for k, (value, pinned) in enumerate(zip(got, PINNED_IOU))
               if abs(value - pinned) > 1e-11]
        assert len(got) == len(PINNED_IOU) == 64 and not off, off


def _bit_pairs(n: int = 200) -> list[tuple[OrientedBox3, OrientedBox3]]:
    """Seeded overlapping pairs: n each with zero, equal non-zero and differing attitudes."""
    rng = np.random.default_rng(41)
    pairs = []
    for kind in ("zero", "equal", "differ"):
        for _ in range(n):
            a, b = random_box(rng, center_span=0.6), random_box(rng, center_span=0.6)
            if kind == "zero":
                a, b = (dataclasses.replace(box, yaw=0.0, pitch=0.0, roll=0.0) for box in (a, b))
            elif kind == "equal":
                b = dataclasses.replace(b, yaw=a.yaw, pitch=a.pitch, roll=a.roll)
            pairs.append((a, b))
    return pairs


# SHA-256 of the float64 bits of iou3d and intersection_volume (zyx, xyz) over the zero- and
# equal-attitude pairs of _bit_pairs(), taken before the clipper moved into the first box's frame
PINNED_SAME_ATTITUDE_SHA256 = "dbb0776c7697e0fc4373c1722342a82e9019d574b21a24bfddf5c202b6ffddc8"
# the same over the differing-attitude pairs, taken once the clipper ran on one shared-vertex mesh:
# each crossing is now made once, from its inside end, and each cap is walked in another order than
# the angle sort gave, so last bits moved; the oracle face_list_intersection_volume keeps the old clipper
PINNED_DIFFERING_ATTITUDE_SHA256 = "7a3ec1fefc225b389e09ac6b817c29495f6ca2cc832101cbebda520c9e7ab41e"
# the same of aabb_iou over all of _bit_pairs(), taken once it measured from the first box's center
PINNED_AABB_SHA256 = "13ea555d2e680d16089fc312b7766f43e928e5114ffb3ee00da4fdb89ac82280"


def _overlap_digest(pairs) -> str:
    digest = hashlib.sha256()
    for a, b in pairs:
        digest.update(struct.pack("<3d", iou3d(a, b), intersection_volume(a, b, "zyx"),
                                  intersection_volume(a, b, "xyz")))
    return digest.hexdigest()


class TestPinnedOverlapBits:
    def test_equal_attitude_results_are_bit_identical(self):
        assert _overlap_digest(_bit_pairs()[:400]) == PINNED_SAME_ATTITUDE_SHA256

    def test_differing_attitude_results_are_bit_identical(self):
        assert _overlap_digest(_bit_pairs()[400:]) == PINNED_DIFFERING_ATTITUDE_SHA256

    def test_aabb_results_are_bit_identical(self):
        digest = hashlib.sha256()
        for a, b in _bit_pairs():
            digest.update(struct.pack("<d", aabb_iou(a, b)))
        assert digest.hexdigest() == PINNED_AABB_SHA256


class TestAgreesWithTheFaceListClipper:
    @pytest.mark.parametrize("order", ["zyx", "xyz"])
    def test_volumes_agree_to_rounding(self, order):
        off = []
        for k, (a, b) in enumerate(_bit_pairs()[400:] + _pinned_pairs()):
            got, want = clipped_intersection_volume(a, b, order), face_list_intersection_volume(a, b, order)
            if abs(got - want) > 1e-12 * min(a.volume(), b.volume()):
                off.append((k, got, want))
        assert not off, off


class TestIoUDependsOnTheBoxesAlone:
    """Neither where a pair sits nor the unit of its coordinates changes its IoU.

    The world-frame clipper scored these pairs 1.0 or 0.3685 where the same pair
    at the origin and in meters scores 0.4933, and scored (a, b) and (b, a) apart.
    """

    @pytest.mark.parametrize("x", [2.0**27, 2.0**30, 2.0**40])
    def test_pair_far_from_the_origin(self, x):
        a = OrientedBox3((0, 0, 0), (1, 1, 1), 0, 0, 0)
        b = OrientedBox3((0.25, 0, 0), (1, 1, 1), 0.5, 0, 0)
        far_a, far_b = (dataclasses.replace(box, center=(box.center[0] + x, 0, 0)) for box in (a, b))
        assert iou3d(far_a, far_b).hex() == iou3d(a, b).hex()
        assert iou3d(far_b, far_a).hex() == iou3d(b, a).hex()
        assert abs(iou3d(far_a, far_b) - iou3d(far_b, far_a)) <= 1e-12

    @pytest.mark.parametrize("s", [2.0**-66, 2.0**66, 2.0**511])
    def test_flat_pair_in_any_unit(self, s):
        def pair(s):
            return (OrientedBox3((0, 0, 0), (s, s, 1), 0, 0, 0), OrientedBox3((0.3 * s, 0, 0), (s, s, 1), 0.5, 0, 0))

        assert abs(iou3d(*pair(s)) - iou3d(*pair(1.0))) <= 1e-12
