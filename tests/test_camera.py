"""Camera model tests: projection, back-projection, projected extents.

Expected values are hand-computed or checked against an independent
homogeneous-matrix oracle (K [R|t] multiply, then dehomogenize).
"""

import json
import math

import numpy as np
import pytest

from camgeom import (
    Intrinsics,
    Pixel,
    Point3,
    back_project,
    project,
    projected_height,
    projected_width,
)
from camgeom.errors import IntrinsicsError, NonPositiveDepth, NonPositiveSize


def _matrix_oracle(point: np.ndarray, rotation: np.ndarray, translation: np.ndarray, k: Intrinsics):
    """Full homogeneous pipeline: s [u v 1]^T = K [R|t] [P_w 1]^T."""
    rt = np.hstack([rotation, translation.reshape(3, 1)])
    uvw = k.matrix() @ rt @ np.append(point, 1.0)
    return uvw[:2] / uvw[2]


class TestIntrinsics:
    def test_validation(self):
        with pytest.raises(IntrinsicsError):
            Intrinsics(-1, 500, 320, 240, 640, 480)
        with pytest.raises(IntrinsicsError):
            Intrinsics(500, 0, 320, 240, 640, 480)
        with pytest.raises(IntrinsicsError):
            Intrinsics(500, 500, math.nan, 240, 640, 480)
        with pytest.raises(IntrinsicsError):
            Intrinsics(500, 500, 320, 240, 0, 480)

    def test_matrix_layout(self):
        k = Intrinsics(500, 600, 320, 240, 640, 480)
        np.testing.assert_array_equal(
            k.matrix(), [[500, 0, 320], [0, 600, 240], [0, 0, 1]]
        )

    def test_json_round_trip_bit_exact(self):
        # awkward non-representable decimals must survive exactly
        k = Intrinsics(580.123456789012, 579.99999999999, 319.5000000001, 239.5, 640, 480)
        back = Intrinsics.from_json(k.to_json())
        assert back == k
        assert back.fx.hex() == k.fx.hex()
        assert back.cx.hex() == k.cx.hex()

    def test_json_rejects_with_positional_message(self):
        with pytest.raises(IntrinsicsError, match=r"intrinsics\.fy: missing"):
            Intrinsics.from_json('{"fx": 500, "cx": 320, "cy": 240, "width": 640, "height": 480}')
        with pytest.raises(IntrinsicsError, match=r"intrinsics\.fx: must be > 0"):
            Intrinsics.from_mapping(
                {"fx": -5, "fy": 500, "cx": 320, "cy": 240, "width": 640, "height": 480}
            )
        with pytest.raises(IntrinsicsError, match=r"cam\.cx: must be a number"):
            Intrinsics.from_mapping(
                {"fx": 5, "fy": 500, "cx": "wide", "cy": 240, "width": 640, "height": 480},
                where="cam",
            )
        with pytest.raises(IntrinsicsError):
            Intrinsics.from_json(json.dumps(
                {"fx": 5, "fy": 500, "cx": 1e999, "cy": 240, "width": 640, "height": 480}
            ).replace("Infinity", "1e999"))

    @pytest.mark.parametrize("name", ["fx", "width"])
    def test_constructor_rejects_bools(self, name):
        # a bool fx read as 1.0, and a bool width wrote JSON that from_mapping rejects
        values = {"fx": 500, "fy": 500, "cx": 320, "cy": 240, "width": 640, "height": 480, name: True}
        with pytest.raises(IntrinsicsError, match=rf"intrinsics\.{name}: must be a number"):
            Intrinsics(**values)

    def test_constructor_rejects_ints_beyond_float_range(self):
        with pytest.raises(IntrinsicsError, match=r"intrinsics\.fx: must be finite"):
            Intrinsics(10**400, 500, 320, 240, 640, 480)


class TestProject:
    def test_optical_axis_hits_principal_point(self):
        k = Intrinsics(1000, 1000, 500, 400, 1000, 800)
        assert project(Point3(0, 0, 3.7), k) == Pixel(500.0, 400.0)

    def test_matches_matrix_oracle(self):
        # u = 500*1/4 + 320 = 445, v = 600*2/4 + 240 = 540
        k = Intrinsics(500, 600, 320, 240, 640, 480)
        p = project(Point3(1, 2, 4), k)
        assert p == Pixel(445.0, 540.0)
        expected = _matrix_oracle(np.array([1.0, 2.0, 4.0]), np.eye(3), np.zeros(3), k)
        np.testing.assert_allclose([p.u, p.v], expected, rtol=1e-12)

    def test_behind_camera_raises(self):
        k = Intrinsics(500, 500, 320, 240, 640, 480)
        with pytest.raises(NonPositiveDepth):
            project(Point3(0, 0, -1), k)
        with pytest.raises(NonPositiveDepth):
            project(Point3(1, 1, 0), k)

    def test_no_clamping_outside_extent(self):
        k = Intrinsics(500, 500, 320, 240, 640, 480)
        p = project(Point3(10, 0, 1), k)
        assert p.u == 5320.0  # far outside the 640 px image, by design

    def test_projection_homogeneity(self):
        # project(lam * P) == project(P) up to <= 1e-12 relative rounding
        k = Intrinsics(731.25, 642.5, 313.7, 251.1, 640, 480)
        rng = np.random.default_rng(7)
        for _ in range(200):
            x, y = rng.uniform(-3, 3, size=2)
            z = rng.uniform(0.1, 50)
            lam = 10.0 ** rng.uniform(-3, 3)
            p = project(Point3(x, y, z), k)
            q = project(Point3(lam * x, lam * y, lam * z), k)
            np.testing.assert_allclose([q.u, q.v], [p.u, p.v], rtol=1e-12)


class TestBackProject:
    def test_principal_point_gives_optical_axis(self):
        k = Intrinsics(500, 500, 320, 240, 640, 480)
        ray = back_project(Pixel(320, 240), k)
        np.testing.assert_array_equal(ray.as_array(), [0.0, 0.0, 1.0])

    def test_one_focal_length_offset_is_45_degrees(self):
        k = Intrinsics(500, 500, 320, 240, 640, 480)
        ray = back_project(Pixel(320 + 500, 240), k)
        np.testing.assert_allclose(ray.as_array(), [1, 0, 1] / np.sqrt(2), rtol=1e-15)

    def test_unit_norm(self):
        k = Intrinsics(300, 640, 101.5, 402.25, 640, 480)
        rng = np.random.default_rng(3)
        for _ in range(100):
            ray = back_project(Pixel(rng.uniform(-100, 800), rng.uniform(-100, 600)), k)
            assert np.linalg.norm(ray.as_array()) == pytest.approx(1.0, abs=1e-15)

    def test_round_trip_project_back_project(self):
        k = Intrinsics(512.5, 487.25, 333.1, 251.9, 640, 480)
        rng = np.random.default_rng(17)
        for _ in range(100):
            pixel = Pixel(rng.uniform(0, 640), rng.uniform(0, 480))
            ray = back_project(pixel, k)
            for lam in (0.1, 1.0, 10.0):
                z = lam * ray.dz
                point = Point3(lam * ray.dx, lam * ray.dy, z)
                recovered = project(point, k)
                assert recovered.u == pytest.approx(pixel.u, abs=1e-9)
                assert recovered.v == pytest.approx(pixel.v, abs=1e-9)

    def test_ray_angle_identity_across_depths(self):
        # back_project(project(P)) is parallel to P for Z across 7 decades
        k = Intrinsics(585, 585, 320, 240, 640, 480)
        rng = np.random.default_rng(29)
        for _ in range(50):
            z = 10.0 ** rng.uniform(-3, 4)
            point = np.array([rng.uniform(-0.8, 0.8) * z, rng.uniform(-0.6, 0.6) * z, z])
            ray = back_project(project(Point3(*point), k), k).as_array()
            direction = point / np.linalg.norm(point)
            angle = np.arctan2(np.linalg.norm(np.cross(direction, ray)), direction @ ray)
            assert angle < 1e-9


class TestProjectedExtents:
    def test_height_from_endpoint_subtraction(self):
        # endpoints (0, +-1, 4) project to cy +- 125; difference = 250 = fy*H/Z
        k = Intrinsics(1000, 500, 500, 400, 1000, 800)
        top = project(Point3(0, 1, 4), k)
        bottom = project(Point3(0, -1, 4), k)
        assert projected_height(2, 4, k) == top.v - bottom.v == 250.0

    def test_width(self):
        k = Intrinsics(800, 500, 320, 240, 640, 480)
        assert projected_width(1, 2, k) == 400.0
        assert projected_width(0.5, 1, k) == 400.0  # size-depth symmetry

    def test_errors(self):
        k = Intrinsics(800, 500, 320, 240, 640, 480)
        with pytest.raises(NonPositiveSize):
            projected_width(-1, 2, k)
        with pytest.raises(NonPositiveSize):
            projected_height(0, 2, k)
        with pytest.raises(NonPositiveDepth):
            projected_height(1, -2, k)

    def test_size_depth_and_focal_depth_invariance(self):
        k = Intrinsics(650, 650, 320, 240, 640, 480)
        rng = np.random.default_rng(41)
        for _ in range(200):
            height = rng.uniform(0.05, 5)
            depth = rng.uniform(0.2, 50)
            lam = 10.0 ** rng.uniform(-1, 1)
            base = projected_height(height, depth, k)
            # (f, lam*H, lam*Z) equivalence
            scaled = projected_height(lam * height, lam * depth, k)
            assert scaled == pytest.approx(base, rel=1e-9)
            # (lam*f, H, lam*Z) equivalence
            k_lam = Intrinsics(k.fx, lam * k.fy, k.cx, k.cy, k.width, k.height)
            assert projected_height(height, lam * depth, k_lam) == pytest.approx(base, rel=1e-9)

    def test_endpoint_oracle_random(self):
        k = Intrinsics(1000, 613.7, 500, 400, 1000, 800)
        rng = np.random.default_rng(43)
        for _ in range(100):
            height = rng.uniform(0.05, 5)
            depth = rng.uniform(0.2, 50)
            top = project(Point3(0, height / 2, depth), k)
            bottom = project(Point3(0, -height / 2, depth), k)
            assert projected_height(height, depth, k) == pytest.approx(top.v - bottom.v, rel=1e-12)
