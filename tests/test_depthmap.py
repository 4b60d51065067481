"""Depth unprojection, token pooling, and the prior-based depth estimators."""

import numpy as np
import pytest

from camgeom import (
    DepthMap,
    Intrinsics,
    TokenGridSpec,
    aware_depth_estimate,
    biased_depth_estimate,
    embed_points,
    projected_height,
    token_point_grid,
    unproject,
)
from camgeom.augment import resample_depth
from camgeom.camera import project_array
from camgeom.depthmap import PointGrid
from camgeom.errors import BadDimension, ExtentMismatch, GridExceedsImage, NonPositiveInput
from camgeom.rays import ray_grid, token_centers
from camgeom.transforms import PixelTransform, apply_transform, scale


def _constant_depth(k: Intrinsics, z: float) -> DepthMap:
    return DepthMap.from_array(np.full((k.height, k.width), z))


class TestDepthMap:
    def test_mask_from_nan_and_nonpositive(self):
        values = np.array([[1.0, np.nan], [0.0, -3.0]])
        depth = DepthMap.from_array(values)
        np.testing.assert_array_equal(depth.valid, [[True, False], [False, False]])

    def test_explicit_mask_must_cover_positives(self):
        with pytest.raises(ValueError):
            DepthMap(np.array([[1.0, -1.0]]), np.array([[True, True]]))


class TestUnproject:
    def test_principal_point_pixel(self):
        # cx = 2.5 = center of pixel column 2; same for row 1
        k = Intrinsics(500, 500, 2.5, 1.5, 5, 3)
        points, valid = unproject(_constant_depth(k, 2.0), k)
        np.testing.assert_array_equal(points[1, 2], [0.0, 0.0, 2.0])
        assert valid.all()

    def test_constant_plane_spans_frustum_cross_section(self):
        k = Intrinsics(400, 400, 320, 240, 640, 480)
        z0 = 3.0
        points, _ = unproject(_constant_depth(k, z0), k)
        assert np.all(points[..., 2] == z0)
        # pixel centers span [0.5, width-0.5], so x spans z0*(width-1)/fx;
        # the full frustum cross-section is z0*width/fx
        x_span = points[..., 0].max() - points[..., 0].min()
        assert x_span == pytest.approx(z0 * (k.width - 1) / k.fx, rel=1e-12)
        assert x_span < z0 * k.width / k.fx

    def test_reprojection_round_trip(self):
        k = Intrinsics(585.75, 612.5, 331.25, 229.125, 64, 48)
        rng = np.random.default_rng(7)
        depth = DepthMap.from_array(rng.uniform(0.5, 10.0, size=(k.height, k.width)))
        points, valid = unproject(depth, k)
        uv = project_array(points[valid], k)
        u_expected, v_expected = np.meshgrid(
            np.arange(k.width) + 0.5, np.arange(k.height) + 0.5
        )
        np.testing.assert_allclose(uv[:, 0], u_expected[valid], atol=1e-9)
        np.testing.assert_allclose(uv[:, 1], v_expected[valid], atol=1e-9)

    def test_invalid_pixels_propagate(self):
        k = Intrinsics(500, 500, 16, 12, 32, 24)
        values = np.full((24, 32), 2.0)
        values[3, 5] = np.nan
        points, valid = unproject(DepthMap.from_array(values), k)
        assert not valid[3, 5]
        assert np.isnan(points[3, 5]).all()

    def test_extent_mismatch(self):
        k = Intrinsics(500, 500, 320, 240, 640, 480)
        with pytest.raises(ExtentMismatch):
            unproject(DepthMap.from_array(np.ones((10, 10))), k)


class TestTokenPointGrid:
    def test_points_reproject_onto_token_centers(self):
        k = Intrinsics(512.5, 487.25, 333.1, 251.9, 64, 48)
        rng = np.random.default_rng(11)
        depth = DepthMap.from_array(rng.uniform(1.0, 6.0, size=(48, 64)))
        grid = TokenGridSpec(3, 4, 16)
        pg = token_point_grid(depth, k, grid)
        u_c, v_c = token_centers(grid)
        uv = project_array(pg.points[pg.valid], k)
        uu, vv = np.meshgrid(u_c, v_c)
        np.testing.assert_allclose(uv[:, 0], uu[pg.valid], atol=1e-9)
        np.testing.assert_allclose(uv[:, 1], vv[pg.valid], atol=1e-9)

    def test_depth_taken_from_patch_center_pixel(self):
        k = Intrinsics(500, 500, 16, 12, 32, 24)
        values = np.full((24, 32), 5.0)
        values[8, 8] = 2.5  # token (0,0) center is (u, v) = (8, 8) -> pixel (8, 8)
        depth = DepthMap.from_array(values)
        pg = token_point_grid(depth, k, TokenGridSpec(1, 2, 16))
        assert pg.points[0, 0, 2] == 2.5
        assert pg.points[0, 1, 2] == 5.0

    def test_equivariance_under_consistent_upscale(self):
        # (depth, intrinsics, token grid) transformed together leave each
        # surviving token's 3D point unchanged; integer upscales keep the
        # nearest-sample selection grid-aligned, so this holds for any content
        k = Intrinsics(600, 560, 320, 240, 64, 48)
        rng = np.random.default_rng(13)
        depth = DepthMap.from_array(rng.uniform(1.0, 6.0, size=(48, 64)))
        base = token_point_grid(depth, k, TokenGridSpec(3, 4, 16.0))
        for s in (2.0, 3.0):
            t = PixelTransform.scaling(s, k.width, k.height)
            pg = token_point_grid(resample_depth(depth, t), apply_transform(k, t),
                                  TokenGridSpec(3, 4, 16.0 * s))
            np.testing.assert_allclose(pg.points[pg.valid], base.points[base.valid], atol=1e-9)

    def test_equivariance_under_downscale_with_patchwise_depth(self):
        # downscaling drops samples, so which source pixel survives is
        # resolution-dependent; with depth constant per token patch (the
        # surface the token sees) the pooled point is still exact
        k = Intrinsics(600, 560, 320, 240, 64, 48)
        rng = np.random.default_rng(29)
        blocks = rng.uniform(1.0, 6.0, size=(3, 4))
        depth = DepthMap.from_array(np.kron(blocks, np.ones((16, 16))))
        base = token_point_grid(depth, k, TokenGridSpec(3, 4, 16.0))
        t = PixelTransform.scaling(0.5, k.width, k.height)
        pg = token_point_grid(resample_depth(depth, t), apply_transform(k, t),
                              TokenGridSpec(3, 4, 8.0))
        np.testing.assert_allclose(pg.points[pg.valid], base.points[base.valid], atol=1e-9)

    def test_equivariance_under_whole_token_crop(self):
        k = Intrinsics(600, 560, 320, 240, 64, 48)
        rng = np.random.default_rng(17)
        depth = DepthMap.from_array(rng.uniform(1.0, 6.0, size=(48, 64)))
        base = token_point_grid(depth, k, TokenGridSpec(3, 4, 16.0))
        t = PixelTransform(1.0, 1.0, 16.0, 16.0, 48, 32)  # drop one token row/col
        pg = token_point_grid(resample_depth(depth, t), apply_transform(k, t), TokenGridSpec(2, 3, 16.0))
        np.testing.assert_allclose(pg.points, base.points[1:, 1:], atol=1e-9)

    @pytest.mark.parametrize("rows, cols", [(8, 9), (7, 10), (40, 40)])
    def test_grid_exceeding_image_rejected_like_ray_grid(self, rows, cols):
        k = Intrinsics(500, 500, 32, 24, 64, 48)
        depth = _constant_depth(k, 2.0)
        token_point_grid(depth, k, TokenGridSpec(7, 9, 8))  # one patch beyond on each axis: fine
        for build in (ray_grid, lambda k, grid: token_point_grid(depth, k, grid)):
            with pytest.raises(GridExceedsImage):
                build(k, TokenGridSpec(rows, cols, 8))


class TestEmbedPoints:
    def test_zero_point_pattern(self):
        pg = PointGrid(np.zeros((1, 1, 3)), np.ones((1, 1), dtype=bool))
        emb = embed_points(pg, dim=12)
        np.testing.assert_array_equal(emb.data[0, 0], np.tile([0.0, 1.0], 6))

    def test_invalid_tokens_emit_zeros(self):
        points = np.ones((2, 2, 3))
        valid = np.array([[True, False], [True, True]])
        emb = embed_points(PointGrid(points, valid), dim=12)
        np.testing.assert_array_equal(emb.data[0, 1], np.zeros(12))
        assert np.any(emb.data[0, 0] != 0)

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(3)
        pg = PointGrid(rng.uniform(-5, 5, size=(4, 4, 3)), np.ones((4, 4), dtype=bool))
        np.testing.assert_array_equal(embed_points(pg).data, embed_points(pg).data)

    def test_scalar_oracle_with_geo_period(self):
        # width 4, T_geo = 100: frequencies 100^0 = 1 and 100^(1/2) = 10
        pg = PointGrid(np.array([[[2.0, 0.0, 0.0]]]), np.ones((1, 1), dtype=bool))
        emb = embed_points(pg, dim=12, base_period=100.0)
        np.testing.assert_allclose(
            emb.data[0, 0, :4], [np.sin(2), np.cos(2), np.sin(0.2), np.cos(0.2)], rtol=1e-15
        )

    def test_dimension_validation(self):
        pg = PointGrid(np.zeros((1, 1, 3)), np.ones((1, 1), dtype=bool))
        with pytest.raises(BadDimension):
            embed_points(pg, dim=8)


class TestDepthEstimators:
    def test_unbiased_when_focal_is_true(self):
        k = Intrinsics(500, 585, 320, 240, 640, 480)
        h = projected_height(1.2, 3.5, k)
        assert biased_depth_estimate(h, 1.2, k.fy) == pytest.approx(3.5, rel=1e-12)

    def test_resize_bias_is_inverse_of_scale(self):
        # stale focal + resized observation: Z_pred = Z / s
        k = Intrinsics(500, 585, 320, 240, 640, 480)
        z_true = 4.2
        for s in (0.8, 1.2):
            h_resized = projected_height(1.0, z_true, scale(k, s))
            z_pred = biased_depth_estimate(h_resized, 1.0, k.fy)
            assert z_pred == pytest.approx(z_true / s, rel=1e-12)

    def test_aware_estimate_invariant_under_resize(self):
        k = Intrinsics(500, 585, 320, 240, 640, 480)
        z_true = 4.2
        base = aware_depth_estimate(projected_height(1.0, z_true, k), 1.0, k)
        for s in (0.5, 0.8, 1.2, 2.0):
            k_s = scale(k, s)
            est = aware_depth_estimate(projected_height(1.0, z_true, k_s), 1.0, k_s)
            assert est == pytest.approx(base, rel=1e-12)

    def test_aware_recovers_depth_exactly(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            fy = rng.uniform(100, 5000)
            k = Intrinsics(fy, fy, 320, 240, 640, 480)
            height = rng.uniform(0.05, 5)
            z = rng.uniform(0.2, 50)
            est = aware_depth_estimate(projected_height(height, z, k), height, k)
            assert est == pytest.approx(z, rel=1e-12)

    def test_matches_biased_when_scale_is_one(self):
        k = Intrinsics(500, 585, 320, 240, 640, 480)
        h = projected_height(0.8, 2.5, k)
        assert aware_depth_estimate(h, 0.8, k) == biased_depth_estimate(h, 0.8, k.fy)

    def test_rejects_non_positive_inputs(self):
        k = Intrinsics(500, 585, 320, 240, 640, 480)
        with pytest.raises(NonPositiveInput):
            biased_depth_estimate(-1, 1, 500)
        with pytest.raises(NonPositiveInput):
            biased_depth_estimate(10, 0, 500)
        with pytest.raises(NonPositiveInput):
            aware_depth_estimate(0, 1, k)
