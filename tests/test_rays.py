"""Ray grid and sinusoidal camera embedding tests."""

import numpy as np
import pytest

from camgeom import Intrinsics, TokenGridSpec, embed, ray_grid
from camgeom.errors import BadDimension, GridExceedsImage
from camgeom.rays import sinusoid_features, token_centers
from camgeom.transforms import scale


class TestTokenGrid:
    def test_patch_centers(self):
        grid = TokenGridSpec(2, 3, 14)
        u, v = token_centers(grid)
        np.testing.assert_array_equal(u, [7.0, 21.0, 35.0])
        np.testing.assert_array_equal(v, [7.0, 21.0])

    def test_corner_origin_for_ablation(self):
        u, v = token_centers(TokenGridSpec(1, 2, 10), origin="corner")
        np.testing.assert_array_equal(u, [0.0, 10.0])

    def test_cover_allows_partial_last_patch(self):
        k = Intrinsics(500, 500, 320, 240, 640, 479)
        grid = TokenGridSpec.cover(k, 14)
        assert (grid.rows, grid.cols) == (35, 46)  # ceil(479/14), ceil(640/14)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenGridSpec(0, 3, 14)
        with pytest.raises(ValueError):
            TokenGridSpec(2, 3, 0.5)


class TestRayGrid:
    def test_hand_evaluated_2x2(self):
        # centers at 7 and 21: rx = (7-14)/1000 = -0.007, (21-14)/1000 = 0.007
        k = Intrinsics(1000, 1000, 14, 14, 28, 28)
        grid = ray_grid(k, TokenGridSpec(2, 2, 14))
        np.testing.assert_allclose(grid.rx, [-0.007, 0.007], rtol=1e-15)  # per column
        np.testing.assert_allclose(grid.ry, [-0.007, 0.007], rtol=1e-15)  # per row

    def test_holds_one_value_per_column_and_per_row(self):
        k = Intrinsics(1000, 1000, 35, 21, 70, 42)
        grid = ray_grid(k, TokenGridSpec(3, 5, 14))
        assert (grid.rx.shape, grid.ry.shape, grid.rows, grid.cols) == ((5,), (3,), 3, 5)
        assert embed(grid, k, dim=8).data.shape == (3, 5, 8)

    def test_principal_point_token_is_zero(self):
        # cx = cy = 7 = center of the only token
        k = Intrinsics(500, 500, 7, 7, 14, 14)
        grid = ray_grid(k, TokenGridSpec(1, 1, 14))
        assert grid.rx[0] == 0.0
        assert grid.ry[0] == 0.0

    def test_monotone_ray_field(self):
        k = Intrinsics(585.5, 612.25, 320, 240, 640, 480)
        grid = ray_grid(k, TokenGridSpec.cover(k, 16))
        assert np.all(np.diff(grid.rx) > 0)
        assert np.all(np.diff(grid.ry) > 0)

    def test_scaling_invariance(self):
        # scaled camera + scaled patch looks at the same scene directions
        k = Intrinsics(600, 560, 321.5, 242.25, 640, 480)
        base = ray_grid(k, TokenGridSpec(24, 32, 14.0))
        for s in (0.5, 0.8, 1.25, 2.0):
            scaled = ray_grid(scale(k, s), TokenGridSpec(24, 32, 14.0 * s))
            np.testing.assert_allclose(scaled.rx, base.rx, rtol=0, atol=1e-12)
            np.testing.assert_allclose(scaled.ry, base.ry, rtol=0, atol=1e-12)

    def test_grid_exceeding_image_rejected(self):
        k = Intrinsics(500, 500, 320, 240, 640, 480)
        ray_grid(k, TokenGridSpec(35, 46, 14))  # one partial row/col: fine
        with pytest.raises(GridExceedsImage):
            ray_grid(k, TokenGridSpec(36, 46, 14))


class TestSinusoidFeatures:
    def test_scalar_oracle(self):
        # width 4, T = 10000: frequencies T^0=1 and T^(2/4)=100
        out = sinusoid_features(np.float64(1.0), 4, 10000.0)
        np.testing.assert_allclose(
            out, [np.sin(1), np.cos(1), np.sin(0.01), np.cos(0.01)], rtol=1e-15
        )

    def test_zero_input_pattern(self):
        out = sinusoid_features(np.zeros(3), 8, 10000.0)
        np.testing.assert_array_equal(out, np.tile([0.0, 1.0], (3, 4)))

    def test_rejects_odd_width(self):
        with pytest.raises(BadDimension):
            sinusoid_features(np.zeros(3), 7, 10000.0)


class TestEmbed:
    def test_dimension_validation(self):
        k = Intrinsics(500, 500, 320, 240, 640, 480)
        grid = ray_grid(k, TokenGridSpec.cover(k, 16))
        with pytest.raises(BadDimension):
            embed(grid, k, dim=12)
        with pytest.raises(BadDimension):
            embed(grid, k, dim=4)

    def test_principal_point_token_zero_pattern(self):
        k = Intrinsics(500, 500, 7, 7, 14, 14)
        grid = ray_grid(k, TokenGridSpec(1, 1, 14))
        emb = embed(grid, k, dim=32, focal_reference=500.0)
        per = 32 // 4
        # rx and ry blocks see input 0; focal blocks see ln(500/500) = 0 too
        np.testing.assert_array_equal(emb.data[0, 0, :per], np.tile([0.0, 1.0], per // 2))
        np.testing.assert_array_equal(emb.data[0, 0], np.tile([0.0, 1.0], 16))

    def test_bounded_and_deterministic(self):
        k = Intrinsics(333.3, 1499.9, 320, 240, 640, 480)
        grid = ray_grid(k, TokenGridSpec.cover(k, 32))
        a = embed(grid, k, dim=64)
        b = embed(grid, k, dim=64)
        assert np.all(a.data >= -1.0) and np.all(a.data <= 1.0)
        np.testing.assert_array_equal(a.data, b.data)  # bit-reproducible

    def test_channel_layout_blocks(self):
        # focal blocks are constant across tokens, ray blocks are not
        k = Intrinsics(400, 800, 320, 240, 640, 480)
        grid = ray_grid(k, TokenGridSpec.cover(k, 32))
        emb = embed(grid, k, dim=32)
        per = 8
        fx_block = emb.data[:, :, 2 * per : 3 * per]
        fy_block = emb.data[:, :, 3 * per : 4 * per]
        assert np.all(fx_block == fx_block[0, 0])
        assert np.all(fy_block == fy_block[0, 0])
        assert not np.all(emb.data[:, :, :per] == emb.data[0, 0, :per])
        # fx != fy, so their log-ratio features differ
        assert not np.array_equal(fx_block[0, 0], fy_block[0, 0])

    def test_content_independence_is_structural(self):
        # embedding depends only on (RayGrid, intrinsics, config): same inputs,
        # same output, regardless of any image data existing at all
        k = Intrinsics(500, 500, 320, 240, 640, 480)
        grid_a = ray_grid(k, TokenGridSpec.cover(k, 16))
        grid_b = ray_grid(k, TokenGridSpec.cover(k, 16))
        np.testing.assert_array_equal(embed(grid_a, k).data, embed(grid_b, k).data)

    def test_ray_channels_invariant_under_consistent_scaling(self):
        k = Intrinsics(585, 585, 320, 240, 640, 480)
        base = embed(ray_grid(k, TokenGridSpec(30, 40, 16.0)), k, dim=64)
        s = 0.8
        k_s = scale(k, s)
        scaled = embed(ray_grid(k_s, TokenGridSpec(30, 40, 16.0 * s)), k_s, dim=64)
        per = 16
        np.testing.assert_allclose(scaled.data[:, :, : 2 * per], base.data[:, :, : 2 * per], atol=1e-10)
