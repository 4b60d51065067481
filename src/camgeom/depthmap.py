"""Metric depth maps: unprojection to 3D points and the prior-based estimators.

Depth maps arrive as externally produced files (no model inference happens
here).  Unprojection follows the ray equation times depth under the
half-integer pixel-center convention, so ``project(unproject(...))`` lands
back on the source pixel to machine precision.

Token pooling keeps the TOKEN-CENTER ray and the depth of the nearest
(patch-center) sample.  Averaging depths across a discontinuity would
fabricate phantom 3D points, and using the covering pixel's own ray would
break the token-point invariance under consistent rescales.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import Intrinsics, unproject_array
from .errors import BadDimension, ExtentMismatch, NonPositiveDepth, NonPositiveInput, _count, _positive
from .rays import EmbeddingGrid, TokenGridSpec, _adopt, _check_grid_extent, _held, _hold
from .rays import sinusoid_features, token_centers

__all__ = [
    "DepthMap",
    "PointGrid",
    "unproject",
    "token_point_grid",
    "embed_points",
    "biased_depth_estimate",
    "aware_depth_estimate",
    "DEFAULT_GEO_DIM",
    "DEFAULT_GEO_PERIOD",
]

DEFAULT_GEO_DIM = 240
# 100 m base period keeps indoor coordinates (+-10 m) in the sinusoid's
# high-resolution band.
DEFAULT_GEO_PERIOD = 100.0

GEO_CHANNEL_LAYOUT = ("x", "y", "z")


@dataclass(frozen=True, eq=False)
class DepthMap:
    """height x width metric depths, finite and > 0 where ``valid``; an invalid pixel holds NaN.
    A caller's arrays are copied; the library's (``from_array``, ``resample_depth``) are adopted."""

    values: np.ndarray
    valid: np.ndarray

    def __post_init__(self, adopt: bool = False):
        values, valid = _held(self.values, np.float64, adopt), _held(self.valid, bool, adopt)
        if values.ndim != 2 or valid.shape != values.shape:
            raise BadDimension(f"values/valid must share a 2-D shape, got {values.shape} and {valid.shape}")
        if np.any(valid & ~((values > 0) & (values < np.inf))):
            raise NonPositiveDepth("valid depths must be finite and > 0")
        np.copyto(values, np.nan, where=~valid)
        _hold(self, values=values, valid=valid)

    @classmethod
    def from_array(cls, values: np.ndarray) -> "DepthMap":
        """Derive the mask: NaN/inf and non-positive entries are invalid."""
        values = np.array(values, dtype=np.float64, order="C")  # the one copy, which takes the NaNs
        return _adopt(cls, values, np.isfinite(values) & (values > 0))

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class PointGrid:
    """Token-resolution camera-frame points (rows x cols x 3) with validity.
    A caller's arrays are copied; those of :func:`token_point_grid` are adopted."""

    points: np.ndarray
    valid: np.ndarray

    def __post_init__(self, adopt: bool = False):
        points, valid = _held(self.points, np.float64, adopt), _held(self.valid, bool, adopt)
        if points.ndim != 3 or points.shape[2] != 3 or valid.shape != points.shape[:2]:
            raise BadDimension(f"points must be rows x cols x 3 with matching mask, got {points.shape}")
        _hold(self, points=points, valid=valid)


def _check_extent(depth: DepthMap, k: Intrinsics) -> None:
    if (depth.height, depth.width) != (k.height, k.width):
        raise ExtentMismatch(
            f"depth extent {depth.width}x{depth.height} != intrinsics extent {k.width}x{k.height}"
        )


def unproject(depth: DepthMap, k: Intrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel point cloud: pixel (u, v) at depth Z -> ((u-cx)/fx*Z, (v-cy)/fy*Z, Z).

    Returns (points, valid) with points shaped (H, W, 3); invalid pixels
    carry NaN.  Raises ExtentMismatch if the map does not match ``k``.
    """
    _check_extent(depth, k)
    u, v = token_centers(TokenGridSpec(depth.height, depth.width, 1))  # pixel centers: one-pixel tokens
    return unproject_array(u[None, :], v[:, None], depth.values, k), depth.valid.copy()


def token_point_grid(depth: DepthMap, k: Intrinsics, grid: TokenGridSpec) -> PointGrid:
    """Pool a depth map to token resolution.

    Each token takes the depth of the pixel containing its patch center
    (nearest sample) and unprojects it along the token-center ray, so the
    point reprojects exactly onto the token center.  Raises GridExceedsImage
    for a grid that :func:`~camgeom.rays.ray_grid` would reject.
    """
    _check_extent(depth, k)
    _check_grid_extent(k, grid)
    u_c, v_c = token_centers(grid)
    cols = np.clip(np.floor(u_c), 0, depth.width - 1).astype(int)  # clipped as floats: a far center fits no int
    rows = np.clip(np.floor(v_c), 0, depth.height - 1).astype(int)
    sel = np.ix_(rows, cols)
    return _adopt(PointGrid, unproject_array(u_c[None, :], v_c[:, None], depth.values[sel], k), depth.valid[sel])


def embed_points(
    grid: PointGrid,
    dim: int = DEFAULT_GEO_DIM,
    base_period: float = DEFAULT_GEO_PERIOD,
) -> EmbeddingGrid:
    """Sinusoidal geometric embedding of token points (x, y, z in meters, raw scale).

    Each coordinate receives dim/3 features; invalid tokens emit all-zero
    vectors.  One sinusoid call embeds each value once, bit-identical to
    embedding token by token.  Deterministic given identical inputs and config.
    """
    dim = _count("geometric embedding dim", dim, BadDimension)
    if dim < 6 or dim % 6:
        raise BadDimension(f"geometric embedding dim must be a multiple of 6, got {dim}")
    coords = np.where(grid.valid[..., None], grid.points, 0.0)  # sin warns at a caller's +-inf
    data = sinusoid_features(coords, dim // 3, base_period).reshape(grid.valid.shape + (dim,))
    data[~grid.valid] = 0.0
    return _adopt(EmbeddingGrid, data, dim, GEO_CHANNEL_LAYOUT, base_period, {"base_period": base_period})


def biased_depth_estimate(h_proj: float, height_prior: float, f_assumed: float) -> float:
    """Camera-agnostic depth from a size prior: f_assumed * H_prior / h_proj.

    This is the estimator with a baked-in canonical focal length; under an
    image resize by s it returns Z/s instead of Z (the systematic bias this
    toolkit demonstrates).
    """
    _positive("h_proj", h_proj, NonPositiveInput)
    _positive("height_prior", height_prior, NonPositiveInput)
    _positive("f_assumed", f_assumed, NonPositiveInput)
    return f_assumed * height_prior / h_proj


def aware_depth_estimate(h_proj: float, height_prior: float, k: Intrinsics) -> float:
    """Camera-aware depth from a size prior: fy * H_prior / h_proj with the TRUE fy.

    Using the updated intrinsics makes the estimate invariant under any
    consistent resize (the scale factor cancels).
    """
    _positive("h_proj", h_proj, NonPositiveInput)
    _positive("height_prior", height_prior, NonPositiveInput)
    return k.fy * height_prior / h_proj
