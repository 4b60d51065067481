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
from .errors import BadDimension, ExtentMismatch, NonPositiveInput, _count, _positive
from .rays import EmbeddingGrid, TokenGridSpec, _check_grid_extent, _frozen_copy, sinusoid_features, token_centers

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
    """height x width metric depths, finite and > 0 where ``valid``; an invalid pixel holds NaN."""

    values: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        valid = _frozen_copy(self.valid, bool)
        if values.ndim != 2 or valid.shape != values.shape:
            raise ValueError(f"values/valid must share a 2-D shape, got {values.shape} and {valid.shape}")
        if np.any(valid & ~((values > 0) & (values < np.inf))):
            raise ValueError("valid depths must be finite and > 0")
        values = np.where(valid, values, np.nan)  # the map's one copy, C-order like valid
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "valid", valid)

    @classmethod
    def from_array(cls, values: np.ndarray) -> "DepthMap":
        """Derive the mask: NaN/inf and non-positive entries are invalid."""
        values = np.asarray(values, dtype=np.float64)
        valid = np.isfinite(values) & (values > 0)
        return cls(values, valid)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class PointGrid:
    """Token-resolution camera-frame points (rows x cols x 3) with validity."""

    points: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        points = _frozen_copy(self.points, np.float64)
        valid = _frozen_copy(self.valid, bool)
        if points.ndim != 3 or points.shape[2] != 3 or valid.shape != points.shape[:2]:
            raise ValueError(f"points must be rows x cols x 3 with matching mask, got {points.shape}")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "valid", valid)


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
    u = np.arange(depth.width, dtype=np.float64) + 0.5
    v = np.arange(depth.height, dtype=np.float64) + 0.5
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
    cols = np.clip(np.floor(u_c).astype(int), 0, depth.width - 1)
    rows = np.clip(np.floor(v_c).astype(int), 0, depth.height - 1)
    sel = np.ix_(rows, cols)
    return PointGrid(unproject_array(u_c[None, :], v_c[:, None], depth.values[sel], k), depth.valid[sel])


def embed_points(
    grid: PointGrid,
    dim: int = DEFAULT_GEO_DIM,
    base_period: float = DEFAULT_GEO_PERIOD,
) -> EmbeddingGrid:
    """Sinusoidal geometric embedding of token points (x, y, z in meters, raw scale).

    Each coordinate receives dim/3 features; invalid tokens emit all-zero
    vectors.  Deterministic given identical inputs and config.
    """
    dim = _count("geometric embedding dim", dim, BadDimension)
    if dim < 6 or dim % 6:
        raise BadDimension(f"geometric embedding dim must be a multiple of 6, got {dim}")
    per_scalar = dim // 3
    coords = np.where(grid.valid[..., None], grid.points, 0.0)
    blocks = [sinusoid_features(coords[..., i], per_scalar, base_period) for i in range(3)]
    data = np.concatenate(blocks, axis=-1)
    data[~grid.valid] = 0.0
    meta = {"base_period": base_period}
    return EmbeddingGrid(data, dim, GEO_CHANNEL_LAYOUT, base_period, meta)


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
