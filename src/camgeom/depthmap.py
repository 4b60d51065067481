"""Metric depth maps: unprojection to 3D points and the prior-based estimators.

Depth maps arrive as externally produced files (no model inference happens
here) and hold depths finite and > 0, or NaN at an invalid pixel, which is
the whole mask.  Unprojection follows the ray equation times depth under
the half-integer pixel-center convention, so ``project(unproject(...))``
lands back on the source pixel to machine precision.

Token pooling keeps the TOKEN-CENTER ray and the depth of the nearest
(patch-center) sample.  Averaging depths across a discontinuity would
fabricate phantom 3D points, and using the covering pixel's own ray would
break the token-point invariance under consistent rescales.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .camera import Intrinsics, unproject_array
from .errors import BadDimension, ExtentMismatch, InvalidValue, NonPositiveDepth, NonPositiveInput, _count, _positive
from .rays import EmbeddingGrid, TokenGridSpec, _adopt, _check_grid_extent, _held, _hold, _pixel_index
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
    """height x width (>= 1) metric depths, each finite and > 0 or NaN at an invalid pixel; ``valid`` derived: not NaN.
    A caller's array is copied, each NaN made the one that from_array writes; the library's arrays are adopted."""

    values: np.ndarray
    valid: np.ndarray = field(init=False)

    def __post_init__(self, adopt: bool = False):
        values = np.asarray(self.values, np.float64, order="C")
        if values.ndim != 2 or 0 in values.shape:
            raise BadDimension(f"depth values must be 2-D with a pixel, got shape {values.shape}")
        if np.fmin.reduce(values, None) <= 0 or np.fmax.reduce(values, None) == np.inf:
            raise NonPositiveDepth("a depth must be NaN (invalid) or finite and > 0")  # fmin/fmax skip NaN
        valid = ~np.isnan(values)
        _hold(self, values=values if adopt else np.where(valid, values, np.nan), valid=valid)

    @classmethod
    def from_array(cls, values: np.ndarray) -> "DepthMap":
        """A float64 copy of numeric 2-D depths, each entry that is not finite and > 0 (NaN, +-inf, <= 0) made NaN."""
        values = np.asarray(values)  # a float64 NaN, so float32 file data widens in the one copy np.where makes
        return _adopt(cls, np.where((values > 0) & (values < np.inf), values, np.float64(np.nan)))

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class PointGrid:
    """Token-resolution camera-frame points (rows x cols x 3): three finite coordinates, or three NaN at an invalid
    token; ``valid`` is derived: finite.  A caller's array is copied; that of :func:`token_point_grid` is adopted."""

    points: np.ndarray
    valid: np.ndarray = field(init=False)

    def __post_init__(self, adopt: bool = False):
        points = _held(self.points, np.float64, adopt)
        if points.ndim != 3 or points.shape[2] != 3:
            raise BadDimension(f"points must be rows x cols x 3, got {points.shape}")
        x, y, z = np.isnan(points).transpose(2, 0, 1)
        if ((x != y) | (x != z)).any() or np.isinf(points).any():
            raise InvalidValue("a token point must be three finite coordinates, or three NaN at an invalid token")
        _hold(self, points=points, valid=~x)


def _check_extent(grid, k: Intrinsics, what: str) -> None:
    """``grid`` (a raster or a depth map) spans the intrinsics extent; ExtentMismatch naming ``what`` otherwise."""
    if (grid.height, grid.width) != (k.height, k.width):
        raise ExtentMismatch(f"{what} extent {grid.width}x{grid.height} != intrinsics extent {k.width}x{k.height}")


def unproject(depth: DepthMap, k: Intrinsics, dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel point cloud: pixel (u, v) at depth Z -> ((u-cx)/fx*Z, (v-cy)/fy*Z, Z).

    Returns (points, valid) with points shaped (H, W, 3) in ``dtype`` (computed in float64; at float32 each value
    rounded once, as :func:`~camgeom.camera.unproject_array` fills it); invalid pixels carry NaN.  Raises
    ExtentMismatch if the map does not match ``k``, InvalidValue if a point is past ``dtype``'s range.
    """
    _check_extent(depth, k, "depth")
    u, v = token_centers(TokenGridSpec(depth.height, depth.width, 1))  # pixel centers: one-pixel tokens
    try:
        with np.errstate(over="raise"):  # a point past the float range has no coordinates to return
            points = unproject_array(u[None, :], v[:, None], depth.values, k, dtype)
    except FloatingPointError:
        raise InvalidValue("depth: a pixel's point is past the float range") from None
    return points, depth.valid.copy()


def token_point_grid(depth: DepthMap, k: Intrinsics, grid: TokenGridSpec) -> PointGrid:
    """Pool a depth map to token resolution.

    Each token takes the depth of the pixel containing its patch center
    (nearest sample) and unprojects it along the token-center ray, so the
    point reprojects exactly onto the token center.  Raises GridExceedsImage
    for a grid that :func:`~camgeom.rays.ray_grid` would reject.
    """
    _check_extent(depth, k, "depth")
    _check_grid_extent(k, grid)
    u_c, v_c = token_centers(grid)
    rows, _ = _pixel_index(np.floor(v_c), depth.height)  # a grid past the image pools its edge pixels
    cols, _ = _pixel_index(np.floor(u_c), depth.width)
    with np.errstate(over="ignore"):  # a point past the float range is not finite: PointGrid rejects it
        points = unproject_array(u_c[None, :], v_c[:, None], np.take(depth.values[rows], cols, axis=1), k)
    return _adopt(PointGrid, points)


def embed_points(
    grid: PointGrid,
    dim: int = DEFAULT_GEO_DIM,
    base_period: float = DEFAULT_GEO_PERIOD,
    dtype=np.float64,
) -> EmbeddingGrid:
    """Sinusoidal geometric embedding of token points (x, y, z in meters, raw scale).

    Each coordinate receives dim/3 features; invalid tokens emit all-zero
    vectors.  One sinusoid call embeds each value once, bit-identical to
    embedding token by token.  Deterministic given identical inputs and config.
    Features are computed in float64 and held in ``dtype``: at float32 each
    value is rounded once, as :func:`~camgeom.rays.sinusoid_features` fills it.
    """
    dim = _count("geometric embedding dim", dim, BadDimension, minimum=6, step=6)
    data = sinusoid_features(grid.points, dim // 3, base_period, dtype).reshape(grid.valid.shape + (dim,))
    data[~grid.valid] = 0.0  # an invalid token's NaN features
    return _adopt(EmbeddingGrid, data, GEO_CHANNEL_LAYOUT, {"base_period": base_period})


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
