"""Dense camera ray grids and their sinusoidal embeddings.

For a token grid laid over the image (one token per ``patch`` x ``patch``
pixel tile), each token's image coordinate is its patch CENTER, so the ray
field is invariant under a consistent (image, intrinsics, patch) rescale.
The embedding encodes four scalars per token -- the two normalized ray
components plus the log-scaled global focal lengths -- with the classic
interleaved sin/cos frequency ladder.

Channel layout of the output (documented so consumers can slice):
``[rx | ry | ln(fx/f0) | ln(fy/f0)]``, each block ``dim/4`` wide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .camera import Intrinsics, ray_components
from .errors import BadDimension, BelowMinimum, CamGeomError, GridExceedsImage

__all__ = [
    "TokenGridSpec",
    "RayGrid",
    "EmbeddingGrid",
    "token_centers",
    "ray_grid",
    "sinusoid_features",
    "embed",
    "DEFAULT_DIM",
    "DEFAULT_BASE_PERIOD",
    "DEFAULT_FOCAL_REFERENCE",
]

DEFAULT_DIM = 256
DEFAULT_BASE_PERIOD = 10000.0  # standard transformer sinusoid constant
DEFAULT_FOCAL_REFERENCE = 1000.0  # pixels; keeps ln(f/f0) O(1) for real cameras

CAMERA_CHANNEL_LAYOUT = ("rx", "ry", "log_fx", "log_fy")


@dataclass(frozen=True)
class TokenGridSpec:
    """Token grid geometry: rows x cols tokens of patch x patch pixels."""

    rows: int
    cols: int
    patch: float

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise BelowMinimum(f"token grid must have rows, cols >= 1, got {self.rows}x{self.cols}")
        object.__setattr__(self, "patch", _check_patch(self.patch))

    @classmethod
    def cover(cls, k: Intrinsics, patch: float) -> "TokenGridSpec":
        """Smallest grid covering the image extent (last patch may be partial)."""
        patch = _check_patch(patch)
        return cls(math.ceil(k.height / patch), math.ceil(k.width / patch), patch)


def _frozen_copy(array, dtype=None) -> np.ndarray:
    """A read-only, C-order copy of ``array``: the buffer a value type holds in place of its argument."""
    out = np.array(array, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


def _check_patch(patch: float) -> float:
    value = float(patch)
    if not math.isfinite(value) or value < 1:
        raise BelowMinimum(f"patch must be >= 1 pixel, got {patch}")
    return value


@dataclass(frozen=True, eq=False)
class RayGrid:
    """Per-token normalized ray components (u-cx)/fx and (v-cy)/fy."""

    rx: np.ndarray
    ry: np.ndarray

    def __post_init__(self):
        rx, ry = _frozen_copy(self.rx, np.float64), _frozen_copy(self.ry, np.float64)
        if rx.shape != ry.shape or rx.ndim != 2:
            raise ValueError(f"rx/ry must share a 2-D shape, got {rx.shape} and {ry.shape}")
        if not (np.all(np.isfinite(rx)) and np.all(np.isfinite(ry))):
            raise ValueError("ray grid contains non-finite values")
        object.__setattr__(self, "rx", rx)
        object.__setattr__(self, "ry", ry)

    @property
    def rows(self) -> int:
        return self.rx.shape[0]

    @property
    def cols(self) -> int:
        return self.rx.shape[1]


@dataclass(frozen=True, eq=False)
class EmbeddingGrid:
    """rows x cols x dim grid of sinusoidal features plus its provenance."""

    data: np.ndarray
    dim: int
    layout: tuple[str, ...]
    base_period: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        data = _frozen_copy(self.data, np.float64)
        if data.ndim != 3 or data.shape[2] != self.dim:
            raise ValueError(f"embedding data must be rows x cols x {self.dim}, got {data.shape}")
        object.__setattr__(self, "data", data)


def token_centers(grid: TokenGridSpec, origin: str = "center") -> tuple[np.ndarray, np.ndarray]:
    """Image coordinates of each token: u per column, v per row.

    ``origin="center"`` (default) places tokens at patch centers; "corner"
    uses the patch top-left, kept for ablations.
    """
    if origin == "center":
        offset = 0.5
    elif origin == "corner":
        offset = 0.0
    else:
        raise CamGeomError(f"origin must be 'center' or 'corner', got {origin!r}")
    u = (np.arange(grid.cols, dtype=np.float64) + offset) * grid.patch
    v = (np.arange(grid.rows, dtype=np.float64) + offset) * grid.patch
    return u, v


def _check_grid_extent(k: Intrinsics, grid: TokenGridSpec) -> None:
    """A token grid may reach past the image by at most one patch on each axis."""
    if grid.rows * grid.patch > k.height + grid.patch or grid.cols * grid.patch > k.width + grid.patch:
        raise GridExceedsImage(
            f"grid {grid.rows}x{grid.cols} with patch {grid.patch} exceeds "
            f"image extent {k.width}x{k.height} by more than one patch"
        )


def ray_grid(k: Intrinsics, grid: TokenGridSpec, origin: str = "center") -> RayGrid:
    """Normalized ray components for every token of the grid."""
    _check_grid_extent(k, grid)
    u, v = token_centers(grid, origin=origin)
    rx, ry = ray_components(u[None, :], v[:, None], k)
    return RayGrid(np.broadcast_to(rx, (grid.rows, grid.cols)), np.broadcast_to(ry, (grid.rows, grid.cols)))


def sinusoid_features(x: np.ndarray, dim: int, period: float) -> np.ndarray:
    """Interleaved sin/cos ladder: sin(x / T^(2m/dim)), cos(...), m = 0..dim/2-1.

    ``dim`` is the per-scalar feature width and must be even.  Output shape
    is ``x.shape + (dim,)`` with every value in [-1, 1].
    """
    if dim < 2 or dim % 2:
        raise BadDimension(f"per-scalar feature width must be even and >= 2, got {dim}")
    if not 0 < period < math.inf:
        raise CamGeomError(f"base period must be finite and > 0, got {period}")
    x = np.asarray(x, dtype=np.float64)
    m = np.arange(dim // 2, dtype=np.float64)
    angles = x[..., None] / period ** (2.0 * m / dim)
    out = np.empty(x.shape + (dim,), dtype=np.float64)
    out[..., 0::2] = np.sin(angles)
    out[..., 1::2] = np.cos(angles)
    return out


def embed(
    grid: RayGrid,
    k: Intrinsics,
    dim: int = DEFAULT_DIM,
    base_period: float = DEFAULT_BASE_PERIOD,
    focal_reference: float = DEFAULT_FOCAL_REFERENCE,
) -> EmbeddingGrid:
    """Sinusoidal camera embedding of a ray grid.

    Four scalar channels (rx, ry, ln(fx/f0), ln(fy/f0)) each receive dim/4
    features.  Focal lengths enter in log space relative to
    ``focal_reference`` so their magnitudes stay O(1); raw pixel focals
    (hundreds to thousands) would alias the sinusoids.  The result is a
    deterministic function of geometry only, independent of image content.
    """
    if dim < 8 or dim % 8:
        raise BadDimension(f"camera embedding dim must be a multiple of 8, got {dim}")
    if not 0 < focal_reference < math.inf:
        raise CamGeomError(f"focal reference must be finite and > 0, got {focal_reference}")
    per_scalar = dim // 4
    log_fx = math.log(k.fx / focal_reference)
    log_fy = math.log(k.fy / focal_reference)
    shape = grid.rx.shape
    blocks = [
        sinusoid_features(grid.rx, per_scalar, base_period),
        sinusoid_features(grid.ry, per_scalar, base_period),
        np.broadcast_to(sinusoid_features(np.float64(log_fx), per_scalar, base_period), shape + (per_scalar,)),
        np.broadcast_to(sinusoid_features(np.float64(log_fy), per_scalar, base_period), shape + (per_scalar,)),
    ]
    data = np.concatenate(blocks, axis=-1)
    meta = {
        "base_period": base_period,
        "focal_reference": focal_reference,
        "intrinsics": k.to_dict(),
    }
    return EmbeddingGrid(data, dim, CAMERA_CHANNEL_LAYOUT, base_period, meta)
