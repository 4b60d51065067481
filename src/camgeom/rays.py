"""Dense camera ray grids and their sinusoidal embeddings.

For a token grid laid over the image (one token per ``patch`` x ``patch``
pixel tile), each token's image coordinate is its patch CENTER, so the ray
field is invariant under a consistent (image, intrinsics, patch) rescale.
The pinhole camera has no skew, so a token's rx depends on its column alone
and its ry on its row: a ray grid holds one rx per column and one ry per row.
The embedding encodes four scalars per token -- the two normalized ray
components plus the log-scaled global focal lengths -- with the classic
interleaved sin/cos frequency ladder.

Channel layout of the output (documented so consumers can slice):
``[rx | ry | ln(fx/f0) | ln(fy/f0)]``, each block ``dim/4`` wide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .camera import Intrinsics, _float_dtype, ray_components
from .errors import BadDimension, BelowMinimum, CamGeomError, GridExceedsImage, InvalidValue
from .errors import _choice, _count, _entries, _number, _positive

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
_ORIGINS = {"center": 0.5, "corner": 0.0}  # token origin -> its offset into the patch, in patches


@dataclass(frozen=True)
class TokenGridSpec:
    """Token grid geometry: rows x cols tokens of patch x patch pixels."""

    rows: int
    cols: int
    patch: float

    def __post_init__(self):
        for name in ("rows", "cols"):
            object.__setattr__(self, name, _count(f"token grid {name}", getattr(self, name), BelowMinimum))
        object.__setattr__(self, "patch", _check_patch(self.patch))

    @classmethod
    def cover(cls, k: Intrinsics, patch: float) -> "TokenGridSpec":
        """Smallest grid covering the image extent (last patch may be partial)."""
        patch = _check_patch(patch)
        return cls(math.ceil(k.height / patch), math.ceil(k.width / patch), patch)


def _held(array, dtype=None, adopt: bool = False) -> np.ndarray:
    """``array`` as a C-order buffer for a value type to hold: a copy, or with ``adopt`` the array itself."""
    return np.asarray(array, dtype, order="C") if adopt else np.array(array, dtype, order="C")


def _hold(value, **arrays) -> None:
    """Set each of ``arrays`` on the frozen dataclass ``value``, read-only."""
    for name, array in arrays.items():
        array.setflags(write=False)
        object.__setattr__(value, name, array)


def _adopt(cls, *values):
    """A ``cls`` of ``values`` whose arrays the library made for it alone: checked, then frozen in place, not copied."""
    value = object.__new__(cls)
    vars(value).update(zip((f.name for f in fields(cls) if f.init), values, strict=True))
    value.__post_init__(adopt=True)
    return value


def _check_patch(patch: float) -> float:
    if _number("patch", patch, BelowMinimum) < 1:
        raise BelowMinimum(f"patch: must be >= 1 pixel, got {patch!r}")
    return float(patch)


@dataclass(frozen=True, eq=False)
class RayGrid:
    """Normalized ray components as read-only copies: ``rx`` = (u-cx)/fx per column, ``ry`` = (v-cy)/fy per row."""

    rx: np.ndarray
    ry: np.ndarray

    def __post_init__(self):
        rx, ry = _held(self.rx, np.float64), _held(self.ry, np.float64)
        if rx.ndim != 1 or ry.ndim != 1 or not (rx.size and ry.size):
            raise BadDimension(f"rx and ry must each be 1-D with at least one entry, got {rx.shape} and {ry.shape}")
        if not (np.all(np.isfinite(rx)) and np.all(np.isfinite(ry))):
            raise InvalidValue("ray grid contains non-finite values")
        _hold(self, rx=rx, ry=ry)

    @property
    def rows(self) -> int:
        return len(self.ry)

    @property
    def cols(self) -> int:
        return len(self.rx)


@dataclass(frozen=True, eq=False)
class EmbeddingGrid:
    """rows x cols x dim sinusoidal features, one equal block of ``dim`` per ``layout`` name, and provenance
    ``meta`` (the library's holds its ``base_period``); a caller's data is copied, the library's adopted.
    float32 data is held as float32, any other as float64."""

    data: np.ndarray
    layout: tuple[str, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self, adopt: bool = False):
        data = np.asarray(self.data)
        data = _held(data, np.float32 if data.dtype == np.float32 else np.float64, adopt)
        object.__setattr__(self, "layout", _entries("embedding layout", self.layout, BadDimension, str))
        if data.ndim != 3 or not self.layout or data.shape[2] % len(self.layout):
            raise BadDimension(f"embedding data must be rows x cols x equal blocks per {self.layout}, got {data.shape}")
        _hold(self, data=data)

    @property
    def dim(self) -> int:
        return self.data.shape[2]


def token_centers(grid: TokenGridSpec, origin: str = "center") -> tuple[np.ndarray, np.ndarray]:
    """Image coordinates of each token: u per column, v per row.

    ``origin="center"`` (default) places tokens at patch centers; "corner"
    uses the patch top-left, kept for ablations.
    """
    offset = _ORIGINS[_choice("origin", origin, _ORIGINS, CamGeomError)]
    u = (np.arange(grid.cols, dtype=np.float64) + offset) * grid.patch
    v = (np.arange(grid.rows, dtype=np.float64) + offset) * grid.patch
    return u, v


def _pixel_index(floored: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The pixel of each floored coordinate on an axis of ``size`` pixels, clamped to the edge as a float
    before the int cast (a far coordinate, or +-inf, fits no int), and which coordinates are inside."""
    return np.clip(floored, 0, size - 1).astype(np.int64), (floored >= 0) & (floored < size)


def _check_grid_extent(k: Intrinsics, grid: TokenGridSpec) -> None:
    """A token grid may reach past the image by at most one patch on each axis."""
    if grid.rows * grid.patch > k.height + grid.patch or grid.cols * grid.patch > k.width + grid.patch:
        raise GridExceedsImage(
            f"grid {grid.rows}x{grid.cols} with patch {grid.patch} exceeds "
            f"image extent {k.width}x{k.height} by more than one patch"
        )


def ray_grid(k: Intrinsics, grid: TokenGridSpec, origin: str = "center") -> RayGrid:
    """Normalized ray components of the grid's tokens: rx per column, ry per row."""
    _check_grid_extent(k, grid)
    return RayGrid(*ray_components(*token_centers(grid, origin=origin), k))


def sinusoid_features(x: np.ndarray, dim: int, period: float, dtype=np.float64) -> np.ndarray:
    """Interleaved sin/cos ladder: sin(x / T^(2m/dim)), cos(...), m = 0..dim/2-1.

    ``dim`` is the per-scalar feature width and must be even.  Output shape
    is ``x.shape + (dim,)`` with every value in [-1, 1].  Computed in float64
    and filled in ``dtype``: at float32 each value is rounded once, the bits
    of the float64 features' ``astype``; BadDimension for another ``dtype``.
    """
    dim = _count("per-scalar feature width", dim, BadDimension, minimum=2, step=2)
    _positive("base period", period, CamGeomError)
    x = np.asarray(x, dtype=np.float64)
    m = np.arange(dim // 2, dtype=np.float64)
    angles = x[..., None] / period ** (2.0 * m / dim)
    out = np.empty(x.shape + (dim,), dtype=_float_dtype(dtype))
    np.sin(angles, out=out[..., 0::2])
    np.cos(angles, out=out[..., 1::2])
    return out


def embed(
    grid: RayGrid,
    k: Intrinsics,
    dim: int = DEFAULT_DIM,
    base_period: float = DEFAULT_BASE_PERIOD,
    focal_reference: float = DEFAULT_FOCAL_REFERENCE,
    dtype=np.float64,
) -> EmbeddingGrid:
    """Sinusoidal camera embedding of a ray grid.

    Four scalar channels (rx, ry, ln(fx/f0), ln(fy/f0)) each receive dim/4
    features.  Focal lengths enter in log space relative to
    ``focal_reference`` so their magnitudes stay O(1); raw pixel focals
    (hundreds to thousands) would alias the sinusoids.  The result is a
    deterministic function of geometry only, independent of image content.
    Each column's rx and each row's ry are embedded once, in float64, and
    held in ``dtype``, float32 or float64 (BadDimension otherwise): at float32 each value is rounded once.
    """
    dim = _count("camera embedding dim", dim, BadDimension, minimum=8, step=8)
    _positive("focal reference", focal_reference, CamGeomError)
    per_scalar = dim // 4
    log_focals = [math.log(f / focal_reference) for f in (k.fx, k.fy)]
    data = np.empty((grid.rows, grid.cols, dim), dtype=_float_dtype(dtype))
    blocks = data.reshape(grid.rows, grid.cols, 4, per_scalar)
    for c, values in enumerate((grid.rx[None, :], grid.ry[:, None], *log_focals)):
        blocks[:, :, c] = sinusoid_features(values, per_scalar, base_period, dtype)
    meta = {"base_period": base_period, "focal_reference": focal_reference, "intrinsics": k.to_dict()}
    return _adopt(EmbeddingGrid, data, CAMERA_CHANNEL_LAYOUT, meta)
