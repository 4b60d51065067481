"""The closed algebra of intrinsic updates under resampling, cropping, padding.

A :class:`PixelTransform` maps continuous pixel coordinates of the source
image to the output image as ``u' = sx*u - du, v' = sy*v - dv``.  Offsets
are measured AFTER scaling.  Applying the matching intrinsic update
``(fx, fy, cx, cy) -> (sx*fx, sy*fy, sx*cx - du, sy*cy - dv)`` preserves the
line of sight of every pixel, which :func:`ray_preservation_check` verifies
numerically.

Output extents are rounded to the nearest integer (minimum 1); rounding only
affects the raster canvas, never the focal/principal-point arithmetic.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from .camera import Intrinsics, ray_directions
from .errors import BelowMinimum, CamGeomError, NonPositiveScale, _count, _number, _positive

__all__ = [
    "PixelTransform",
    "scale",
    "apply_transform",
    "compose",
    "invert",
    "ray_preservation_check",
]


def _round_extent(value: float) -> int:
    return max(1, int(round(value)))


@dataclass(frozen=True)
class PixelTransform:
    """Scale-then-translate map on pixel coordinates with a target canvas."""

    sx: float
    sy: float
    du: float
    dv: float
    out_width: int
    out_height: int

    def __post_init__(self):
        for name, check, error in (("sx", _positive, NonPositiveScale), ("sy", _positive, NonPositiveScale),
                                   ("du", _number, CamGeomError), ("dv", _number, CamGeomError),
                                   ("out_width", _count, BelowMinimum), ("out_height", _count, BelowMinimum)):
            object.__setattr__(self, name, check(f"transform.{name}", getattr(self, name), error))

    @classmethod
    def identity(cls, width: int, height: int) -> "PixelTransform":
        return cls(1.0, 1.0, 0.0, 0.0, width, height)

    @classmethod
    def scaling(cls, s: float, width: int, height: int) -> "PixelTransform":
        """Pure resize of a width x height source by factor s."""
        _positive("scale factor", s, NonPositiveScale)
        width, height = _count("width", width, BelowMinimum), _count("height", height, BelowMinimum)
        return cls(s, s, 0.0, 0.0, _round_extent(s * width), _round_extent(s * height))

    def apply(self, u, v):
        """Map source pixel coordinates to output coordinates (scalar or array)."""
        return self.sx * np.asarray(u, dtype=np.float64) - self.du, \
               self.sy * np.asarray(v, dtype=np.float64) - self.dv

    def source_coords(self, u_out, v_out):
        """Map output pixel coordinates back to source coordinates."""
        return (np.asarray(u_out, dtype=np.float64) + self.du) / self.sx, \
               (np.asarray(v_out, dtype=np.float64) + self.dv) / self.sy

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def scale(k: Intrinsics, s: float) -> Intrinsics:
    """Resize rule: (fx, fy, cx, cy) -> (s*fx, s*fy, s*cx, s*cy), extent rounded."""
    return apply_transform(k, PixelTransform.scaling(s, k.width, k.height))


def apply_transform(k: Intrinsics, t: PixelTransform) -> Intrinsics:
    """Intrinsics for the resampled image: per-axis scale, then offset shift."""
    return Intrinsics(
        t.sx * k.fx,
        t.sy * k.fy,
        t.sx * k.cx - t.du,
        t.sy * k.cy - t.dv,
        t.out_width,
        t.out_height,
    )


def compose(a: PixelTransform, b: PixelTransform) -> PixelTransform:
    """Transform equal to applying ``a`` first, then ``b``; extent from ``b``."""
    return PixelTransform(
        a.sx * b.sx,
        a.sy * b.sy,
        b.sx * a.du + b.du,
        b.sy * a.dv + b.dv,
        b.out_width,
        b.out_height,
    )


def invert(t: PixelTransform, out_width: int | None = None, out_height: int | None = None) -> PixelTransform:
    """Inverse map u = (u' + du)/sx.  Extent defaults to the un-scaled canvas."""
    if out_width is None:
        out_width = _round_extent(t.out_width / t.sx)
    if out_height is None:
        out_height = _round_extent(t.out_height / t.sy)
    return PixelTransform(1.0 / t.sx, 1.0 / t.sy, -t.du / t.sx, -t.dv / t.sy, out_width, out_height)


def ray_preservation_check(
    k: Intrinsics,
    t: PixelTransform,
    transformed_intrinsics: Intrinsics | None = None,
    samples: int = 64,
) -> float:
    """Max angle (radians) between source rays and transformed-image rays.

    Samples a dense grid of source pixel centers spanning the full extent,
    maps each through ``t`` and back-projects with ``transformed_intrinsics``
    (default: the consistently updated intrinsics, for which the result is
    ~0).  Passing the ORIGINAL intrinsics instead quantifies how far a stale
    calibration bends every line of sight.
    """
    if transformed_intrinsics is None:
        transformed_intrinsics = apply_transform(k, t)
    u = np.linspace(0.5, k.width - 0.5, samples)
    v = np.linspace(0.5, k.height - 0.5, samples)
    uu, vv = np.meshgrid(u, v)
    d_src = ray_directions(uu, vv, k)
    u_out, v_out = t.apply(uu, vv)
    d_out = ray_directions(u_out, v_out, transformed_intrinsics)
    cross = np.linalg.norm(np.cross(d_src, d_out), axis=-1)
    dot = np.sum(d_src * d_out, axis=-1)
    return float(np.max(np.arctan2(cross, dot)))
