"""Pinhole camera model: intrinsics, projection and back-projection.

Conventions used throughout the toolkit:

* Continuous pixel coordinates with the origin at the top-left corner of
  the top-left pixel; the center of integer pixel ``(i, j)`` (row i, col j)
  is at ``(u, v) = (j + 0.5, i + 0.5)``.
* Camera frame is right-handed, x right, y down, z forward; a point is in
  front of the camera iff ``z > 0``.
* All geometry is computed in 64-bit floats; the CLI's tensors are filled at
  float32, each value rounded once. No skew, no lens distortion.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Mapping

import numpy as np

from .errors import BadDimension, CamGeomError, IntrinsicsError, NonPositiveDepth, NonPositiveSize, _count, _json
from .errors import _number, _positive

__all__ = [
    "Intrinsics",
    "Point3",
    "Pixel",
    "Ray",
    "project",
    "back_project",
    "projected_height",
    "projected_width",
    "project_array",
    "ray_components",
    "ray_directions",
    "unproject_array",
]

_INTRINSICS_KEYS = ("fx", "fy", "cx", "cy", "width", "height")


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole parameters in pixels plus the image extent they refer to."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        for name, check in zip(_INTRINSICS_KEYS, (_positive, _positive, _number, _number, _count, _count)):
            object.__setattr__(self, name, check(f"intrinsics.{name}", getattr(self, name), IntrinsicsError))

    def matrix(self) -> np.ndarray:
        """3x3 calibration matrix [[fx, 0, cx], [0, fy, cy], [0, 0, 1]]."""
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]],
            dtype=np.float64,
        )

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    def to_json(self) -> str:
        # json round-trips finite doubles bit-exactly (repr-based float encoding)
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_mapping(cls, obj: Mapping[str, Any], where: str = "intrinsics") -> "Intrinsics":
        """Build from a parsed JSON object, reporting errors by key path."""
        if not isinstance(obj, Mapping):
            raise IntrinsicsError(f"{where}: expected a JSON object, got {type(obj).__name__}")
        for key in _INTRINSICS_KEYS:
            if key not in obj:
                raise IntrinsicsError(f"{where}.{key}: missing key")
        try:
            return cls(**{key: obj[key] for key in _INTRINSICS_KEYS})
        except IntrinsicsError as exc:
            raise IntrinsicsError(str(exc).replace("intrinsics.", f"{where}.", 1)) from None

    @classmethod
    def from_json(cls, text: str, where: str = "intrinsics") -> "Intrinsics":
        return cls.from_mapping(_json(where, text, IntrinsicsError), where=where)


@dataclass(frozen=True)
class Point3:
    """3D point in meters; the frame (world or camera) is contextual."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            _number(f"point.{name}", getattr(self, name), CamGeomError)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=np.float64)


@dataclass(frozen=True)
class Pixel:
    """Continuous pixel coordinates (u right, v down)."""

    u: float
    v: float

    def __post_init__(self):
        _number("pixel.u", self.u, CamGeomError)
        _number("pixel.v", self.v, CamGeomError)


@dataclass(frozen=True)
class Ray:
    """Unit-length viewing direction in the camera frame."""

    dx: float
    dy: float
    dz: float

    def as_array(self) -> np.ndarray:
        return np.array([self.dx, self.dy, self.dz], dtype=np.float64)


def project(point: Point3, k: Intrinsics) -> Pixel:
    """Project a camera-frame point: u = fx*X/Z + cx, v = fy*Y/Z + cy.

    The result may lie outside the image extent; no clamping is applied.
    Raises NonPositiveDepth for points on or behind the image plane.
    """
    u, v = project_array(point.as_array(), k)
    return Pixel(float(u), float(v))


def back_project(pixel: Pixel, k: Intrinsics) -> Ray:
    """Unit ray through a pixel: direction proportional to ((u-cx)/fx, (v-cy)/fy, 1)."""
    dx, dy, dz = ray_directions(pixel.u, pixel.v, k)
    return Ray(float(dx), float(dy), float(dz))


def _projected_extent(size: float, name: str, depth: float, focal: float) -> float:
    _positive(name, size, NonPositiveSize)
    _positive("depth", depth, NonPositiveDepth)
    return focal * size / depth


def projected_height(height: float, depth: float, k: Intrinsics) -> float:
    """Image height in pixels of a fronto-parallel extent: fy * H / Z."""
    return _projected_extent(height, "height", depth, k.fy)


def projected_width(width: float, depth: float, k: Intrinsics) -> float:
    """Image width in pixels of a fronto-parallel extent: fx * W / Z."""
    return _projected_extent(width, "width", depth, k.fx)


def project_array(points: np.ndarray, k: Intrinsics) -> np.ndarray:
    """Vectorized projection of camera-frame points, shape (..., 3) -> (..., 2)."""
    points = np.asarray(points, dtype=np.float64)
    z = points[..., 2]
    if np.any(z <= 0):
        raise NonPositiveDepth("all points must have Z > 0")
    u = k.fx * points[..., 0] / z + k.cx
    v = k.fy * points[..., 1] / z + k.cy
    return np.stack([u, v], axis=-1)


def ray_components(u: np.ndarray, v: np.ndarray, k: Intrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Normalized ray components ((u-cx)/fx, (v-cy)/fy) for pixel arrays."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return (u - k.cx) / k.fx, (v - k.cy) / k.fy


def ray_directions(u: np.ndarray, v: np.ndarray, k: Intrinsics) -> np.ndarray:
    """Unit ray directions for pixel arrays, shape (..., 3)."""
    d = unproject_array(u, v, 1.0, k)
    return d / np.linalg.norm(d, axis=-1, keepdims=True)


def _float_dtype(dtype):
    """``dtype`` if numpy reads it as float32 or float64; BadDimension otherwise, also for one numpy cannot parse."""
    try:
        if np.dtype(dtype) in (np.float32, np.float64):
            return dtype
    except (TypeError, ValueError):  # not a dtype numpy can parse
        pass
    raise BadDimension(f"dtype: must be float32 or float64, got {dtype!r}")


def unproject_array(u: np.ndarray, v: np.ndarray, z: np.ndarray, k: Intrinsics, dtype=np.float64) -> np.ndarray:
    """Camera-frame points ray x depth, ((u-cx)/fx*Z, (v-cy)/fy*Z, Z), shape (..., 3).

    The inverse of :func:`project_array`; ``u``, ``v`` and ``z`` broadcast
    together.  Depth is not checked, so NaN marks an invalid point.  Computed
    in float64 and filled in ``dtype``: at float32 each value is rounded once,
    the bits of the float64 points' ``astype``; BadDimension for another ``dtype``.
    """
    rx, ry = ray_components(u, v, k)
    z = np.asarray(z, dtype=np.float64)
    points = np.empty(np.broadcast_shapes(rx.shape, ry.shape, z.shape) + (3,), dtype=_float_dtype(dtype))
    np.multiply(rx, z, out=points[..., 0])
    np.multiply(ry, z, out=points[..., 1])
    points[..., 2] = z
    return points
