"""Pinhole camera model: intrinsics, projection and back-projection.

Conventions used throughout the toolkit:

* Continuous pixel coordinates with the origin at the top-left corner of
  the top-left pixel; the center of integer pixel ``(i, j)`` (row i, col j)
  is at ``(u, v) = (j + 0.5, i + 0.5)``.
* Camera frame is right-handed, x right, y down, z forward; a point is in
  front of the camera iff ``z > 0``.
* All geometry is computed in 64-bit floats. No skew, no lens distortion.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Any, Mapping

import numpy as np

from .errors import IntrinsicsError, NonPositiveDepth, NonPositiveSize

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
        for name in ("fx", "fy", "cx", "cy"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise IntrinsicsError(f"intrinsics.{name}: must be a finite number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.fx <= 0:
            raise IntrinsicsError(f"intrinsics.fx: must be > 0, got {self.fx}")
        if self.fy <= 0:
            raise IntrinsicsError(f"intrinsics.fy: must be > 0, got {self.fy}")
        for name in ("width", "height"):
            value = getattr(self, name)
            if isinstance(value, float):
                if not value.is_integer():
                    raise IntrinsicsError(f"intrinsics.{name}: must be an integer, got {value!r}")
                value = int(value)
            if not isinstance(value, int) or value < 1:
                raise IntrinsicsError(f"intrinsics.{name}: must be an integer >= 1, got {value!r}")
            object.__setattr__(self, name, value)

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
        values = {}
        for key in _INTRINSICS_KEYS:
            if key not in obj:
                raise IntrinsicsError(f"{where}.{key}: missing key")
            value = obj[key]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise IntrinsicsError(f"{where}.{key}: must be a number, got {value!r}")
            if not abs(value) <= 1.7976931348623157e308:  # the largest float: false for NaN, inf, huge ints
                raise IntrinsicsError(f"{where}.{key}: must be finite, got {value!r}")
            values[key] = value
        try:
            return cls(**values)
        except IntrinsicsError as exc:
            raise IntrinsicsError(str(exc).replace("intrinsics.", f"{where}.", 1)) from None

    @classmethod
    def from_json(cls, text: str, where: str = "intrinsics") -> "Intrinsics":
        try:
            obj = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
            raise IntrinsicsError(f"{where}: invalid JSON ({exc})") from None
        return cls.from_mapping(obj, where=where)


@dataclass(frozen=True)
class Point3:
    """3D point in meters; the frame (world or camera) is contextual."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(c) for c in (self.x, self.y, self.z)):
            raise ValueError(f"point components must be finite: {self}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=np.float64)


@dataclass(frozen=True)
class Pixel:
    """Continuous pixel coordinates (u right, v down)."""

    u: float
    v: float

    def __post_init__(self):
        if not (math.isfinite(self.u) and math.isfinite(self.v)):
            raise ValueError(f"pixel coordinates must be finite: {self}")


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
    if point.z <= 0:
        raise NonPositiveDepth(f"cannot project point with Z = {point.z} <= 0")
    u, v = project_array(point.as_array(), k)
    return Pixel(float(u), float(v))


def back_project(pixel: Pixel, k: Intrinsics) -> Ray:
    """Unit ray through a pixel: direction proportional to ((u-cx)/fx, (v-cy)/fy, 1)."""
    dx, dy, dz = ray_directions(pixel.u, pixel.v, k)
    return Ray(float(dx), float(dy), float(dz))


def _projected_extent(size: float, name: str, depth: float, focal: float) -> float:
    if size <= 0 or not math.isfinite(size):
        raise NonPositiveSize(f"{name} must be > 0, got {size}")
    if depth <= 0 or not math.isfinite(depth):
        raise NonPositiveDepth(f"depth must be > 0, got {depth}")
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
    rx, ry = ray_components(u, v, k)
    d = np.stack([rx, ry, np.ones_like(rx)], axis=-1)
    return d / np.linalg.norm(d, axis=-1, keepdims=True)


def unproject_array(u: np.ndarray, v: np.ndarray, z: np.ndarray, k: Intrinsics) -> np.ndarray:
    """Camera-frame points ray x depth, ((u-cx)/fx*Z, (v-cy)/fy*Z, Z), shape (..., 3).

    The inverse of :func:`project_array`; ``u``, ``v`` and ``z`` broadcast
    together.  Depth is not checked, so NaN marks an invalid point.
    """
    rx, ry = ray_components(u, v, k)
    z = np.asarray(z, dtype=np.float64)
    return np.stack(np.broadcast_arrays(rx * z, ry * z, z), axis=-1)
