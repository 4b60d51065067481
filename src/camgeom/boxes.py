"""Oriented 3D boxes and exact overlap via half-space clipping.

A box is the 9-tuple [x_center, y_center, z_center, x_size, y_size, z_size,
yaw, pitch, roll].  Rotation is intrinsic yaw-pitch-roll about the box
center, composed as Rz(yaw) @ Ry(pitch) @ Rx(roll) with z up by default;
the composition order is a parameter because annotation sources disagree
and axis-aligned results do not depend on it.

The intersection of two boxes is computed exactly (up to float rounding):
one box's face polygons are clipped against the other's six half-spaces
(Sutherland-Hodgman per face, plus a cap polygon where each plane cuts),
and the volume of the clipped polytope follows from the divergence theorem
as a signed tetrahedron sum over its outward-wound faces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CamGeomError, DegenerateBox

__all__ = [
    "OrientedBox3",
    "rotation_matrix",
    "box_corners",
    "box_face_polygons",
    "polytope_volume",
    "intersection_volume",
    "clipped_intersection_volume",
    "iou3d",
    "aabb_iou",
]

# corner sign pattern (---, --+, -+-, ... +++): corner i has signs of the bits of i
_SIGNS = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)], dtype=np.float64)
# corners of the faces +x, -x, +y, -y, +z, -z, each wound CCW as seen from outside
_FACES = [[7, 5, 4, 6], [2, 0, 1, 3], [7, 6, 2, 3], [1, 0, 4, 5], [7, 3, 1, 5], [4, 0, 2, 6]]


@dataclass(frozen=True)
class OrientedBox3:
    """Oriented cuboid: center and size in meters, attitude in radians."""

    center: tuple[float, float, float]
    size: tuple[float, float, float]
    yaw: float
    pitch: float
    roll: float

    def __post_init__(self):
        center = tuple(float(c) for c in self.center)
        size = tuple(float(s) for s in self.size)
        angles = (float(self.yaw), float(self.pitch), float(self.roll))
        if len(center) != 3 or len(size) != 3:
            raise DegenerateBox("center and size must have 3 components each")
        if not all(math.isfinite(v) for v in center + size + angles):
            raise DegenerateBox(f"box parameters must be finite: {center + size + angles}")
        if any(s <= 0 for s in size):
            raise DegenerateBox(f"box sizes must be > 0, got {size}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "yaw", angles[0])
        object.__setattr__(self, "pitch", angles[1])
        object.__setattr__(self, "roll", angles[2])

    @classmethod
    def from_list(cls, values: Sequence[float]) -> "OrientedBox3":
        if len(values) != 9:
            raise DegenerateBox(f"box list must have 9 entries, got {len(values)}")
        v = [float(x) for x in values]
        return cls((v[0], v[1], v[2]), (v[3], v[4], v[5]), v[6], v[7], v[8])

    def to_list(self) -> list[float]:
        return [*self.center, *self.size, self.yaw, self.pitch, self.roll]

    def volume(self) -> float:
        return self.size[0] * self.size[1] * self.size[2]

    def rotation(self, order: str = "zyx") -> np.ndarray:
        return rotation_matrix(self.yaw, self.pitch, self.roll, order=order)


def _check_order(order: str) -> None:
    if sorted(order) != ["x", "y", "z"]:
        raise CamGeomError(f"rotation order must be a permutation of 'xyz', got {order!r}")


def rotation_matrix(yaw: float, pitch: float, roll: float, order: str = "zyx") -> np.ndarray:
    """Compose single-axis rotations in the named order (left to right)."""
    _check_order(order)
    if yaw == 0.0 and pitch == 0.0 and roll == 0.0:
        return np.eye(3)
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cr, sr = math.cos(roll), math.sin(roll)
    single = {
        "z": np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]]),
        "y": np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]]),
        "x": np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]]),
    }
    out = np.eye(3)
    for axis in order:
        out = out @ single[axis]
    return out


def _corners(box: OrientedBox3, rot: np.ndarray) -> np.ndarray:
    half = np.asarray(box.size, dtype=np.float64) / 2.0
    return _SIGNS * half @ rot.T + np.asarray(box.center, dtype=np.float64)


def box_corners(box: OrientedBox3, order: str = "zyx") -> np.ndarray:
    """The 8 corners, shape (8, 3), sign pattern (---, --+, -+-, ... +++)."""
    return _corners(box, box.rotation(order))


def box_face_polygons(box: OrientedBox3, order: str = "zyx") -> list[np.ndarray]:
    """Six quads, each (4, 3), wound CCW as seen from outside (outward normals)."""
    return list(box_corners(box, order)[_FACES])


def polytope_volume(faces: list[np.ndarray]) -> float:
    """Volume of a closed polytope from outward-wound face polygons.

    Divergence-theorem form: one sixth of the summed scalar triple products
    over a triangle fan of every face.
    """
    total = 0.0
    for poly in faces:
        v0 = poly[0]
        for i in range(1, len(poly) - 1):
            total += float(np.dot(v0, np.cross(poly[i], poly[i + 1])))
    return total / 6.0


def _clip_faces(
    faces: list[np.ndarray], normal: np.ndarray, offset: float, eps: float
) -> list[np.ndarray]:
    """Clip a face-polygon polytope against the half-space normal . x <= offset.

    Keeps the inside parts of every face and closes the cut with a cap
    polygon (wound so its outward normal is ``normal``).
    """
    kept: list[np.ndarray] = []
    crossings: list[np.ndarray] = []
    for poly in faces:
        dist = poly @ normal - offset
        inside = dist <= eps
        if np.all(inside):
            kept.append(poly)
            continue
        if not np.any(inside):
            continue
        out: list[np.ndarray] = []
        m = len(poly)
        for i in range(m):
            j = (i + 1) % m
            if inside[i]:
                out.append(poly[i])
            if inside[i] != inside[j]:
                t = dist[i] / (dist[i] - dist[j])
                t = min(max(t, 0.0), 1.0)
                p = poly[i] + t * (poly[j] - poly[i])
                out.append(p)
                crossings.append(p)
        if len(out) >= 3:
            kept.append(np.asarray(out))
    if len(crossings) >= 3:
        pts = np.asarray(crossings)
        centroid = pts.mean(axis=0)
        # in-plane right-handed basis (e1, e2, normal): ascending angle = CCW
        # seen from +normal, giving the cap an outward winding
        helper = np.eye(3)[int(np.argmin(np.abs(normal)))]
        e1 = np.cross(normal, helper)
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(normal, e1)
        rel = pts - centroid
        ang = np.arctan2(rel @ e2, rel @ e1)
        kept.append(pts[np.argsort(ang)])
    return kept


def intersection_volume(a: OrientedBox3, b: OrientedBox3, order: str = "zyx") -> float:
    """Exact volume of the intersection of two oriented boxes."""
    if (a.yaw, a.pitch, a.roll) == (b.yaw, b.pitch, b.roll):
        # equal attitudes: the overlap is axis-aligned in the shared box frame
        rot = a.rotation(order)
        delta = rot.T @ (np.asarray(b.center) - np.asarray(a.center))
        ha = np.asarray(a.size) / 2.0
        hb = np.asarray(b.size) / 2.0
        return _aligned_overlap(-ha, ha, delta - hb, delta + hb)
    return clipped_intersection_volume(a, b, order)


def _aligned_overlap(lo_a, hi_a, lo_b, hi_b) -> float:
    """Volume shared by two axis-aligned boxes, each given by its low and high corner."""
    overlap = np.minimum(hi_a, hi_b) - np.maximum(lo_a, lo_b)
    if np.any(overlap <= 0):
        return 0.0
    return float(np.prod(overlap))


def clipped_intersection_volume(a: OrientedBox3, b: OrientedBox3, order: str = "zyx") -> float:
    """Intersection volume via the full half-space clipping pipeline.

    :func:`intersection_volume` dispatches here whenever the two attitudes
    differ; it stays callable directly so tests can pit the clipper against
    closed forms on inputs the fast path would otherwise intercept.
    """
    corners_a = box_corners(a, order)
    rot_b = b.rotation(order)
    corners_b = _corners(b, rot_b)
    if np.any(corners_a.max(axis=0) <= corners_b.min(axis=0)) or np.any(
        corners_b.max(axis=0) <= corners_a.min(axis=0)
    ):
        return 0.0
    scale = max(1.0, float(np.max(np.abs(corners_a))), float(np.max(np.abs(corners_b))))
    eps = 1e-9 * scale
    faces = list(corners_a[_FACES])
    center_b = np.asarray(b.center, dtype=np.float64)
    half_b = np.asarray(b.size, dtype=np.float64) / 2.0
    for axis in range(3):
        for sign in (1.0, -1.0):  # b's face planes, as half-spaces normal . x <= offset
            normal = sign * rot_b[:, axis]
            faces = _clip_faces(faces, normal, float(normal @ center_b + half_b[axis]), eps)
            if not faces:
                return 0.0
    return max(polytope_volume(faces), 0.0)


def iou3d(a: OrientedBox3, b: OrientedBox3, order: str = "zyx") -> float:
    """Intersection-over-union of two oriented cuboids, in [0, 1]."""
    va = a.volume()
    vb = b.volume()
    vi = min(intersection_volume(a, b, order), va, vb)
    return vi / (va + vb - vi)


def aabb_iou(a: OrientedBox3, b: OrientedBox3) -> float:
    """Closed-form IoU treating both boxes as axis-aligned (attitude ignored).

    Provided for sensitivity checks against the oriented computation; for
    boxes with zero angles it is the exact answer.
    """
    ca = np.asarray(a.center)
    cb = np.asarray(b.center)
    ha = np.asarray(a.size) / 2.0
    hb = np.asarray(b.size) / 2.0
    vi = _aligned_overlap(ca - ha, ca + ha, cb - hb, cb + hb)
    return vi / (a.volume() + b.volume() - vi)
