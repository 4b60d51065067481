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
as a signed tetrahedron sum over its outward-wound faces.  This is the
clip-and-volume method of PyTorch3D's ``box3d_overlap`` (Ravi et al., 2020)
and the Objectron IoU (Ahmadyan et al., CVPR 2021).  Each box computes its
rotation, corners, bounding box and face planes once per rotation order and
keeps them.  Equal attitudes skip the clip for :func:`aabb_iou`'s closed form
in the box frame, measured from the first box's center; all per-pair work is
on plain floats but that frame product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CamGeomError, DegenerateBox, _number, _positive

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
        center = tuple(_number("box center", c, DegenerateBox) for c in self.center)
        size = tuple(_positive("box size", s, DegenerateBox) for s in self.size)
        if len(center) != 3 or len(size) != 3:
            raise DegenerateBox("center and size must have 3 components each")
        if not 0.0 < size[0] * size[1] * size[2] < math.inf:
            raise DegenerateBox(f"box sizes must be > 0 with a finite, non-zero volume, got {size}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "size", size)
        for name in ("yaw", "pitch", "roll"):
            object.__setattr__(self, name, _number(f"box {name}", getattr(self, name), DegenerateBox))

    @classmethod
    def from_list(cls, values: Sequence[float]) -> "OrientedBox3":
        if len(values) != 9:
            raise DegenerateBox(f"box list must have 9 entries, got {len(values)}")
        return cls(values[0:3], values[3:6], *values[6:])

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


def polytope_volume(faces: Sequence[Sequence]) -> float:
    """Volume of a closed polytope from outward-wound faces, each a sequence of 3-vectors.

    Divergence-theorem form: one sixth of the summed scalar triple products
    over a triangle fan of every face.
    """
    total = 0.0
    for (x0, y0, z0), *rest in faces:
        for (x1, y1, z1), (x2, y2, z2) in zip(rest, rest[1:]):
            total += x0 * (y1 * z2 - z1 * y2) + y0 * (z1 * x2 - x1 * z2) + z0 * (x1 * y2 - y1 * x2)
    return float(total) / 6.0


def _geometry(box: OrientedBox3, order: str) -> tuple:
    """Face polygons, AABB low and high corner, max |coordinate| and face planes
    (normal, offset, e1, e2) of ``box``, on floats: normal . x <= offset inside,
    (e1, e2, normal) right-handed.  Kept on the box, outside its fields.
    """
    cache = box.__dict__.setdefault("_geometry", {})
    if order not in cache:
        rot = box.rotation(order)
        corners = _corners(box, rot)
        points = [tuple(c) for c in corners.tolist()]
        axes = rot.T.tolist()
        planes = []
        for k in range(3):
            e1, e2 = axes[(k + 1) % 3], axes[(k + 2) % 3]  # axes k+1, k+2, k are right-handed
            for normal, basis in ((rot[:, k], (e1, e2)), (-rot[:, k], (e2, e1))):
                planes.append((normal.tolist(), float(normal @ box.center + box.size[k] / 2.0), *basis))
        cache[order] = ([[points[i] for i in face] for face in _FACES], corners.min(axis=0).tolist(),
                        corners.max(axis=0).tolist(), float(np.abs(corners).max()), planes)
    return cache[order]


def _clip_faces(faces: list[list[tuple]], plane: tuple, eps: float) -> list[list[tuple]]:
    """Clip a face-polygon polytope against one of :func:`_geometry`'s planes.

    Keeps the inside parts of every face and closes the cut with a cap
    polygon (wound so its outward normal is the plane's normal).
    """
    (nx, ny, nz), offset, (ax, ay, az), (bx, by, bz) = plane
    kept: list[list[tuple]] = []
    crossings: list[tuple] = []
    for poly in faces:
        dist = [nx * x + ny * y + nz * z - offset for x, y, z in poly]
        inside = [d <= eps for d in dist]
        if all(inside):
            kept.append(poly)
            continue
        if not any(inside):
            continue
        out: list[tuple] = []
        m = len(poly)
        for i in range(m):
            j = (i + 1) % m
            if inside[i]:
                out.append(poly[i])
            if inside[i] != inside[j]:
                t = min(max(dist[i] / (dist[i] - dist[j]), 0.0), 1.0)
                p = tuple(u + t * (v - u) for u, v in zip(poly[i], poly[j]))
                out.append(p)
                crossings.append(p)
        if len(out) >= 3:
            kept.append(out)
    if len(crossings) >= 3:
        # ascending angle about the centroid in the (e1, e2) plane = CCW seen
        # from +normal, giving the cap an outward winding
        uv = [(ax * x + ay * y + az * z, bx * x + by * y + bz * z) for x, y, z in crossings]
        cu = sum(u for u, _ in uv) / len(uv)
        cv = sum(v for _, v in uv) / len(uv)
        angles = [math.atan2(v - cv, u - cu) for u, v in uv]
        kept.append([p for _, p in sorted(zip(angles, crossings))])
    return kept


def intersection_volume(a: OrientedBox3, b: OrientedBox3, order: str = "zyx") -> float:
    """Exact volume of the intersection of two oriented boxes."""
    if (a.yaw, a.pitch, a.roll) == (b.yaw, b.pitch, b.roll):
        # equal attitudes: the overlap is axis-aligned in the shared box frame
        return _aligned_overlap(a, b, a.rotation(order))
    return clipped_intersection_volume(a, b, order)


def _aligned_overlap(a: OrientedBox3, b: OrientedBox3, frame: np.ndarray | None = None) -> float:
    """Volume shared by axis-aligned boxes ``a`` and ``b``, b's center taken from a's in ``frame``'s axes."""
    offset = [cb - ca for ca, cb in zip(a.center, b.center)]
    if not all(map(math.isfinite, offset)):  # overflowed: too far apart for finite boxes to meet
        return 0.0
    size_a, size_b, unit = a.size, b.size, 1.0
    if frame is not None:
        if abs(offset[0]) + abs(offset[1]) + abs(offset[2]) == math.inf:
            # the frame product could overflow: measure in half lengths, exact above the subnormal range
            offset, size_a, size_b = ([x / 2 for x in v] for v in (offset, a.size, b.size))
            unit = 8.0
        offset = (frame.T @ offset).tolist()
    volume = 1.0
    for sa, d, sb in zip(size_a, offset, size_b):
        side = min(sa / 2, d + sb / 2) - max(-sa / 2, d - sb / 2)
        if side <= 0:
            return 0.0
        volume *= side
    return volume * unit


def clipped_intersection_volume(a: OrientedBox3, b: OrientedBox3, order: str = "zyx") -> float:
    """Intersection volume via the full half-space clipping pipeline.

    :func:`intersection_volume` dispatches here whenever the two attitudes
    differ; it stays callable directly so tests can pit the clipper against
    closed forms on inputs the fast path would otherwise intercept.
    """
    faces, lo_a, hi_a, reach_a, _ = _geometry(a, order)
    _, lo_b, hi_b, reach_b, planes_b = _geometry(b, order)
    if any(h <= lo for h, lo in zip(hi_a, lo_b)) or any(h <= lo for h, lo in zip(hi_b, lo_a)):
        return 0.0
    eps = 1e-9 * max(1.0, reach_a, reach_b)
    for plane in planes_b:
        faces = _clip_faces(faces, plane, eps)
        if not faces:
            return 0.0
    return max(polytope_volume(faces), 0.0)


def _iou(vi: float, va: float, vb: float) -> float:
    """IoU of boxes of volumes va and vb sharing vi, clamped to min(va, vb); when va + vb
    overflows, all three are halved first, which is exact."""
    vi = min(vi, va, vb)
    if va + vb == math.inf:
        vi, va, vb = vi / 2, va / 2, vb / 2
    return vi / (va + vb - vi)


def iou3d(a: OrientedBox3, b: OrientedBox3, order: str = "zyx") -> float:
    """Intersection-over-union of two oriented cuboids, in [0, 1]."""
    return _iou(intersection_volume(a, b, order), a.volume(), b.volume())


def aabb_iou(a: OrientedBox3, b: OrientedBox3) -> float:
    """Closed-form IoU treating both boxes as axis-aligned (attitude ignored).

    Provided for sensitivity checks against the oriented computation; for
    boxes with zero angles it is the exact answer, bit for bit :func:`iou3d`'s.
    """
    return _iou(_aligned_overlap(a, b), a.volume(), b.volume())
