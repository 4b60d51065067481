"""Oriented 3D boxes and exact overlap via half-space clipping.

A box is the 9-tuple [x_center, y_center, z_center, x_size, y_size, z_size,
yaw, pitch, roll].  Rotation is intrinsic yaw-pitch-roll about the box
center, composed as Rz(yaw) @ Ry(pitch) @ Rx(roll) with z up by default;
the composition order is a parameter because annotation sources disagree
and axis-aligned results do not depend on it.

The intersection of two boxes is computed exactly (up to float rounding):
the second box, one mesh of shared vertices and index faces, is clipped
against the first's six half-spaces; each cut edge's crossing is made once,
shared by its two faces, and each cap is walked from the cut faces, not sorted
by angle.  The volume of the clipped polytope follows from the divergence
theorem as a signed tetrahedron sum over its outward-wound faces.  This is
the clip-and-volume method of PyTorch3D's ``box3d_overlap`` (Ravi et al.,
2020) and the Objectron IoU (Ahmadyan et al., CVPR 2021).  The clip runs in
the first box's frame, where its half-spaces are +-x[k] <= h[k], with both
boxes scaled by the power of two that puts the largest size in [1/2, 1): that
is exact, so IoU depends on neither the pair's place nor its unit, and no
triple product overflows.  Each box keeps its rotation and bounding box per
rotation order, made for many boxes in one array pass that feeds an (n, m)
AABB broad phase, as in ``box3d_overlap``.  Equal attitudes skip the clip for
:func:`aabb_iou`'s closed form in the box frame, from the first box's center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CamGeomError, DegenerateBox, _choice, _entries, _factors, _number

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
    "DEFAULT_ROTATION_ORDER",
]

DEFAULT_ROTATION_ORDER = "zyx"
_ORDERS = ("xyz", "xzy", "yxz", "yzx", "zxy", "zyx")  # the rotation orders: each permutation of the three axes
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
        center = _entries("box center", self.center, DegenerateBox, n=3)
        center = tuple(_number("box center", c, DegenerateBox) for c in center)
        size = _factors("box size", self.size, ("box size",) * 3, DegenerateBox)
        if not 0.0 < size[0] * size[1] * size[2] < math.inf:
            raise DegenerateBox(f"box sizes must be > 0 with a finite, non-zero volume, got {size}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "size", size)
        for name in ("yaw", "pitch", "roll"):
            object.__setattr__(self, name, _number(f"box {name}", getattr(self, name), DegenerateBox))

    @classmethod
    def from_list(cls, values: Iterable[float]) -> "OrientedBox3":
        values = _entries("box list arity", values, DegenerateBox, n=9)
        return cls(values[0:3], values[3:6], *values[6:])

    def to_list(self) -> list[float]:
        return [*self.center, *self.size, self.yaw, self.pitch, self.roll]

    def volume(self) -> float:
        return self.size[0] * self.size[1] * self.size[2]

    def rotation(self, order: str = DEFAULT_ROTATION_ORDER) -> np.ndarray:
        return rotation_matrix(self.yaw, self.pitch, self.roll, order=order)


def rotation_matrix(yaw, pitch, roll, order: str = DEFAULT_ROTATION_ORDER) -> np.ndarray:
    """Compose single-axis rotations in the named order (left to right): three floats give (3, 3), three
    arrays of shape (n,) give (n, 3, 3), each row bit for bit its floats' (3, 3); zero angles give np.eye(3)."""
    _choice("rotation order", order, _ORDERS, CamGeomError)
    if not isinstance(yaw, np.ndarray) and yaw == 0.0 and pitch == 0.0 and roll == 0.0:
        return np.eye(3)
    angles = np.array([yaw, pitch, roll], dtype=np.float64)
    (cy, cp, cr), (sy, sp, sr) = np.cos(angles), np.sin(angles)
    zero, one = np.zeros(angles.shape[1:]), np.ones(angles.shape[1:])
    single = {
        "z": [[cy, -sy, zero], [sy, cy, zero], [zero, zero, one]],
        "y": [[cp, zero, sp], [zero, one, zero], [-sp, zero, cp]],
        "x": [[one, zero, zero], [zero, cr, -sr], [zero, sr, cr]],
    }
    out = np.eye(3)
    for axis in order:  # C-ordered (..., 3, 3) operands: each row takes the kernel, and bits, of a float call
        out = out @ np.ascontiguousarray(np.moveaxis(single[axis], (0, 1), (-2, -1)))
    return out


def _corners(size, rot: np.ndarray, center) -> np.ndarray:
    """Corners (..., 8, 3) of boxes of sizes and centers (..., 3) under rotations (..., 3, 3)."""
    half = np.asarray(size, dtype=np.float64) / 2.0
    return _SIGNS * half[..., None, :] @ np.swapaxes(rot, -1, -2) + np.asarray(center, dtype=np.float64)[..., None, :]


def box_corners(box: OrientedBox3, order: str = DEFAULT_ROTATION_ORDER) -> np.ndarray:
    """The 8 corners, shape (8, 3), sign pattern (---, --+, -+-, ... +++)."""
    return _corners(box.size, box.rotation(order), box.center)


def box_face_polygons(box: OrientedBox3, order: str = DEFAULT_ROTATION_ORDER) -> list[np.ndarray]:
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


def _geometry_pass(boxes: Sequence[OrientedBox3], order: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rotations, corners and world AABBs of ``boxes`` in one array pass; each box keeps its rotation and
    AABB per order for the clipper.  Returns the attitudes and AABB low and high corners, each (n, 3)."""
    attitude = np.array([(box.yaw, box.pitch, box.roll) for box in boxes])
    rot = rotation_matrix(*attitude.T, order=order)
    with np.errstate(over="ignore"):  # a corner past the float range is inf, and rejects like one
        corners = _corners([box.size for box in boxes], rot, [box.center for box in boxes])
    lo, hi = corners.min(axis=1), corners.max(axis=1)
    for box, r, low, high in zip(boxes, rot, lo.tolist(), hi.tolist()):
        box.__dict__.setdefault("_geometry", {})[order] = (r, low, high)
    return attitude, lo, hi


def _geometry(box: OrientedBox3, order: str) -> tuple:
    """Rotation and AABB low and high corner of ``box``, kept on the box outside its fields."""
    if order not in box.__dict__.get("_geometry", ()):
        _geometry_pass([box], order)
    return box.__dict__["_geometry"][order]


def _screen_pairs(a: Mapping[int, OrientedBox3], b: Mapping[int, OrientedBox3], order: str) -> set | None:
    """The key pairs (i, j) of boxes ``a[i]`` and ``b[j]`` that may overlap, or None when all boxes share one
    attitude.  Kept are pairs of equal attitude, and pairs whose world AABBs meet on every axis, the clipper's
    own reject on the same floats, from one (a, b) block of one geometry pass."""
    if len({(box.yaw, box.pitch, box.roll) for box in (*a.values(), *b.values())}) <= 1:
        return None
    attitude, lo, hi = _geometry_pass([*a.values(), *b.values()], order)
    n, keys_a, keys_b = len(a), list(a), list(b)
    meet = ((hi[:n, None] > lo[n:]) & (hi[n:] > lo[:n, None])).all(axis=2)
    meet |= (attitude[:n, None] == attitude[n:]).all(axis=2)
    return {(keys_a[i], keys_b[j]) for i, j in zip(*meet.nonzero())}


def _clip(verts: list, faces: list[list[int]], k: int, sign: float, bound: float, eps: float) -> list[list[int]]:
    """Clip the closed mesh ``faces``, index cycles into ``verts``, against ``sign * x[k] <= bound``.

    A cut edge's crossing is made once, from its inside end, and appended to
    ``verts``.  Each cut face maps the crossing where it re-enters to the one
    where it left: a permutation, whose cycles of three or more are the caps.
    """
    dist = [sign * v[k] - bound for v in verts]
    outside = {i for i, d in enumerate(dist) if not d <= eps}
    kept, made, cap = [], {}, {}
    for face in faces:
        if outside.isdisjoint(face):
            kept.append(face)
            continue
        if outside.issuperset(face):
            continue
        out, left, first = [], None, None
        for i, j in zip(face, face[1:] + face[:1]):
            inside_i = i not in outside
            if inside_i:
                out.append(i)
            if inside_i == (j not in outside):  # both ends on one side: no crossing
                continue
            p, q = edge = (i, j) if inside_i else (j, i)
            c = made.get(edge)
            if c is None:
                t = min(max(dist[p] / (dist[p] - dist[q]), 0.0), 1.0)
                (x, y, z), (u, v, w) = verts[p], verts[q]
                c = made[edge] = len(verts)
                verts.append((x + t * (u - x), y + t * (v - y), z + t * (w - z)))
            out.append(c)
            if inside_i:
                left = c
            elif left is None:  # the walk began outside: its first re-entry pairs with its last exit
                first = c
            else:
                cap[c] = left
        if first is not None:
            cap[first] = left
        kept.append(out)
    while cap:
        cycle = list(cap.popitem())
        while (nxt := cap.pop(cycle[-1])) != cycle[0]:
            cycle.append(nxt)
        if len(cycle) >= 3:
            kept.append(cycle)
    return kept


def intersection_volume(a: OrientedBox3, b: OrientedBox3, order: str = DEFAULT_ROTATION_ORDER) -> float:
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


def clipped_intersection_volume(a: OrientedBox3, b: OrientedBox3, order: str = DEFAULT_ROTATION_ORDER) -> float:
    """Intersection volume via the full half-space clipping pipeline.

    :func:`intersection_volume` dispatches here whenever the two attitudes
    differ; it stays callable directly so tests can pit the clipper against
    closed forms on inputs the fast path would otherwise intercept.
    """
    rot_a, lo_a, hi_a = _geometry(a, order)
    rot_b, lo_b, hi_b = _geometry(b, order)
    if any(h <= lo for h, lo in zip(hi_a, lo_b)) or any(h <= lo for h, lo in zip(hi_b, lo_a)):
        return 0.0
    exp = math.frexp(max(*a.size, *b.size))[1]
    offset = rot_a.T @ [math.ldexp(cb, -exp) - math.ldexp(ca, -exp) for ca, cb in zip(a.center, b.center)]
    corners = (_SIGNS * np.ldexp(b.size, -exp - 1)) @ (rot_a.T @ rot_b).T + offset
    verts, faces = corners.tolist(), _FACES
    for k in range(3):
        bound = math.ldexp(a.size[k], -exp - 1)
        for sign in (1.0, -1.0):
            faces = _clip(verts, faces, k, sign, bound, 1e-9 * bound)
            if not faces:
                return 0.0
    return math.ldexp(max(polytope_volume([[verts[i] for i in face] for face in faces]), 0.0), 3 * exp)


def _iou(vi: float, va: float, vb: float) -> float:
    """IoU of boxes of volumes va and vb sharing vi, clamped to min(va, vb); when va + vb
    overflows, all three are halved first, which is exact."""
    vi = min(vi, va, vb)
    if va + vb == math.inf:
        vi, va, vb = vi / 2, va / 2, vb / 2
    return vi / (va + vb - vi)


def iou3d(a: OrientedBox3, b: OrientedBox3, order: str = DEFAULT_ROTATION_ORDER) -> float:
    """Intersection-over-union of two oriented cuboids, in [0, 1]."""
    return _iou(intersection_volume(a, b, order), a.volume(), b.volume())


def aabb_iou(a: OrientedBox3, b: OrientedBox3) -> float:
    """Closed-form IoU treating both boxes as axis-aligned (attitude ignored).

    Provided for sensitivity checks against the oriented computation; for
    boxes with zero angles it is the exact answer, bit for bit :func:`iou3d`'s.
    """
    return _iou(_aligned_overlap(a, b), a.volume(), b.volume())
