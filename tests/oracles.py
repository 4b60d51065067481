"""Independent oracles shared by the unit and acceptance suites.

These deliberately avoid the library's clipping/volume code paths: box
membership is a direct frame-change test and volumes come from uniform
sampling, so they can arbitrate the analytic IoU.  The per-pixel resampling
oracles loop over output pixels and read only a transform's fields, so they
can arbitrate the vectorized resamplers; the whole-frame one pins the banded
resampler to the formula it replaced.
"""

import math

import numpy as np

from camgeom import OrientedBox3, box_corners


def random_box(rng, center_span=2.0, size_range=(0.3, 2.5)) -> OrientedBox3:
    return OrientedBox3(
        tuple(rng.uniform(-center_span, center_span, size=3)),
        tuple(rng.uniform(*size_range, size=3)),
        rng.uniform(-math.pi, math.pi),
        rng.uniform(-math.pi / 2, math.pi / 2),
        rng.uniform(-math.pi, math.pi),
    )


def points_in_box(points: np.ndarray, box: OrientedBox3) -> np.ndarray:
    local = (points - np.asarray(box.center)) @ box.rotation()
    return np.all(np.abs(local) <= np.asarray(box.size) / 2.0, axis=1)


def monte_carlo_iou(a: OrientedBox3, b: OrientedBox3, n: int, rng) -> float:
    """IoU estimated from uniform samples over the union's bounding box.

    Sampling and membership run in float32: the classification band that
    introduces (~1e-7 of the box extent) is orders of magnitude below the
    Monte-Carlo noise the caller's tolerance must absorb anyway.
    """
    corners = np.vstack([box_corners(a), box_corners(b)]).astype(np.float32)
    lo = corners.min(axis=0)
    hi = corners.max(axis=0)
    samples = rng.random((n, 3), dtype=np.float32) * (hi - lo) + lo

    def member(box: OrientedBox3) -> np.ndarray:
        rot = box.rotation().astype(np.float32)
        half = np.asarray(box.size, dtype=np.float32) / 2
        rel = samples - np.asarray(box.center, dtype=np.float32)
        ok = np.abs(rel @ rot[:, 0]) <= half[0]
        ok &= np.abs(rel @ rot[:, 1]) <= half[1]
        ok &= np.abs(rel @ rot[:, 2]) <= half[2]
        return ok

    in_a = member(a)
    in_b = member(b)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def _taps(out_index: int, scale: float, shift: float) -> tuple[int, float]:
    """First bilinear tap index and its partner's weight for one output pixel center."""
    x = (out_index + 0.5 + shift) / scale - 0.5
    i0 = math.floor(x)
    return i0, x - i0


def bilinear_oracle(data: np.ndarray, t, mode: str) -> np.ndarray:
    """Per-pixel 4-tap bilinear resample of an H x W x C array, in float64.

    Reads only the transform's fields.  A tap outside the source adds 0 in
    pad mode and clamps to the nearest edge pixel in crop mode.
    """
    height, width, channels = data.shape
    out = np.zeros((t.out_height, t.out_width, channels))
    for r in range(t.out_height):
        i0, fy = _taps(r, t.sy, t.dv)
        for q in range(t.out_width):
            j0, fx = _taps(q, t.sx, t.du)
            for i, wy in ((i0, 1 - fy), (i0 + 1, fy)):
                for j, wx in ((j0, 1 - fx), (j0 + 1, fx)):
                    if not (0 <= i < height and 0 <= j < width):
                        if mode == "pad":
                            continue
                        i, j = min(max(i, 0), height - 1), min(max(j, 0), width - 1)
                    out[r, q] += wy * wx * data[i, j].astype(np.float64)
    return out


def whole_frame_resample(data: np.ndarray, t, mode: str) -> np.ndarray:
    """Bilinear resample with each pass over the whole frame in float64, then one cast.

    The vectorized formula the banded resampler replaced: the same taps and
    the same float operations per pixel, so the two must agree byte for byte.
    """
    def taps(out_size, shift, scale, size):
        x = (np.arange(out_size) + 0.5 + shift) / scale - 0.5
        i0 = np.floor(x).astype(np.int64)
        f = x - i0
        out = []
        for index, weight in ((i0, 1 - f), (i0 + 1, f)):
            if mode == "pad":
                weight = np.where((index >= 0) & (index < size), weight, 0.0)
            out.append((np.clip(index, 0, size - 1), weight))
        return out

    (iy0, wy0), (iy1, wy1) = taps(t.out_height, t.dv, t.sy, data.shape[0])
    (ix0, wx0), (ix1, wx1) = taps(t.out_width, t.du, t.sx, data.shape[1])
    rows = wy0[:, None, None] * data[iy0] + wy1[:, None, None] * data[iy1]
    out = rows[:, ix0] * wx0[None, :, None] + rows[:, ix1] * wx1[None, :, None]
    if data.dtype == np.uint8:
        out = np.clip(np.rint(out), 0, 255)
    return out.astype(data.dtype)


def nearest_depth_oracle(values: np.ndarray, valid: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel floor-nearest depth resample: (values with NaN holes, mask)."""
    height, width = values.shape
    out = np.full((t.out_height, t.out_width), np.nan)
    out_valid = np.zeros((t.out_height, t.out_width), dtype=bool)
    for r in range(t.out_height):
        i = math.floor((r + 0.5 + t.dv) / t.sy)
        for q in range(t.out_width):
            j = math.floor((q + 0.5 + t.du) / t.sx)
            if 0 <= i < height and 0 <= j < width and valid[i, j]:
                out[r, q] = values[i, j]
                out_valid[r, q] = True
    return out, out_valid
