"""Camera-aware geometric augmentation: joint raster + intrinsics transforms.

The whole point of this module is consistency: each sample's raster,
intrinsics and depth map all move through the SAME :class:`PixelTransform`,
so every line of sight is preserved (verifiable with
``transforms.ray_preservation_check``).  3D box annotations are left
untouched -- a camera-space resize does not move world geometry, and that
asymmetry is exactly what makes the augmentation teach camera awareness.

Resampling is separable: a transform is an axis-aligned scale plus a shift,
so each axis gets its own taps, computed once per transform.  Images are
resampled bilinearly, band by band of output rows into one array kept without
a copy; depth maps use nearest-neighbor sampling (one floor index per axis)
because interpolating across a depth discontinuity fabricates 3D points.
Batch runs seed each sample independently from (policy.seed, sample index),
so results do not depend on ordering or worker count.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .camera import Intrinsics
from .depthmap import DepthMap
from .errors import BelowMinimum, CamGeomError, CropOutOfBounds, ExtentMismatch, _count, _factors, _number
from .evaluation import Detection
from .rays import _frozen_copy
from .transforms import PixelTransform, apply_transform

__all__ = [
    "RasterImage",
    "AugmentationPolicy",
    "Sample",
    "Provenance",
    "AugmentedSample",
    "BatchReport",
    "resample",
    "resample_depth",
    "draw_transform",
    "augment",
    "batch_augment",
]


@dataclass(frozen=True, eq=False)
class RasterImage:
    """H x W x C raster, uint8 or float32, row-major."""

    data: np.ndarray

    def __post_init__(self, adopt: bool = False):
        data = np.asarray(self.data)
        if data.ndim == 2:
            data = data[:, :, None]
        if data.ndim != 3 or data.shape[2] not in (1, 3):
            raise ValueError(f"raster must be H x W x (1|3), got shape {data.shape}")
        if data.dtype not in (np.uint8, np.float32):
            raise ValueError(f"raster dtype must be uint8 or float32, got {data.dtype}")
        object.__setattr__(self, "data", data if adopt else _frozen_copy(data))
        self.data.setflags(write=False)

    @classmethod
    def _adopt(cls, data: np.ndarray) -> RasterImage:
        """A raster keeping ``data``, a new C-order array no one else holds, frozen in place, not copied."""
        image = object.__new__(cls)
        object.__setattr__(image, "data", data)
        image.__post_init__(adopt=True)
        return image

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class AugmentationPolicy:
    """Ranges for the synthetic intrinsic perturbations.

    ``scale_range`` brackets the resize factor draw; ``shift_fraction`` is
    the maximum principal-point shift as a fraction of the (post-scale)
    extent.  ``mode`` selects whether shifted content is padded with zeros
    on the original scaled canvas or re-cropped to a window that stays
    inside the source.
    """

    scale_range: tuple[float, float] = (0.7, 1.4)
    shift_fraction: float = 0.15
    mode: str = "pad"
    seed: int = 0

    def __post_init__(self):
        lo, hi = _factors("scale_range", self.scale_range, ("scale_range lo", "scale_range hi"), CamGeomError)
        if lo > hi:
            raise CamGeomError(f"scale_range must satisfy 0 < lo <= hi, got {self.scale_range}")
        object.__setattr__(self, "scale_range", (lo, hi))
        frac = _number("shift_fraction", self.shift_fraction, CamGeomError)
        if not (0.0 <= frac <= 0.5):
            raise CamGeomError(f"shift_fraction must be in [0, 0.5], got {frac}")
        object.__setattr__(self, "shift_fraction", frac)
        if self.mode not in ("pad", "crop"):
            raise CamGeomError(f"mode must be 'pad' or 'crop', got {self.mode!r}")
        if not isinstance(self.seed, int) or _count("seed", self.seed, CamGeomError, minimum=0) >= 2**64:
            raise CamGeomError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


@dataclass(frozen=True, eq=False)
class Sample:
    """Augmentation input: raster + intrinsics, optional depth and 3D boxes."""

    id: str
    image: RasterImage
    intrinsics: Intrinsics
    depth: DepthMap | None = None
    boxes: tuple[Detection, ...] | None = None


@dataclass(frozen=True)
class Provenance:
    source_id: str
    seed: int
    index: int = 0


@dataclass(frozen=True, eq=False)
class AugmentedSample:
    """Consistently transformed sample; re-applying ``transform`` to the
    source intrinsics reproduces ``intrinsics`` bit-exactly."""

    image: RasterImage
    intrinsics: Intrinsics
    transform: PixelTransform
    provenance: Provenance
    depth: DepthMap | None = None
    boxes: tuple[Detection, ...] | None = None


_BAND_ROWS = 16  # output rows per band of resample: 16 float64 rows of a 640 x 3 frame are 240 KiB


def _bilinear_taps(coords: np.ndarray, size: int, mode: str):
    """Per-axis bilinear taps ``((i0, w0), (i1, w1))`` for source pixel-center coordinates.

    In pad mode a tap outside the source weighs 0; in both modes its index
    is then clamped to the edge, so every index is safe to gather.
    """
    x = coords - 0.5
    i0 = np.floor(x).astype(np.int64)
    f = x - i0
    taps = []
    for index, weight in ((i0, 1 - f), (i0 + 1, f)):
        if mode == "pad":
            weight = np.where((index >= 0) & (index < size), weight, 0.0)
        taps.append((np.clip(index, 0, size - 1), weight))
    return taps


def resample(image: RasterImage, t: PixelTransform, mode: str = "pad") -> RasterImage:
    """Bilinear resample under the half-integer pixel-center convention.

    It fills one output array in the source dtype ``_BAND_ROWS`` rows at a
    time, each band through its own float64 row and column passes: a call holds
    the output plus one band, and every pixel gets a whole-frame pass's float ops.

    In pad mode, samples falling outside the source contribute the pad
    value 0 and source-covered pixels are never altered.  In crop mode the
    output window must lie inside the scaled source (CropOutOfBounds
    otherwise) and edge samples clamp instead of padding.
    """
    if mode not in ("pad", "crop"):
        raise CamGeomError(f"mode must be 'pad' or 'crop', got {mode!r}")
    if mode == "crop":
        # window [du, du + out_w] x [dv, dv + out_h] in post-scale coordinates
        if (
            t.du < -1e-9
            or t.dv < -1e-9
            or t.du + t.out_width > t.sx * image.width + 1e-9
            or t.dv + t.out_height > t.sy * image.height + 1e-9
        ):
            raise CropOutOfBounds(
                f"crop window ({t.du:.3f}..{t.du + t.out_width:.3f}, "
                f"{t.dv:.3f}..{t.dv + t.out_height:.3f}) exceeds scaled source "
                f"{t.sx * image.width:.3f}x{t.sy * image.height:.3f}"
            )
    u_src, v_src = t.source_coords(np.arange(t.out_width) + 0.5, np.arange(t.out_height) + 0.5)
    (iy0, wy0), (iy1, wy1) = _bilinear_taps(v_src, image.height, mode)
    (ix0, wx0), (ix1, wx1) = _bilinear_taps(u_src, image.width, mode)
    src = image.data  # uint8 or float32 rows times float64 weights promote: no full-frame cast
    result = np.empty((t.out_height, t.out_width, image.channels), dtype=src.dtype)
    for start in range(0, t.out_height, _BAND_ROWS):
        r = slice(start, start + _BAND_ROWS)
        rows = wy0[r, None, None] * src[iy0[r]]
        rows += wy1[r, None, None] * src[iy1[r]]
        out, right = rows[:, ix0], rows[:, ix1]  # products in place: a band's float64 work stays in cache
        out *= wx0[None, :, None]
        right *= wx1[None, :, None]
        out += right
        if src.dtype == np.uint8:
            np.clip(np.rint(out, out=out), 0, 255, out=out)
        result[r] = out
    return RasterImage._adopt(result)


def resample_depth(depth: DepthMap, t: PixelTransform) -> DepthMap:
    """Nearest-neighbor depth resample; out-of-source samples become invalid."""
    u_src, v_src = t.source_coords(np.arange(t.out_width) + 0.5, np.arange(t.out_height) + 0.5)
    ii = np.floor(v_src).astype(np.int64)
    jj = np.floor(u_src).astype(np.int64)
    inside_i = (ii >= 0) & (ii < depth.height)
    inside_j = (jj >= 0) & (jj < depth.width)
    sel = np.ix_(np.clip(ii, 0, depth.height - 1), np.clip(jj, 0, depth.width - 1))
    valid = inside_i[:, None] & inside_j[None, :] & depth.valid[sel]
    return DepthMap(depth.values[sel], valid)


def draw_transform(k: Intrinsics, policy: AugmentationPolicy, rng: np.random.Generator) -> PixelTransform:
    """Draw one scale + principal-point shift transform from the policy.

    Draw order (scale, then du, then dv) is part of the determinism
    contract.  Shifts are drawn in post-scale pixels.  In crop mode the
    output window is shrunk by the maximum shift on each side so that any
    drawn shift keeps the window inside the scaled source.
    """
    s = float(rng.uniform(*policy.scale_range))
    scaled_w = s * k.width
    scaled_h = s * k.height
    max_du = policy.shift_fraction * scaled_w
    max_dv = policy.shift_fraction * scaled_h
    du = float(rng.uniform(-max_du, max_du)) if max_du > 0 else 0.0
    dv = float(rng.uniform(-max_dv, max_dv)) if max_dv > 0 else 0.0
    if policy.mode == "pad":
        return replace(PixelTransform.scaling(s, k.width, k.height), du=du, dv=dv)
    out_w = max(1, math.floor(scaled_w - 2.0 * max_du))
    out_h = max(1, math.floor(scaled_h - 2.0 * max_dv))
    return PixelTransform(s, s, (scaled_w - out_w) / 2.0 + du, (scaled_h - out_h) / 2.0 + dv, out_w, out_h)


def augment(
    sample: Sample,
    policy: AugmentationPolicy,
    rng: np.random.Generator | int,
    index: int = 0,
) -> AugmentedSample:
    """Transform one sample consistently; deterministic given the rng state."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(np.random.SeedSequence([int(rng), index]))
    k = sample.intrinsics
    for name, grid in (("image", sample.image), ("depth", sample.depth)):
        if grid is not None and (grid.height, grid.width) != (k.height, k.width):
            raise ExtentMismatch(
                f"{sample.id}: {name} extent {grid.width}x{grid.height} != intrinsics extent {k.width}x{k.height}"
            )
    t = draw_transform(sample.intrinsics, policy, rng)
    image = resample(sample.image, t, mode=policy.mode)
    intrinsics = apply_transform(sample.intrinsics, t)
    depth = resample_depth(sample.depth, t) if sample.depth is not None else None
    return AugmentedSample(
        image=image,
        intrinsics=intrinsics,
        transform=t,
        provenance=Provenance(sample.id, policy.seed, index),
        depth=depth,
        boxes=sample.boxes,  # world geometry does not move under a camera-space resize
    )


@dataclass(frozen=True)
class BatchReport:
    """Outcome of a batch run.

    ``elapsed_s`` and ``samples_per_s`` are wall-clock measurements and the
    only fields excluded from the byte-determinism contract.
    """

    n_samples: int
    n_ok: int
    n_failed: int
    failures: tuple[tuple[int, str, str], ...]
    transforms: tuple[dict | None, ...]
    elapsed_s: float
    samples_per_s: float

    def to_dict(self) -> dict:
        return asdict(self)


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise BelowMinimum(f"workers must be >= 1, got {workers}")


def batch_augment(
    samples: Sequence[Sample | None],
    policy: AugmentationPolicy,
    workers: int = 1,
    on_result: Callable[[AugmentedSample], None] | None = None,
) -> tuple[list[AugmentedSample | None], BatchReport]:
    """Augment a batch with per-sample isolation.

    Each sample is seeded from (policy.seed, its index), so outputs are
    identical for any worker count and any submission order.  A failing
    sample yields None in the result list and a failure record; the batch
    continues.  A None entry (an input the caller could not load) yields
    None with no failure record, and every other sample keeps its index.
    A worker count below 1 raises BelowMinimum before any sample runs.

    ``samples[index]`` is read on the pool thread that augments it, so a
    sequence may load each sample there.  With ``on_result``, each result is
    passed to it on that thread and not kept (its slot in the result list is
    None); an exception it raises makes the sample a failure record.  A pool
    thread then holds one sample at a time, from its load until
    ``on_result`` returns.
    """
    _check_workers(workers)
    results: list[AugmentedSample | None] = [None] * len(samples)
    transforms: list[dict | None] = [None] * len(samples)
    failures: list[tuple[int, str, str]] = []

    def run_one(index: int) -> None:
        sample = samples[index]
        if sample is None:
            return
        try:
            result = augment(sample, policy, policy.seed, index=index)
            if on_result is None:
                results[index] = result
            else:
                on_result(result)
        except Exception as exc:  # isolation contract: keep the batch alive
            failures.append((index, sample.id, f"{type(exc).__name__}: {exc}"))
        else:
            transforms[index] = result.transform.to_dict()

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run_one, range(len(samples))))
    elapsed = time.perf_counter() - start

    failures.sort()
    n_ok = sum(t is not None for t in transforms)
    n_samples = n_ok + len(failures)
    report = BatchReport(
        n_samples=n_samples,
        n_ok=n_ok,
        n_failed=len(failures),
        failures=tuple(failures),
        transforms=tuple(transforms),
        elapsed_s=elapsed,
        samples_per_s=n_samples / elapsed if elapsed > 0 else float("inf"),
    )
    return results, report
