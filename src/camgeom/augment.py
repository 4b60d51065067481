"""Camera-aware geometric augmentation: joint raster + intrinsics transforms.

The whole point of this module is consistency: each sample's raster,
intrinsics and depth map all move through the SAME :class:`PixelTransform`,
so every line of sight is preserved (verifiable with
``transforms.ray_preservation_check``).  3D box annotations are left
untouched -- a camera-space resize does not move world geometry, and that
asymmetry is exactly what makes the augmentation teach camera awareness.

Resampling is separable: a transform is an axis-aligned scale plus a shift,
so each axis gets its own taps, computed once per transform.  Images are
resampled bilinearly on rows flattened to W * C values, with one column tap per
value, band by band of output rows into one array kept without a copy; depth
maps use nearest-neighbor sampling (one floor index per axis, rows gathered
first) because interpolating across a depth discontinuity fabricates 3D points.
Each sample draws from its own stream, seeded by (policy.seed, its index),
so batch results do not depend on ordering or worker count.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .camera import Intrinsics
from .depthmap import DepthMap, _check_extent
from .errors import BadDimension, BelowMinimum, CamGeomError, CropOutOfBounds, InvalidValue, _choice, _count, _factors
from .errors import _number
from .rays import TokenGridSpec, _adopt, _held, _hold, _pixel_index, token_centers
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


def _finite(data: np.ndarray, where: str) -> np.ndarray:
    """``data``, unless float32 with a NaN or inf, which bilinear weights would spread to its neighbours."""
    if data.dtype == np.float32 and not np.isfinite(data).all():
        raise InvalidValue(f"{where}: every float32 value must be finite")
    return data


@dataclass(frozen=True, eq=False)
class RasterImage:
    """H x W x C raster (H, W >= 1), uint8 or float32, row-major; a caller's data is copied, the library's adopted.
    A caller's float32 values must be finite (the CLI checks a CGEM file; a resample of finite values is finite)."""

    data: np.ndarray

    def __post_init__(self, adopt: bool = False):
        data = np.asarray(self.data)
        if data.ndim == 2:
            data = data[:, :, None]
        if data.ndim != 3 or data.shape[2] not in (1, 3) or 0 in data.shape:
            raise BadDimension(f"raster must be H x W x (1|3) with a pixel, got shape {data.shape}")
        if data.dtype not in (np.uint8, np.float32):
            raise BadDimension(f"raster dtype must be uint8 or float32, got {data.dtype}")
        if not adopt:
            _finite(data, "raster")
        _hold(self, data=_held(data, adopt=adopt))

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
        _choice("mode", self.mode, _MODES, CamGeomError)
        if not isinstance(self.seed, int) or _count("seed", self.seed, CamGeomError, minimum=0) >= 2**64:
            raise CamGeomError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


@dataclass(frozen=True, eq=False)
class Sample:
    """Augmentation input: raster + intrinsics, optional depth, and ``boxes``: annotations of any type, untouched."""

    id: str
    image: RasterImage
    intrinsics: Intrinsics
    depth: DepthMap | None = None
    boxes: object = None


@dataclass(frozen=True)
class Provenance:
    """Where a result came from: its sample's id, its policy's seed and its index, which together fix its draw."""

    source_id: str
    seed: int
    index: int = 0


@dataclass(frozen=True, eq=False)
class AugmentedSample:
    """Consistently transformed sample; re-applying ``transform`` to the
    source intrinsics reproduces ``intrinsics`` bit-exactly.  ``boxes`` is the sample's, passed through untouched."""

    image: RasterImage
    intrinsics: Intrinsics
    transform: PixelTransform
    provenance: Provenance
    depth: DepthMap | None = None
    boxes: object = None


_MODES = ("pad", "crop")  # how a resample treats the source's edge: zeros past it, or a window kept inside it
_BAND_ROWS = 16  # output rows per band buffer of resample: 16 flattened float64 rows of a 640 x 3 frame are 240 KiB


def _bilinear_taps(coords: np.ndarray, size: int, mode: str, per: int = 1):
    """Per-axis bilinear taps ``((i0, w0), (i1, w1))`` for source pixel-center coordinates.

    In pad mode a tap outside the source weighs 0; in both modes its index is
    clamped to the edge by :func:`~camgeom.rays._pixel_index`, safe to gather.
    With ``per`` values a pixel, a pixel's tap is one tap per value of the axis flattened to size * per.
    """
    x = np.clip(coords - 0.5, -1.0, size)  # both taps of a farther x are outside too; its weights stay finite
    i0 = np.floor(x)
    f = x - i0
    taps = []
    for floored, weight in ((i0, 1 - f), (i0 + 1, f)):
        index, inside = _pixel_index(floored, size)
        if mode == "pad":
            weight = np.where(inside, weight, 0.0)
        taps.append(((index[:, None] * per + np.arange(per)).ravel(), np.repeat(weight, per)))
    return taps


def resample(image: RasterImage, t: PixelTransform, mode: str = "pad") -> RasterImage:
    """Bilinear resample under the half-integer pixel-center convention.

    It fills one output array in the source dtype ``_BAND_ROWS`` rows at a time,
    each band through float64 row and column passes on rows flattened to W * C
    values, with per-value column taps, in band buffers allocated once per call:
    a call holds the output plus one band, and every pixel gets a whole-frame pass's float ops.

    In pad mode, samples falling outside the source contribute the pad
    value 0 and source-covered pixels are never altered.  In crop mode the
    output window must lie inside the scaled source (CropOutOfBounds
    otherwise) and edge samples clamp instead of padding.
    """
    if _choice("mode", mode, _MODES, CamGeomError) == "crop":
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
    u_src, v_src = t.source_coords(*token_centers(TokenGridSpec(t.out_height, t.out_width, 1)))
    (iy0, wy0), (iy1, wy1) = _bilinear_taps(v_src, image.height, mode)
    (ix0, wx0), (ix1, wx1) = _bilinear_taps(u_src, image.width, mode, image.channels)
    src = image.data.reshape(image.height, -1)  # uint8 or float32 values times float64 weights promote
    result = np.empty((t.out_height, t.out_width * image.channels), dtype=src.dtype)
    band = min(_BAND_ROWS, t.out_height)
    buffers = np.empty((2, band, src.shape[1])), np.empty((2, band, result.shape[1]))
    for start in range(0, t.out_height, band):
        r = slice(start, start + band)
        (rows, lower), (out, right) = (b[:, : len(result[r])] for b in buffers)
        np.multiply(wy0[r, None], src[iy0[r]], out=rows)
        rows += np.multiply(wy1[r, None], src[iy1[r]], out=lower)
        # every index is in range, so "clip" changes none; unlike "raise" it takes no copy before writing out
        np.multiply(np.take(rows, ix0, axis=1, out=out, mode="clip"), wx0, out=out)
        out += np.multiply(np.take(rows, ix1, axis=1, out=right, mode="clip"), wx1, out=right)
        if src.dtype == np.uint8:
            np.rint(out, out=result[r], casting="unsafe")  # non-negative weights summing to 1 keep it in [0, 255]
        else:
            result[r] = out
    return _adopt(RasterImage, result.reshape(t.out_height, t.out_width, image.channels))


def resample_depth(depth: DepthMap, t: PixelTransform) -> DepthMap:
    """Nearest-neighbor depth resample; out-of-source samples become invalid."""
    u_src, v_src = t.source_coords(*token_centers(TokenGridSpec(t.out_height, t.out_width, 1)))
    rows, inside_i = _pixel_index(np.floor(v_src), depth.height)
    cols, inside_j = _pixel_index(np.floor(u_src), depth.width)
    values = np.take(depth.values[rows], cols, axis=1)
    values[~inside_i] = values[:, ~inside_j] = np.nan
    return _adopt(DepthMap, values)


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


def augment(sample: Sample, policy: AugmentationPolicy, index: int = 0) -> AugmentedSample:
    """Transform one sample consistently, drawing only from the stream of (``policy.seed``, ``index``).

    The provenance records both.  ``index`` is an integer >= 0; CamGeomError otherwise.
    """
    index = _count("index", index, CamGeomError, minimum=0)
    _check_extent(sample.image, sample.intrinsics, f"{sample.id}: image")
    if sample.depth is not None:
        _check_extent(sample.depth, sample.intrinsics, f"{sample.id}: depth")
    t = draw_transform(sample.intrinsics, policy, np.random.default_rng(np.random.SeedSequence([policy.seed, index])))
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
    """Outcome of a batch run: a failure record per failed sample and a transform per input (None unless augmented).

    The counts are read from those records.  ``elapsed_s`` and ``samples_per_s`` are wall-clock
    measurements and the only values excluded from the byte-determinism contract.
    """

    failures: tuple[tuple[int, str, str], ...]
    transforms: tuple[dict | None, ...]
    elapsed_s: float

    @property
    def n_ok(self) -> int:
        return sum(t is not None for t in self.transforms)

    @property
    def n_failed(self) -> int:
        return len(self.failures)

    @property
    def n_samples(self) -> int:
        return self.n_ok + self.n_failed

    @property
    def samples_per_s(self) -> float:
        return self.n_samples / self.elapsed_s if self.elapsed_s > 0 else float("inf")

    def to_dict(self) -> dict:
        counts = ("n_samples", "n_ok", "n_failed", "samples_per_s")
        return {**asdict(self), **{key: getattr(self, key) for key in counts}}


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
    A worker count that is not an integer >= 1 raises BelowMinimum before any sample runs.

    ``samples[index]`` is read on the pool thread that augments it, so a
    sequence may load each sample there.  With ``on_result``, each result is
    passed to it on that thread and not kept (its slot in the result list is
    None); an exception it raises makes the sample a failure record.  A pool
    thread then holds one sample at a time, from its load until
    ``on_result`` returns.
    """
    workers = _count("workers", workers, BelowMinimum)
    results: list[AugmentedSample | None] = [None] * len(samples)
    transforms: list[dict | None] = [None] * len(samples)
    failures: list[tuple[int, str, str]] = []

    def run_one(index: int) -> None:
        sample = samples[index]
        if sample is None:
            return
        try:
            result = augment(sample, policy, index)
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
    return results, BatchReport(tuple(sorted(failures)), tuple(transforms), time.perf_counter() - start)
