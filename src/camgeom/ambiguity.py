"""Equivalence-class witnesses and desk-scale depth-bias experiments.

A projected extent fy*H/Z is invariant under (fy, H, Z) -> (a*fy, b*H, a*b*Z),
so a single image cannot separate focal length from depth, nor size from
depth.  :func:`make_witness` constructs and verifies members of these
equivalence classes.

The synthetic experiments reproduce the mechanism behind the failure of
camera-agnostic estimators: objects with known size and depth are rendered
to exact projected extents, images are "resized" by updating intrinsics,
and depth is recovered either with a canonical focal baked in from the
training pool (agnostic) or with the true updated focal (aware).  With
exact size priors the agnostic estimate satisfies Z_pred = Z/s as an
algebraic identity, and a mixed camera pool splits into per-cluster biases
f_assumed / f_cluster.  These experiments reproduce the DIRECTION and LAW
of the degradation, not any trained model's absolute scores.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .boxes import OrientedBox3
from .camera import Intrinsics, projected_height, projected_width
from .depthmap import aware_depth_estimate, biased_depth_estimate
from .errors import BelowMinimum, CamGeomError, NonPositiveDepth, NonPositiveFactor
from .errors import _count, _factors, _number, _positive
from .evaluation import Detection, _score, match_and_score
from .transforms import scale

__all__ = [
    "EquivalenceWitness",
    "make_witness",
    "SizePrior",
    "SceneObject",
    "SyntheticScene",
    "generate_scenes",
    "fit_canonical_focal",
    "BiasRow",
    "run_bias_experiment",
    "ClusterRow",
    "run_mixed_pool_experiment",
    "DEFAULT_SIZE_PRIORS",
    "MECHANISM_CAVEAT",
]

MECHANISM_CAVEAT = (
    "Synthetic desk-scale experiment: reproduces the direction and law of the "
    "resize/mixed-pool depth bias, not any trained model's absolute F1 values."
)

# indoor-ish classes with typical heights in meters
DEFAULT_SIZE_PRIORS: dict[str, tuple[float, float]] = {
    "chair": (0.85, 0.0),
    "table": (0.75, 0.0),
    "door": (2.0, 0.0),
    "monitor": (0.45, 0.0),
    "cabinet": (1.5, 0.0),
}


@dataclass(frozen=True)
class EquivalenceWitness:
    """A pair of (f, H, Z) configurations with identical projected height."""

    base: tuple[float, float, float]
    variant: tuple[float, float, float]
    kind: str
    h_proj: float


def make_witness(
    base: tuple[float, float, float],
    kind: str,
    factor: float | tuple[float, float] = 1.0,
) -> EquivalenceWitness:
    """Construct an indistinguishable variant of (f, H, Z).

    kind "focal_depth" maps to (lam*f, H, lam*Z), "size_depth" to
    (f, lam*H, lam*Z), and "coupled" takes (alpha, beta) giving
    (alpha*f, beta*H, alpha*beta*Z).  Each variant entry and the projected
    height f*H/Z must be a finite, normal float > 0, and the variant's height
    equal to 1e-9 relative; NonPositiveFactor otherwise.
    """
    f, height, depth = _factors("base", base, ("f", "H", "Z"), NonPositiveFactor)
    if kind == "focal_depth":
        lam = _positive("lambda", factor, NonPositiveFactor)
        variant = (lam * f, height, lam * depth)
    elif kind == "size_depth":
        lam = _positive("lambda", factor, NonPositiveFactor)
        variant = (f, lam * height, lam * depth)
    elif kind == "coupled":
        alpha, beta = _factors("factor", factor, ("alpha", "beta"), NonPositiveFactor)
        variant = (alpha * f, beta * height, alpha * beta * depth)
    else:
        raise CamGeomError(f"kind must be focal_depth, size_depth or coupled, got {kind!r}")
    h_base, h_variant = f * height / depth, variant[0] * variant[1] / variant[2]
    for name, value in zip(("variant f", "variant H", "variant Z", "projected height f*H/Z"), (*variant, h_base)):
        if not 2.0**-1022 <= value < math.inf:  # a subnormal has too few bits for the 1e-9 check
            raise NonPositiveFactor(f"{name}: must be a finite, normal float > 0, got {value!r}")
    if not abs(h_variant - h_base) <= 1e-9 * h_base:  # only when a product leaves the float range
        raise NonPositiveFactor(f"witness: f*H/Z is {h_base!r} but {h_variant!r} for the variant {variant}")
    return EquivalenceWitness((f, height, depth), variant, kind, h_base)


@dataclass(frozen=True)
class SizePrior:
    """Class height prior: mean and lognormal spread (0 = exact)."""

    mean: float
    spread: float = 0.0

    def __post_init__(self):
        _positive("size prior mean", self.mean, NonPositiveFactor)
        if _number("size prior spread", self.spread, CamGeomError) < 0:
            raise CamGeomError(f"size prior spread: must be >= 0, got {self.spread!r}")


@dataclass(frozen=True)
class SceneObject:
    """One rendered object: true geometry, prior, ray, exact 2D extents, GT box."""

    label: str
    height: float
    width: float
    depth: float
    height_prior: float
    ray_x: float
    ray_y: float
    h_proj: float
    w_proj: float
    box: OrientedBox3


@dataclass(frozen=True)
class SyntheticScene:
    camera: Intrinsics
    objects: tuple[SceneObject, ...]
    camera_index: int
    scene_id: int


def _as_prior(value) -> SizePrior:
    if isinstance(value, SizePrior):
        return value
    if not isinstance(value, (tuple, list)) or len(value) != 2:
        raise CamGeomError(f"size prior: must be a SizePrior or (mean, spread), got {value!r}")
    return SizePrior(*value)


def generate_scenes(
    n: int,
    camera_pool: Sequence[Intrinsics],
    size_priors: Mapping[str, SizePrior | tuple[float, float]] | None = None,
    seed: int = 0,
    objects_per_scene: int = 5,
    depth_range: tuple[float, float] = (1.5, 8.0),
) -> list[SyntheticScene]:
    """Deterministic synthetic corpus with exact projected annotations.

    Cameras are assigned round-robin from the pool so every pool entry
    (focal cluster) receives the same number of scenes.  Object centers are
    placed on random rays inside the central 60% of the frame; the GT box
    sits at the true depth along that ray with a square footprint.  Depths are
    drawn from ``depth_range``, a (near, far) pair with 0 < near <= far, and
    heights from ``size_priors``, a non-empty mapping (None: the defaults).
    """
    n = _count("n", n, BelowMinimum)
    objects_per_scene = _count("objects_per_scene", objects_per_scene, BelowMinimum)
    seed = _count("seed", seed, BelowMinimum, minimum=0)
    if not camera_pool:
        raise BelowMinimum("camera_pool must be non-empty")
    near, far = _factors("depth_range", depth_range, ("near", "far"), NonPositiveDepth)
    if near > far:
        raise CamGeomError(f"depth_range: near must be <= far, got {depth_range!r}")
    priors = DEFAULT_SIZE_PRIORS if size_priors is None else size_priors
    if not isinstance(priors, Mapping) or not priors:
        raise CamGeomError(f"size_priors: must be a non-empty mapping of label to prior, got {size_priors!r}")
    priors = {label: _as_prior(p) for label, p in priors.items()}
    labels = sorted(priors)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5CE7E]))
    scenes = []
    for scene_id in range(n):
        camera_index = scene_id % len(camera_pool)
        k = camera_pool[camera_index]
        objects = []
        for _ in range(objects_per_scene):
            label = labels[int(rng.integers(len(labels)))]
            prior = priors[label]
            try:  # a wide spread can draw a height past the float range
                height = prior.mean * (math.exp(prior.spread * float(rng.standard_normal())) if prior.spread else 1.0)
            except OverflowError:
                raise CamGeomError(f"size prior {label!r}: spread {prior.spread!r} is too wide for floats") from None
            width = height * float(rng.uniform(0.4, 1.2))
            depth = float(rng.uniform(near, far))
            u = float(rng.uniform(0.2 * k.width, 0.8 * k.width))
            v = float(rng.uniform(0.2 * k.height, 0.8 * k.height))
            ray_x = (u - k.cx) / k.fx
            ray_y = (v - k.cy) / k.fy
            box = OrientedBox3(
                (ray_x * depth, ray_y * depth, depth), (width, height, width), 0.0, 0.0, 0.0
            )
            objects.append(
                SceneObject(
                    label=label,
                    height=height,
                    width=width,
                    depth=depth,
                    height_prior=prior.mean,
                    ray_x=ray_x,
                    ray_y=ray_y,
                    h_proj=projected_height(height, depth, k),
                    w_proj=projected_width(width, depth, k),
                    box=box,
                )
            )
        scenes.append(SyntheticScene(k, tuple(objects), camera_index, scene_id))
    return scenes


def fit_canonical_focal(scenes: Sequence[SyntheticScene], mode: str = "mean") -> float:
    """The focal a camera-agnostic estimator absorbs from its training pool.

    Raises BelowMinimum for an empty scene list and CamGeomError for an unknown ``mode``.
    """
    if not scenes:
        raise BelowMinimum("scenes must be non-empty")
    focals = [scene.camera.fy for scene in scenes]
    if mode == "mean":
        return statistics.fmean(focals)
    if mode == "median":
        return statistics.median(focals)
    raise CamGeomError(f"mode must be 'mean' or 'median', got {mode!r}")


def _estimators(names: Sequence[str]) -> tuple[str, ...]:
    """``names`` as a tuple, each 'agnostic' or 'aware'; CamGeomError otherwise."""
    names = tuple(names)
    for name in names:
        if name not in ("agnostic", "aware"):
            raise CamGeomError(f"estimator must be 'agnostic' or 'aware', got {name!r}")
    return names


def _estimate(obj: SceneObject, k: Intrinsics, estimator: str, f_assumed: float) -> tuple[float, float, float, float]:
    """Depth of ``obj`` estimated from its height seen through ``k``, that observed height, and
    the focals (fy, fx) the estimator believes: ``f_assumed`` if agnostic, k's own if aware."""
    h_obs = projected_height(obj.height, obj.depth, k)
    if estimator == "agnostic":
        return biased_depth_estimate(h_obs, obj.height_prior, f_assumed), h_obs, f_assumed, f_assumed
    return aware_depth_estimate(h_obs, obj.height_prior, k), h_obs, k.fy, k.fx


@dataclass(frozen=True)
class BiasRow:
    """One (resize factor, estimator) cell of the bias experiment."""

    s: float
    estimator: str
    ratio_mean: float
    ratio_std: float
    depth_error_mean: float
    f1: float


def run_bias_experiment(
    scenes: Sequence[SyntheticScene],
    resize_factors: Sequence[float],
    estimator: str = "agnostic",
    f_mode: str = "mean",
    iou_threshold: float = 0.25,
) -> list[BiasRow]:
    """Depth-recovery ratio and detection F1 under image resizing.

    For each factor s the scene annotations are re-rendered through the
    scaled intrinsics.  The agnostic estimator keeps the canonical focal
    fitted from the UNSCALED pool; the aware estimator uses the updated
    intrinsics.  Detection places each depth estimate along the object's
    known ray and scores it against the ground truth at ``iou_threshold``.
    Raises CamGeomError for an unknown ``estimator`` or ``f_mode``, BelowMinimum
    for an empty scene list, NonPositiveScale for a factor that is not a number
    > 0 and BadThreshold for an ``iou_threshold`` outside (0, 1].
    """
    _estimators([estimator])
    f_assumed = fit_canonical_focal(scenes, mode=f_mode)
    truths = [[Detection(obj.label, obj.box) for obj in scene.objects] for scene in scenes]
    cameras = dict.fromkeys(scene.camera for scene in scenes)
    rows = []
    for s in resize_factors:
        resized = {k: scale(k, s) for k in cameras}
        ratios, errors = [], []
        matched = n_pred = n_truth = 0
        for scene, truth in zip(scenes, truths):
            k = resized[scene.camera]
            preds = []
            for obj in scene.objects:
                z_hat, h_obs, f_y, f_x = _estimate(obj, k, estimator, f_assumed)
                # box dimensions consistent with the estimator's internal world: size
                # follows from observed extent and its own depth/focal beliefs
                h_hat = h_obs * z_hat / f_y
                w_hat = projected_width(obj.width, obj.depth, k) * z_hat / f_x
                center = (obj.ray_x * z_hat, obj.ray_y * z_hat, z_hat)
                preds.append(Detection(obj.label, OrientedBox3(center, (w_hat, h_hat, w_hat), 0.0, 0.0, 0.0)))
                ratios.append(z_hat / obj.depth)
                errors.append(abs(z_hat - obj.depth) / obj.depth)
            report = match_and_score(preds, truth, threshold=iou_threshold)
            matched += report.micro.matched
            n_pred += report.micro.n_pred
            n_truth += report.micro.n_truth
        rows.append(BiasRow(s=float(s), estimator=estimator, ratio_mean=statistics.fmean(ratios),
                            ratio_std=statistics.pstdev(ratios), depth_error_mean=statistics.fmean(errors),
                            f1=_score(matched, n_pred, n_truth).f1))
    return rows


@dataclass(frozen=True)
class ClusterRow:
    """Per-focal-cluster recovery ratio from a mixed training pool."""

    cluster_focal: float
    estimator: str
    ratio_mean: float
    ratio_std: float
    expected_ratio: float
    n_objects: int


def run_mixed_pool_experiment(
    scenes: Sequence[SyntheticScene],
    estimators: Sequence[str] = ("agnostic", "aware"),
    f_mode: str = "mean",
) -> tuple[float, list[ClusterRow]]:
    """Per-cluster depth bias when the training pool mixes focal clusters.

    The agnostic estimator fits one canonical focal on the mixture and so
    recovers depth with per-cluster ratio f_assumed / f_cluster; the aware
    estimator is exact for every cluster.  Returns (f_assumed, rows).
    Raises CamGeomError for an unknown estimator or ``f_mode`` and BelowMinimum
    for an empty scene list.
    """
    estimators = _estimators(estimators)
    f_assumed = fit_canonical_focal(scenes, mode=f_mode)
    clusters: dict[int, list[SyntheticScene]] = {}
    for scene in scenes:
        clusters.setdefault(scene.camera_index, []).append(scene)
    rows = []
    for estimator in estimators:
        for cluster in sorted(clusters):
            members = clusters[cluster]
            cluster_focal = members[0].camera.fy
            ratios = [_estimate(obj, scene.camera, estimator, f_assumed)[0] / obj.depth
                      for scene in members for obj in scene.objects]
            expected = f_assumed / cluster_focal if estimator == "agnostic" else 1.0
            rows.append(ClusterRow(cluster_focal=cluster_focal, estimator=estimator,
                                   ratio_mean=statistics.fmean(ratios), ratio_std=statistics.pstdev(ratios),
                                   expected_ratio=expected, n_objects=len(ratios)))
    return f_assumed, rows
