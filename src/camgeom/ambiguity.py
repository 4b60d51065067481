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
from .errors import BelowMinimum, CamGeomError, NonPositiveFactor
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


def _check_positive(name: str, value: float) -> float:
    value = float(value)
    if value <= 0 or not math.isfinite(value):
        raise NonPositiveFactor(f"{name} must be > 0, got {value}")
    return value


def make_witness(
    base: tuple[float, float, float],
    kind: str,
    factor: float | tuple[float, float] = 1.0,
) -> EquivalenceWitness:
    """Construct an indistinguishable variant of (f, H, Z).

    kind "focal_depth" maps to (lam*f, H, lam*Z), "size_depth" to
    (f, lam*H, lam*Z), and "coupled" takes (alpha, beta) giving
    (alpha*f, beta*H, alpha*beta*Z).  The equal projected heights are
    verified at construction (1e-9 relative).
    """
    f, height, depth = (_check_positive(n, v) for n, v in zip(("f", "H", "Z"), base))
    if kind == "focal_depth":
        lam = _check_positive("lambda", factor)
        variant = (lam * f, height, lam * depth)
    elif kind == "size_depth":
        lam = _check_positive("lambda", factor)
        variant = (f, lam * height, lam * depth)
    elif kind == "coupled":
        alpha, beta = factor  # type: ignore[misc]
        alpha = _check_positive("alpha", alpha)
        beta = _check_positive("beta", beta)
        variant = (alpha * f, beta * height, alpha * beta * depth)
    else:
        raise ValueError(f"kind must be focal_depth, size_depth or coupled, got {kind!r}")
    h_base = f * height / depth
    h_variant = variant[0] * variant[1] / variant[2]
    if abs(h_variant - h_base) > 1e-9 * abs(h_base):
        raise AssertionError(
            f"witness violated: {h_base} != {h_variant} for base={base}, kind={kind}, factor={factor}"
        )
    return EquivalenceWitness((f, height, depth), variant, kind, h_base)


@dataclass(frozen=True)
class SizePrior:
    """Class height prior: mean and lognormal spread (0 = exact)."""

    mean: float
    spread: float = 0.0

    def __post_init__(self):
        _check_positive("size prior mean", self.mean)
        if not (math.isfinite(self.spread) and self.spread >= 0):
            raise CamGeomError(f"size prior spread must be finite and >= 0, got {self.spread}")


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
    mean, spread = value
    return SizePrior(float(mean), float(spread))


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
    sits at the true depth along that ray with a square footprint.
    """
    if n < 1:
        raise BelowMinimum(f"need n >= 1 scenes, got {n}")
    if objects_per_scene < 1:
        raise BelowMinimum(f"need objects_per_scene >= 1, got {objects_per_scene}")
    if seed < 0:
        raise BelowMinimum(f"seed must be >= 0, got {seed}")
    if not camera_pool:
        raise BelowMinimum("camera_pool must be non-empty")
    priors = {label: _as_prior(p) for label, p in (size_priors or DEFAULT_SIZE_PRIORS).items()}
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
            height = prior.mean if prior.spread == 0 else prior.mean * math.exp(
                prior.spread * float(rng.standard_normal())
            )
            width = height * float(rng.uniform(0.4, 1.2))
            depth = float(rng.uniform(*depth_range))
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
    """The focal a camera-agnostic estimator absorbs from its training pool."""
    focals = [scene.camera.fy for scene in scenes]
    if mode == "mean":
        return statistics.fmean(focals)
    if mode == "median":
        return statistics.median(focals)
    raise CamGeomError(f"mode must be 'mean' or 'median', got {mode!r}")


def _predict(
    obj: SceneObject,
    k_resized: Intrinsics,
    estimator: str,
    f_assumed: float,
) -> tuple[float, Detection]:
    """Depth estimate plus the 3D detection implied by it along the known ray."""
    h_obs = projected_height(obj.height, obj.depth, k_resized)
    w_obs = projected_width(obj.width, obj.depth, k_resized)
    if estimator == "agnostic":
        z_hat = biased_depth_estimate(h_obs, obj.height_prior, f_assumed)
        f_y, f_x = f_assumed, f_assumed
    elif estimator == "aware":
        z_hat = aware_depth_estimate(h_obs, obj.height_prior, k_resized)
        f_y, f_x = k_resized.fy, k_resized.fx
    else:
        raise ValueError(f"estimator must be 'agnostic' or 'aware', got {estimator!r}")
    # box dimensions consistent with the estimator's internal world: size
    # follows from observed extent and its own depth/focal beliefs
    h_hat = h_obs * z_hat / f_y
    w_hat = w_obs * z_hat / f_x
    box = OrientedBox3((obj.ray_x * z_hat, obj.ray_y * z_hat, z_hat), (w_hat, h_hat, w_hat), 0.0, 0.0, 0.0)
    return z_hat, Detection(obj.label, box)


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
    """
    if not scenes:
        raise ValueError("scenes must be non-empty")
    f_assumed = fit_canonical_focal(scenes, mode=f_mode)
    rows = []
    for s in resize_factors:
        ratios = []
        errors = []
        matched = n_pred = n_truth = 0
        for scene in scenes:
            k_resized = scale(scene.camera, s)
            preds = []
            truths = []
            for obj in scene.objects:
                z_hat, detection = _predict(obj, k_resized, estimator, f_assumed)
                ratios.append(z_hat / obj.depth)
                errors.append(abs(z_hat - obj.depth) / obj.depth)
                preds.append(detection)
                truths.append(Detection(obj.label, obj.box))
            report = match_and_score(preds, truths, threshold=iou_threshold)
            matched += report.micro.matched
            n_pred += report.micro.n_pred
            n_truth += report.micro.n_truth
        rows.append(
            BiasRow(
                s=float(s),
                estimator=estimator,
                ratio_mean=statistics.fmean(ratios),
                ratio_std=statistics.pstdev(ratios),
                depth_error_mean=statistics.fmean(errors),
                f1=_score(matched, n_pred, n_truth).f1,
            )
        )
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
    """
    if not scenes:
        raise ValueError("scenes must be non-empty")
    clusters = sorted({scene.camera_index for scene in scenes})
    f_assumed = fit_canonical_focal(scenes, mode=f_mode)
    rows = []
    for estimator in estimators:
        for cluster in clusters:
            members = [s for s in scenes if s.camera_index == cluster]
            cluster_focal = members[0].camera.fy
            ratios = []
            for scene in members:
                for obj in scene.objects:
                    z_hat, _ = _predict(obj, scene.camera, estimator, f_assumed)
                    ratios.append(z_hat / obj.depth)
            expected = f_assumed / cluster_focal if estimator == "agnostic" else 1.0
            rows.append(
                ClusterRow(
                    cluster_focal=cluster_focal,
                    estimator=estimator,
                    ratio_mean=statistics.fmean(ratios),
                    ratio_std=statistics.pstdev(ratios),
                    expected_ratio=expected,
                    n_objects=len(ratios),
                )
            )
    return f_assumed, rows
