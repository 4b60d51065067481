"""camgeom: camera-aware geometry toolkit.

Pinhole intrinsic algebra, ray-embedding grids, depth unprojection,
camera-consistent augmentation, oriented-3D-IoU detection scoring, and the
focal-depth / size-depth ambiguity experiments.
"""

from . import errors
from .ambiguity import (
    EquivalenceWitness,
    SceneObject,
    SizePrior,
    SyntheticScene,
    generate_scenes,
    make_witness,
    run_bias_experiment,
    run_mixed_pool_experiment,
)
from .augment import (
    AugmentationPolicy,
    AugmentedSample,
    RasterImage,
    Sample,
    augment,
    batch_augment,
    resample,
    resample_depth,
)
from .boxes import OrientedBox3, aabb_iou, box_corners, iou3d
from .camera import (
    Intrinsics,
    Pixel,
    Point3,
    Ray,
    back_project,
    project,
    projected_height,
    projected_width,
)
from .depthmap import (
    DepthMap,
    PointGrid,
    aware_depth_estimate,
    biased_depth_estimate,
    embed_points,
    token_point_grid,
    unproject,
)
from .evaluation import Detection, EvalReport, match_and_score, parse_detections
from .rays import EmbeddingGrid, RayGrid, TokenGridSpec, embed, ray_grid
from .transforms import (
    PixelTransform,
    apply_transform,
    compose,
    invert,
    ray_preservation_check,
    scale,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "__version__",
    # camera
    "Intrinsics",
    "Point3",
    "Pixel",
    "Ray",
    "project",
    "back_project",
    "projected_height",
    "projected_width",
    # transforms
    "PixelTransform",
    "scale",
    "apply_transform",
    "compose",
    "invert",
    "ray_preservation_check",
    # rays
    "TokenGridSpec",
    "RayGrid",
    "EmbeddingGrid",
    "ray_grid",
    "embed",
    # depth
    "DepthMap",
    "PointGrid",
    "unproject",
    "token_point_grid",
    "embed_points",
    "biased_depth_estimate",
    "aware_depth_estimate",
    # augmentation
    "RasterImage",
    "AugmentationPolicy",
    "Sample",
    "AugmentedSample",
    "resample",
    "resample_depth",
    "augment",
    "batch_augment",
    # boxes & evaluation
    "OrientedBox3",
    "box_corners",
    "iou3d",
    "aabb_iou",
    "Detection",
    "EvalReport",
    "parse_detections",
    "match_and_score",
    # ambiguity
    "EquivalenceWitness",
    "make_witness",
    "SizePrior",
    "SceneObject",
    "SyntheticScene",
    "generate_scenes",
    "run_bias_experiment",
    "run_mixed_pool_experiment",
]
