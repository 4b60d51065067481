"""The package surface: ``camgeom.__all__`` is its modules' ``__all__``, the CLI reads the library's defaults, and
the source fits in 120 columns."""

import inspect
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import camgeom
from camgeom import cli
from test_cli import PINNED_DEFAULTS

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("camera", "transforms", "rays", "depthmap", "augment", "boxes", "evaluation", "ambiguity")

# the top-level names before the package re-exported its modules' __all__, by home module
EARLIER_NAMES = {
    "camera": ["Intrinsics", "Point3", "Pixel", "Ray", "project", "back_project", "projected_height",
               "projected_width"],
    "transforms": ["PixelTransform", "scale", "apply_transform", "compose", "invert", "ray_preservation_check"],
    "rays": ["TokenGridSpec", "RayGrid", "EmbeddingGrid", "ray_grid", "embed"],
    "depthmap": ["DepthMap", "PointGrid", "unproject", "token_point_grid", "embed_points", "biased_depth_estimate",
                 "aware_depth_estimate"],
    "augment": ["RasterImage", "AugmentationPolicy", "Sample", "AugmentedSample", "resample", "resample_depth",
                "augment", "batch_augment"],
    "boxes": ["OrientedBox3", "box_corners", "iou3d", "aabb_iou"],
    "evaluation": ["Detection", "EvalReport", "parse_detections", "match_and_score"],
    "ambiguity": ["EquivalenceWitness", "make_witness", "SizePrior", "SceneObject", "SyntheticScene",
                  "generate_scenes", "run_bias_experiment", "run_mixed_pool_experiment"],
}

# CLI config path -> (home module, declaration), each read from the library, not restated
LIBRARY_DEFAULTS = {
    ("embed", "dim"): ("rays", "DEFAULT_DIM"),
    ("embed", "base_period"): ("rays", "DEFAULT_BASE_PERIOD"),
    ("embed", "focal_reference"): ("rays", "DEFAULT_FOCAL_REFERENCE"),
    ("geo", "dim"): ("depthmap", "DEFAULT_GEO_DIM"),
    ("geo", "base_period"): ("depthmap", "DEFAULT_GEO_PERIOD"),
    ("eval", "iou"): ("evaluation", "DEFAULT_IOU_THRESHOLD"),
    ("eval", "rotation_order"): ("boxes", "DEFAULT_ROTATION_ORDER"),
    ("ambiguity", "objects_per_scene"): ("ambiguity", "DEFAULT_OBJECTS_PER_SCENE"),
    ("ambiguity", "f_mode"): ("ambiguity", "DEFAULT_F_MODE"),
}

# every signature that takes one of those defaults, by module, function and parameter
SIGNATURE_DEFAULTS = {
    ("rays", "DEFAULT_DIM"): [("rays", "embed", "dim")],
    ("rays", "DEFAULT_BASE_PERIOD"): [("rays", "embed", "base_period")],
    ("rays", "DEFAULT_FOCAL_REFERENCE"): [("rays", "embed", "focal_reference")],
    ("depthmap", "DEFAULT_GEO_DIM"): [("depthmap", "embed_points", "dim")],
    ("depthmap", "DEFAULT_GEO_PERIOD"): [("depthmap", "embed_points", "base_period")],
    ("evaluation", "DEFAULT_IOU_THRESHOLD"): [("evaluation", "match_and_score", "threshold")],
    ("boxes", "DEFAULT_ROTATION_ORDER"): [
        ("boxes", name, "order") for name in ("rotation_matrix", "box_corners", "box_face_polygons",
                                              "intersection_volume", "clipped_intersection_volume", "iou3d")
    ] + [("evaluation", "match_and_score", "rotation_order")],
    ("ambiguity", "DEFAULT_OBJECTS_PER_SCENE"): [("ambiguity", "generate_scenes", "objects_per_scene")],
    ("ambiguity", "DEFAULT_F_MODE"): [("ambiguity", "fit_canonical_focal", "mode"),
                                      ("ambiguity", "run_bias_experiment", "f_mode"),
                                      ("ambiguity", "run_mixed_pool_experiment", "f_mode")],
}


def _home(name: str):
    return sys.modules[f"camgeom.{name}"]  # camgeom.augment is the function, so modules come from sys.modules


def test_all_is_the_modules_all_in_order():
    expected = ["errors", "__version__"] + [name for module in MODULES for name in _home(module).__all__]
    assert camgeom.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_every_earlier_name_is_its_home_modules_object():
    assert sum(map(len, EARLIER_NAMES.values())) == 50
    assert camgeom.errors is import_module("camgeom.errors") and camgeom.__version__ == "0.1.0"
    for module, names in EARLIER_NAMES.items():
        for name in names:
            assert name in camgeom.__all__ and getattr(camgeom, name) is getattr(_home(module), name), name


def test_star_import_binds_every_entry():
    namespace = {}
    exec("from camgeom import *", namespace)
    for name in camgeom.__all__:
        assert namespace[name] is getattr(camgeom, name), name


def test_augment_is_the_function_after_its_module_and_the_cli_are_imported():
    script = ("import types, camgeom; first = camgeom.augment; import camgeom.augment, camgeom.cli; "
              "assert isinstance(first, types.FunctionType) and camgeom.augment is first, camgeom.augment")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    import camgeom.augment  # noqa: F401
    assert camgeom.augment is _home("augment").augment


def test_cli_defaults_read_the_library_declarations():
    for (section, key), (module, name) in LIBRARY_DEFAULTS.items():
        assert cli.DEFAULTS[section][key] is getattr(_home(module), name), (section, key)
    fields = {f.name: f.default for f in _home("augment").AugmentationPolicy.__dataclass_fields__.values()}
    assert cli.DEFAULTS["augment"]["scale_min"] is fields["scale_range"][0]
    assert cli.DEFAULTS["augment"]["scale_max"] is fields["scale_range"][1]
    assert cli.DEFAULTS["augment"]["shift_fraction"] is fields["shift_fraction"]
    assert cli.DEFAULTS["augment"]["mode"] is fields["mode"]
    assert json.dumps(cli.DEFAULTS) == json.dumps(PINNED_DEFAULTS)


def test_every_signature_reads_the_named_default():
    for (module, name), sites in SIGNATURE_DEFAULTS.items():
        declared = getattr(_home(module), name)
        for home, function, parameter in sites:
            default = inspect.signature(getattr(_home(home), function)).parameters[parameter].default
            assert default is declared, (home, function, parameter)
    rotation = inspect.signature(camgeom.OrientedBox3.rotation).parameters["order"]
    assert rotation.default is camgeom.DEFAULT_ROTATION_ORDER


def test_source_lines_fit_in_120_columns():
    long = [f"{path.relative_to(ROOT)}:{number}: {len(line)} columns"
            for path in sorted((ROOT / "src" / "camgeom").glob("*.py"))
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1) if len(line) > 120]
    assert not long, "\n".join(long)
