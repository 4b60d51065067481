"""Command-line entry point: augment | embed | unproject | eval | ambiguity | version.

Settings resolve as defaults <- config file <- flags.  The config file is
taken from --config or the CAMGEOM_CONFIG environment variable; every
command echoes the fully resolved configuration into its output directory
as ``config.resolved.json`` so runs are self-describing.  A flag that
overrides a setting declares the setting's config path as its argparse
``dest`` (``--shift`` -> ``augment.shift_fraction``).  Exit codes:
0 success, 1 fatal I/O error, 2 validation failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from . import __version__
from .ambiguity import (
    DEFAULT_SIZE_PRIORS,
    MECHANISM_CAVEAT,
    SizePrior,
    generate_scenes,
    run_bias_experiment,
    run_mixed_pool_experiment,
)
from .augment import AugmentationPolicy, AugmentedSample, RasterImage, Sample, _check_workers, batch_augment
from .camera import Intrinsics
from .depthmap import token_point_grid, embed_points, unproject
from .errors import CamGeomError
from .evaluation import match_and_score, parse_detections
from .fileio import (
    _open_atomic,
    _read_json,
    _read_text,
    load_intrinsics,
    read_cgem,
    read_depth,
    read_ppm,
    save_intrinsics,
    write_cgem,
    write_depth,
    write_json,
    write_ppm,
    write_sidecar,
)
from .rays import TokenGridSpec, embed, ray_grid

DEFAULTS: dict = {
    "seed": 0,
    "workers": 1,
    "embed": {
        "dim": 256,
        "base_period": 10000.0,
        "focal_reference": 1000.0,
        "patch": 14.0,
        "origin": "center",
    },
    "geo": {"dim": 240, "base_period": 100.0},
    "augment": {"scale_min": 0.7, "scale_max": 1.4, "shift_fraction": 0.15, "mode": "pad"},
    "eval": {"iou": 0.25, "axis_aligned": False, "rotation_order": "zyx"},
    "ambiguity": {
        "n_scenes": 200,
        "objects_per_scene": 5,
        "resize_factors": [0.8, 1.0, 1.2],
        "estimator": "both",
        "prior_spread": 0.0,
        "f_mode": "mean",
        # two-cluster pool: numbers are square-pixel 640x480 cameras
        "camera_pool": [580.0, 1160.0],
    },
}


def _merge(default, value, path: str):
    """``value`` folded into ``default``, rejecting a key the default lacks or a value of another type.

    ``path`` is the file name and the dotted key path so far, which errors name. An int may
    stand for a float; list entries are numbers, or intrinsics objects in the camera pool.
    Only the dicts on ``value``'s key paths are new; the rest is shared with ``default``.
    """
    if isinstance(default, dict) and isinstance(value, dict):
        merged = dict(default)
        for key, item in value.items():
            if key not in default:
                raise CamGeomError(f"{path}{key}: unknown config key")
            merged[key] = _merge(default[key], item, f"{path}{key}.")
        return merged
    if isinstance(default, list) and isinstance(value, list):
        for item in value:
            if not (default is DEFAULTS["ambiguity"]["camera_pool"] and isinstance(item, dict)):
                _merge(default[0], item, path)
    elif not (type(value) is type(default) or (type(default), type(value)) == (float, int)):
        raise CamGeomError(f"{path[:-1]}: expected {type(default).__name__}, got {value!r}")
    return value


def _resolve_config(args: argparse.Namespace) -> dict:
    """Defaults <- config file <- every given flag whose dest is a config path.

    Only the file is checked: argparse has typed the flags, which could fail a check against
    the file's values (a float flag where the file gave an int), so they are set in place.
    """
    path = os.environ.get("CAMGEOM_CONFIG") if args.config is None else args.config
    file_config = _read_json(path) if path else {}
    if not isinstance(file_config, dict):
        raise CamGeomError(f"{path}: config must be a JSON object")
    config = _merge(DEFAULTS, file_config, f"{path}: ")
    for dest, value in vars(args).items():
        keys = dest.split(".")
        if value is not None and keys[0] in DEFAULTS:
            node = config
            for key in keys[:-1]:
                node[key] = dict(node[key])  # a copy: DEFAULTS is never written
                node = node[key]
            node[keys[-1]] = value
    return config


def _echo_config(out_dir: Path, config: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "config.resolved.json", config)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with _open_atomic(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _add_common(parser: argparse.ArgumentParser, workers: bool = False) -> None:
    parser.add_argument("--config", help="JSON config file (default: $CAMGEOM_CONFIG)")
    parser.add_argument("--seed", type=int, help="base RNG seed")
    if workers:
        parser.add_argument("--workers", type=int, help="worker count (outputs do not depend on it)")


def _factor_list(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def _camera_from_pool_entry(entry, where: str) -> Intrinsics:
    if isinstance(entry, (int, float)):
        f = float(entry)
        return Intrinsics(f, f, 320.0, 240.0, 640, 480)
    return Intrinsics.from_mapping(entry, where=where)


# ---------------------------------------------------------------------------
# augment

def _load_raster(path: Path) -> RasterImage:
    if path.suffix == ".ppm":
        return RasterImage._adopt(read_ppm(path))  # each reader returns a new array: the raster keeps it
    if path.suffix == ".cgem":
        return RasterImage._adopt(read_cgem(path))  # already float32
    raise CamGeomError(f"{path}: unsupported image format (use .ppm or .cgem)")


def _load_manifest(path: Path) -> list[dict]:
    entries = []
    for line_no, line in enumerate(_read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
            raise CamGeomError(f"{path}:{line_no}: invalid JSON ({exc})") from None
        if not isinstance(obj, dict) or "image" not in obj or "intrinsics" not in obj or "id" not in obj:
            raise CamGeomError(f"{path}:{line_no}: manifest entries need id, image and intrinsics")
        entries.append(obj)
    return entries


def _check_id(sample_id, seen: set) -> None:
    """Ids name the output files, so each must be one unique file name."""
    if (not isinstance(sample_id, str) or sample_id in ("", ".", "..")
            or any(c in sample_id for c in "/\\\0")):
        raise CamGeomError(f"id {sample_id!r}: must be a file name, without / \\ or NUL, not . or ..")
    if sample_id in seen:
        raise CamGeomError(f"id {sample_id!r}: repeats an earlier manifest entry")
    seen.add(sample_id)


def _check_paths(entry: dict) -> None:
    """image, and depth and boxes unless absent or null, name files relative to the manifest."""
    for field in ("image", "depth", "boxes"):
        value = entry.get(field)
        if not isinstance(value, str) and (value is not None or field == "image"):
            raise CamGeomError(f"{field} {value!r}: must be a path string")


class _ManifestSamples(Sequence):
    """The manifest's samples, each loaded from its files when it is read.

    Every entry's id and paths are checked on construction, in manifest
    order, so a repeated id fails on its later entry.  An entry that fails
    its check or its load reads as None, with its failure recorded by
    index.  Box files are validated and kept as bytes until their sample is
    written.
    """

    def __init__(self, entries: list[dict], root: Path):
        self.entries = entries
        self.root = root
        self.failures: dict[int, tuple[int, str, str]] = {}
        self.box_bytes: dict[str, bytes] = {}
        seen: set[str] = set()
        for index, entry in enumerate(entries):
            try:
                _check_id(entry["id"], seen)
                _check_paths(entry)
            except CamGeomError as exc:
                self._fail(index, exc)

    def _fail(self, index: int, exc: Exception) -> None:
        self.failures[index] = (index, self.entries[index]["id"], f"{type(exc).__name__}: {exc}")

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, index: int) -> Sample | None:
        entry = self.entries[index]
        if index in self.failures:
            return None
        root = self.root
        try:
            image = _load_raster(root / entry["image"])
            raw_k = entry["intrinsics"]
            if isinstance(raw_k, str):
                k = load_intrinsics(root / raw_k)
            else:
                k = Intrinsics.from_mapping(raw_k, where=f"{entry['id']}.intrinsics")
            depth = None
            if entry.get("depth"):
                depth, _ = read_depth(root / entry["depth"])
            if entry.get("boxes"):
                raw = (root / entry["boxes"]).read_bytes()
                parse_detections(raw.decode("utf-8"))  # validate, but pass bytes through
                self.box_bytes[entry["id"]] = raw
            return Sample(entry["id"], image, k, depth=depth)
        except (OSError, CamGeomError, ValueError) as exc:
            self._fail(index, exc)
            return None


def _write_sample(out_dir: Path, box_bytes: dict[str, bytes], result: AugmentedSample) -> None:
    stem = result.provenance.source_id
    boxes = box_bytes.pop(stem, None)
    if result.image.data.dtype == np.uint8:  # _load_raster reads .ppm as uint8, .cgem as float32
        write_ppm(out_dir / f"{stem}.ppm", result.image.data)
    else:
        write_cgem(out_dir / f"{stem}.cgem", result.image.data)
    save_intrinsics(out_dir / f"{stem}.intrinsics.json", result.intrinsics)
    if result.depth is not None:
        write_depth(out_dir / f"{stem}.depth.cgem", result.depth, result.intrinsics)
    if boxes is not None:  # 3D annotations are invariant: bytes pass through
        with _open_atomic(out_dir / f"{stem}.boxes.json") as fh:
            fh.write(boxes)


def cmd_augment(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    workers = int(config["workers"])
    _check_workers(workers)
    out_dir = Path(args.out)
    manifest_path = Path(args.manifest)
    entries = _load_manifest(manifest_path)

    policy = AugmentationPolicy(
        scale_range=(config["augment"]["scale_min"], config["augment"]["scale_max"]),
        shift_fraction=config["augment"]["shift_fraction"],
        mode=config["augment"]["mode"],
        seed=int(config["seed"]),
    )
    _echo_config(out_dir, config)

    # one pool job per entry: load, augment, write, then drop the sample
    samples = _ManifestSamples(entries, manifest_path.parent)
    _, report = batch_augment(samples, policy, workers=workers,
                              on_result=functools.partial(_write_sample, out_dir, samples.box_bytes))

    with _open_atomic(out_dir / "transforms.jsonl", "w") as fh:
        for index, transform in enumerate(report.transforms):
            if transform is not None:
                fh.write(json.dumps({"id": entries[index]["id"], "index": index, "transform": transform},
                                    sort_keys=True) + "\n")

    full_report = report.to_dict()
    full_report["load_failures"] = [list(f) for _, f in sorted(samples.failures.items())]
    write_json(out_dir / "report.json", full_report)
    n_failed = report.n_failed + len(samples.failures)
    print(f"augmented {report.n_ok}/{len(entries)} samples ({n_failed} failed) -> {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# embed / unproject

def cmd_embed(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    if (args.rows is None) != (args.cols is None):
        raise CamGeomError("--rows and --cols must be given together")
    k = load_intrinsics(args.intrinsics)
    if args.depth:
        depth, sidecar_k = read_depth(args.depth)
        k = sidecar_k or k  # the depth's own camera, when its sidecar names one; the grid covers it
    patch = float(config["embed"]["patch"])
    if args.rows is not None:
        grid = TokenGridSpec(args.rows, args.cols, patch)
    else:
        grid = TokenGridSpec.cover(k, patch)
    out_path = Path(args.out)
    _echo_config(out_path.parent, config)

    origin = "center" if args.depth else config["embed"]["origin"]  # token_point_grid pools at patch centers
    if args.depth:
        points = token_point_grid(depth, k, grid)
        emb = embed_points(points, dim=int(config["geo"]["dim"]), base_period=float(config["geo"]["base_period"]))
        kind = {"kind": "geometric_prior_embedding", "pooling": "token-center ray x nearest patch-center depth"}
    else:
        rays = ray_grid(k, grid, origin=origin)
        emb = embed(
            rays,
            k,
            dim=int(config["embed"]["dim"]),
            base_period=float(config["embed"]["base_period"]),
            focal_reference=float(config["embed"]["focal_reference"]),
        )
        kind = {"kind": "camera_ray_embedding"}
    write_cgem(out_path, emb.data)
    write_sidecar(out_path, {
        **kind,
        **emb.meta,
        "channel_layout": list(emb.layout),
        "dims_per_channel": emb.dim // len(emb.layout),
        "intrinsics": k.to_dict(),
        "token_grid": {"rows": grid.rows, "cols": grid.cols, "patch": grid.patch, "origin": origin},
    })
    print(f"wrote {emb.data.shape[0]}x{emb.data.shape[1]}x{emb.dim} embedding -> {out_path}")
    return 0


def cmd_unproject(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    depth, sidecar_k = read_depth(args.depth)
    if args.intrinsics:
        k = load_intrinsics(args.intrinsics)
    elif sidecar_k is not None:
        k = sidecar_k
    else:
        raise CamGeomError(f"{args.depth}: no intrinsics sidecar; pass --intrinsics")
    points, valid = unproject(depth, k)
    out_path = Path(args.out)
    _echo_config(out_path.parent, config)
    write_cgem(out_path, points)
    write_sidecar(
        out_path,
        {
            "kind": "point_cloud",
            "channel_layout": ["x", "y", "z"],
            "invalid": "nan",
            "units": "meters",
            "frame": "camera",
            "intrinsics": k.to_dict(),
            "n_valid": int(valid.sum()),
        },
    )
    print(f"unprojected {int(valid.sum())} valid pixels -> {out_path}")
    return 0


# ---------------------------------------------------------------------------
# eval

def cmd_eval(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    preds = parse_detections(_read_text(args.preds))
    truths = parse_detections(_read_text(args.truths))
    classes = None
    if args.classes:
        classes = [line.strip() for line in _read_text(args.classes).splitlines() if line.strip()]
    report = match_and_score(
        preds,
        truths,
        threshold=float(config["eval"]["iou"]),
        classes=classes,
        axis_aligned=bool(config["eval"]["axis_aligned"]),
        rotation_order=config["eval"]["rotation_order"],
    )
    out_dir = Path(args.out)
    _echo_config(out_dir, config)
    write_json(out_dir / "report.json", report.to_dict())
    _write_csv(out_dir / "per_class.csv", ["label", "precision", "recall", "f1", "matched", "n_pred", "n_truth"],
               ([label, f"{score.precision:.4f}", f"{score.recall:.4f}", f"{score.f1:.4f}",
                 score.matched, score.n_pred, score.n_truth]
                for label, score in [*sorted(report.per_class.items()), ("__micro__", report.micro)]))
    print(
        f"P={report.micro.precision:.1f} R={report.micro.recall:.1f} F1={report.micro.f1:.1f} "
        f"@ IoU {report.threshold} ({report.micro.matched} matches)"
    )
    return 0


# ---------------------------------------------------------------------------
# ambiguity

def cmd_ambiguity(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    amb = config["ambiguity"]
    if amb["estimator"] not in ("agnostic", "aware", "both"):
        raise CamGeomError(f"ambiguity.estimator must be agnostic|aware|both, got {amb['estimator']!r}")
    pool = [
        _camera_from_pool_entry(entry, where=f"ambiguity.camera_pool[{i}]")
        for i, entry in enumerate(amb["camera_pool"])
    ]
    spread = float(amb["prior_spread"])
    priors = {label: SizePrior(mean, spread) for label, (mean, _) in DEFAULT_SIZE_PRIORS.items()}
    scenes = generate_scenes(
        int(amb["n_scenes"]),
        pool,
        size_priors=priors,
        seed=int(config["seed"]),
        objects_per_scene=int(amb["objects_per_scene"]),
    )
    estimators = ["agnostic", "aware"] if amb["estimator"] == "both" else [amb["estimator"]]

    out_dir = Path(args.out)
    _echo_config(out_dir, config)

    # The resize sweep mirrors the single-source setting (train on one
    # camera, evaluate resized), so it runs on the first cluster's scenes;
    # cross-camera mixing is what the mixed-pool experiment below isolates.
    bias_scenes = [s for s in scenes if s.camera_index == 0]
    bias_rows = []
    for estimator in estimators:
        bias_rows.extend(
            run_bias_experiment(bias_scenes, amb["resize_factors"], estimator=estimator, f_mode=amb["f_mode"])
        )
    _write_csv(out_dir / "bias.csv", ["s", "estimator", "ratio_mean", "ratio_std", "depth_error_mean", "f1"],
               ([row.s, row.estimator, f"{row.ratio_mean:.12g}", f"{row.ratio_std:.6g}",
                 f"{row.depth_error_mean:.6g}", f"{row.f1:.4f}"] for row in bias_rows))

    lines = [MECHANISM_CAVEAT, ""]
    lines.append(f"{len(scenes)} scenes x {amb['objects_per_scene']} objects, "
                 f"pool of {len(pool)} cameras, prior spread {spread}")
    lines.append("")
    lines.append(f"resize bias (Z_pred/Z_true; single-source pool, f={pool[0].fy:g} px):")
    for row in bias_rows:
        lines.append(
            f"  s={row.s:<5g} {row.estimator:<9s} ratio={row.ratio_mean:.6f} "
            f"(std {row.ratio_std:.2g}) depth_err={row.depth_error_mean:.4f} F1={row.f1:.1f}"
        )

    if len(pool) >= 2:
        f_assumed, cluster_rows = run_mixed_pool_experiment(scenes, estimators, f_mode=amb["f_mode"])
        _write_csv(out_dir / "clusters.csv",
                   ["cluster_focal", "estimator", "ratio_mean", "ratio_std", "expected_ratio", "n_objects"],
                   ([row.cluster_focal, row.estimator, f"{row.ratio_mean:.12g}", f"{row.ratio_std:.6g}",
                     f"{row.expected_ratio:.12g}", row.n_objects] for row in cluster_rows))
        lines.append("")
        lines.append(f"mixed-pool conflict (canonical focal {f_assumed:g} px):")
        for row in cluster_rows:
            lines.append(
                f"  cluster f={row.cluster_focal:<6g} {row.estimator:<9s} "
                f"ratio={row.ratio_mean:.6f} expected={row.expected_ratio:.6f}"
            )
    summary = "\n".join(lines) + "\n"
    with _open_atomic(out_dir / "summary.txt", "w") as fh:
        fh.write(summary)
    print(summary, end="")
    return 0


# ---------------------------------------------------------------------------

@functools.cache  # built once per process: parsing leaves no state in the parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="camgeom", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("augment", help="camera-aware augmentation of a sample manifest")
    _add_common(p, workers=True)
    p.add_argument("--manifest", required=True, help="JSONL manifest of samples")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--scale-min", type=float, dest="augment.scale_min")
    p.add_argument("--scale-max", type=float, dest="augment.scale_max")
    p.add_argument("--shift", type=float, dest="augment.shift_fraction", help="max principal-point shift fraction")
    p.add_argument("--mode", choices=["pad", "crop"], dest="augment.mode")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("embed", help="export camera ray embedding (or E_geo with --depth)")
    _add_common(p)
    p.add_argument("--intrinsics", required=True, help="intrinsics JSON file")
    p.add_argument("--out", required=True, help="output CGEM path")
    p.add_argument("--patch", type=float, dest="embed.patch")
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--dim", type=int, dest="embed.dim")
    p.add_argument("--base-period", type=float, dest="embed.base_period")
    p.add_argument("--focal-reference", type=float, dest="embed.focal_reference")
    p.add_argument("--origin", choices=["center", "corner"], dest="embed.origin")
    p.add_argument("--depth", help="depth CGEM; switches output to the geometric embedding")
    p.add_argument("--geo-dim", type=int, dest="geo.dim")
    p.add_argument("--geo-period", type=float, dest="geo.base_period")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("unproject", help="depth map -> camera-frame point cloud")
    _add_common(p)
    p.add_argument("--depth", required=True, help="depth CGEM file")
    p.add_argument("--intrinsics", help="override the depth sidecar intrinsics")
    p.add_argument("--out", required=True, help="output CGEM path")
    p.set_defaults(func=cmd_unproject)

    p = sub.add_parser("eval", help="score detections against ground truth")
    _add_common(p)
    p.add_argument("--preds", required=True, help="predictions file (JSON or fenced transcript)")
    p.add_argument("--truths", required=True, help="ground-truth JSON file")
    p.add_argument("--iou", type=float, dest="eval.iou")
    p.add_argument("--classes", help="file with one class name per line")
    p.add_argument("--axis-aligned", action="store_true", default=None, dest="eval.axis_aligned")
    p.add_argument("--rotation-order", dest="eval.rotation_order")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ambiguity", help="run the depth-bias and mixed-pool experiments")
    _add_common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-scenes", type=int, dest="ambiguity.n_scenes")
    p.add_argument("--factors", type=_factor_list, dest="ambiguity.resize_factors",
                   help="comma-separated resize factors")
    p.add_argument("--estimator", choices=["agnostic", "aware", "both"], dest="ambiguity.estimator")
    p.add_argument("--prior-spread", type=float, dest="ambiguity.prior_spread")
    p.set_defaults(func=cmd_ambiguity)

    p = sub.add_parser("version", help="print the package version")
    p.set_defaults(func=lambda args: print(f"camgeom {__version__}") or 0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args) or 0
    except CamGeomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
