"""Seeded inputs and output oracles for the four benchmark workloads.

``generate`` writes a workload's input files and returns its plan: the
warm-up ops, the ops of one timed pass, and for every op what its check
expects and the output directory it writes.  An op is one
``camgeom.cli.main(argv)`` call.

The checks never call camgeom.  They decode the program's output files with
this module's own readers and recompute the expected values from the laws
the program claims (bilinear and nearest-neighbour resampling, the
intrinsics update, pinhole reprojection, the depth-bias laws), so a defect
in camgeom cannot hide inside the oracle that judges it.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np

WORKLOADS = ("augment", "eval", "ambiguity", "tokens")

SIZES = {
    "full": {
        "augment": {"frames": 24, "warmup_frames": 2, "width": 640, "height": 480},
        "eval": {"frames": 40},
        "ambiguity": {"scenes": 500, "warmup_scenes": 20},
        "tokens": {"frames": 40, "width": 640, "height": 480},
    },
    # small enough for the benchmark's own tests; same code paths
    "tiny": {
        "augment": {"frames": 4, "warmup_frames": 1, "width": 64, "height": 48},
        "eval": {"frames": 2},
        "ambiguity": {"scenes": 20, "warmup_scenes": 4},
        "tokens": {"frames": 2, "width": 64, "height": 48},
    },
}

# The augment workload passes a fixed program seed: the scale draws then set
# the same amount of resampling for every benchmark seed, which varies pixel
# content, intrinsics and depth holes instead.
AUGMENT_PROGRAM_SEED = 0
EVAL_CLASSES = ("cabinet", "chair", "monitor", "table")
AMBIGUITY_POOL = (580.0, 1160.0)  # the CLI's default two-camera pool
AMBIGUITY_FACTORS = (0.8, 1.0, 1.2)
EMBED_PATCH = 14.0  # CLI defaults: patch 14, ray dim 256, geometric dim 240
RAY_DIM = 256
GEO_DIM = 240

_CGEM = struct.Struct("<4sIII")


# ---------------------------------------------------------------------------
# file formats, written and read without camgeom

def write_cgem(path: Path, data: np.ndarray) -> None:
    data = np.asarray(data, dtype="<f4")
    if data.ndim == 2:
        data = data[:, :, None]
    rows, cols, dim = data.shape
    path.write_bytes(_CGEM.pack(b"CGEM", rows, cols, dim) + data.tobytes())


def read_cgem(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    magic, rows, cols, dim = _CGEM.unpack_from(raw)
    if magic != b"CGEM" or len(raw) != _CGEM.size + 4 * rows * cols * dim:
        raise ValueError(f"{path.name}: malformed CGEM file")
    return np.frombuffer(raw, dtype="<f4", offset=_CGEM.size).reshape(rows, cols, dim)


def write_ppm(path: Path, data: np.ndarray) -> None:
    height, width = data.shape[:2]
    path.write_bytes(f"P6\n{width} {height}\n255\n".encode("ascii") + data.tobytes())


def read_ppm(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    tokens = raw.split(maxsplit=4)  # P6, width, height, maxval, pixels
    if tokens[0] != b"P6" or tokens[3] != b"255":
        raise ValueError(f"{path.name}: not an 8-bit binary PPM")
    width, height = int(tokens[1]), int(tokens[2])
    return np.frombuffer(raw[len(raw) - width * height * 3 :], dtype=np.uint8).reshape(height, width, 3)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# generators

def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _intrinsics(rng: np.random.Generator, width: int, height: int) -> dict:
    f = float(rng.uniform(0.8, 1.1) * width)
    return {
        "fx": f,
        "fy": f,
        "cx": width / 2 + float(rng.uniform(-0.02, 0.02) * width),
        "cy": height / 2 + float(rng.uniform(-0.02, 0.02) * height),
        "width": width,
        "height": height,
    }


def _field(rng: np.random.Generator, height: int, width: int, channels: int) -> np.ndarray:
    """Values in [0, 1): a smooth seeded pattern plus noise, float32."""
    v = np.linspace(0.0, 1.0, height, dtype=np.float32)[:, None, None]
    u = np.linspace(0.0, 1.0, width, dtype=np.float32)[None, :, None]
    freq = rng.uniform(1.0, 6.0, size=(2, channels)).astype(np.float32)
    phase = rng.uniform(0.0, 6.3, size=channels).astype(np.float32)
    smooth = 0.5 + 0.3 * np.sin(freq[0] * 6.3 * u + freq[1] * 6.3 * v + phase)
    return smooth + 0.19 * rng.random((height, width, channels), dtype=np.float32)


def _depth(rng: np.random.Generator, height: int, width: int) -> np.ndarray:
    """Metric depth in [0.5, 10) m with about 10% NaN holes."""
    depth = 0.5 + 9.5 * _field(rng, height, width, 1)[:, :, 0]
    depth[rng.random((height, width)) < 0.1] = np.nan
    return depth


def _gen_augment(root: Path, rng: np.random.Generator, seed: int, size: dict) -> dict:
    width, height = size["width"], size["height"]
    entries = []
    for i in range(size["frames"]):
        fid = f"f{i:03d}"
        if i % 4 == 3:  # one frame in four is float32 CGEM, the rest uint8 PPM
            image = f"{fid}.cgem"
            write_cgem(root / image, _field(rng, height, width, 3))
        else:
            image = f"{fid}.ppm"
            write_ppm(root / image, (255.0 * _field(rng, height, width, 3)).astype(np.uint8))
        write_cgem(root / f"{fid}.depth.cgem", _depth(rng, height, width))
        entries.append({"id": fid, "image": image, "intrinsics": _intrinsics(rng, width, height),
                        "depth": f"{fid}.depth.cgem"})

    def op(manifest: str, out: str, frames: list[dict]) -> dict:
        (root / manifest).write_text("".join(json.dumps(e, sort_keys=True) + "\n" for e in frames))
        argv = ["augment", "--manifest", str(root / manifest), "--out", str(root / out),
                "--workers", "2", "--mode", "pad", "--seed", str(AUGMENT_PROGRAM_SEED)]
        return {"argv": argv, "items": len(frames), "out": str(root / out),
                "check": {"kind": "augment", "root": str(root), "out": str(root / out), "entries": frames}}

    return {"unit": "frame",
            "warmup": [op("warmup.jsonl", "warmup_out", entries[: size["warmup_frames"]])],
            "ops": [op("manifest.jsonl", "out", entries)]}


def _box_rotation(yaw: float, pitch: float, roll: float) -> np.ndarray:
    cy, sy, cp, sp, cr, sr = (math.cos(yaw), math.sin(yaw), math.cos(pitch), math.sin(pitch),
                              math.cos(roll), math.sin(roll))
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    return rz @ ry @ rx


def _shifted(box: list[float], local_shift: np.ndarray) -> list[float]:
    offset = _box_rotation(*box[6:9]) @ local_shift
    return [box[0] + offset[0], box[1] + offset[1], box[2] + offset[2], *box[3:]]


def _gen_eval(root: Path, rng: np.random.Generator, seed: int, size: dict) -> dict:
    """Per frame: 4 classes x 6 truths; 5 of 6 truths get a jittered true
    positive, each class gets one near miss (IoU < 0.25 with its truth) and
    one far false positive.  Boxes sit in distinct 10 m cells of a 6 x 6
    grid, so only the constructed pairs can overlap at all.
    """
    ops = []
    for f in range(size["frames"]):
        cells = rng.permutation(36)
        truths, preds, expected = [], [], []
        for label in EVAL_CLASSES:
            first = len(truths)
            for _ in range(6):
                cell = int(cells[len(truths)])
                center = np.array([10.0 * (cell % 6 - 2.5), 0.0, 10.0 + 10.0 * (cell // 6)])
                center += rng.uniform(-1, 1, 3)
                sizes = rng.uniform(0.6, 2.5, 3)
                angles = [rng.uniform(-math.pi, math.pi), rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)]
                truths.append({"label": label, "bbox_3d": [*map(float, center), *map(float, sizes), *angles]})
            for j in rng.choice(range(first, first + 6), size=5, replace=False):
                box = truths[j]["bbox_3d"]
                tp = _shifted(box, np.asarray(box[3:6]) * rng.uniform(-0.03, 0.03, 3))
                tp[3:6] = [s * rng.uniform(0.95, 1.05) for s in box[3:6]]
                tp[6:9] = [a + rng.uniform(-0.03, 0.03) for a in box[6:9]]
                preds.append({"label": label, "bbox_3d": [float(v) for v in tp], "truth": int(j)})
            box = truths[first + int(rng.integers(6))]["bbox_3d"]
            near = _shifted(box, np.array([0.75 * box[3], 0.0, 0.0]))
            near[6:9] = [a + rng.uniform(-0.02, 0.02) for a in box[6:9]]
            preds.append({"label": label, "bbox_3d": [float(v) for v in near]})
            cell = int(cells[24 + EVAL_CLASSES.index(label)])
            far = [10.0 * (cell % 6 - 2.5), 0.0, 10.0 + 10.0 * (cell // 6), *rng.uniform(0.6, 2.5, 3),
                   rng.uniform(-math.pi, math.pi), 0.0, 0.0]
            preds.append({"label": label, "bbox_3d": [float(v) for v in far]})
        order = rng.permutation(len(preds))
        listed = []
        for i, p in enumerate(order):
            pred = preds[p]
            listed.append({"label": pred["label"], "bbox_3d": pred["bbox_3d"]})
            if "truth" in pred:
                expected.append([pred["label"], i, pred["truth"]])
        listed.append({"label": "chair", "bbox_3d": [0.0, 0.0, 5.0, 1.0, 1.0]})  # bad arity: skipped
        transcript = ("Detected objects in camera frame:\n```json\n" + json.dumps(listed, indent=1)
                      + "\n```\nAll boxes are [x, y, z, w, h, l, yaw, pitch, roll].\n")
        (root / f"f{f:03d}.preds.txt").write_text(transcript)
        _write_json(root / f"f{f:03d}.truths.json", truths)
        argv = ["eval", "--preds", str(root / f"f{f:03d}.preds.txt"),
                "--truths", str(root / f"f{f:03d}.truths.json"), "--out", str(root / "out")]
        ops.append({"argv": argv, "items": 1, "out": str(root / "out"),
                    "check": {"kind": "eval", "out": str(root / "out"), "matches": sorted(expected),
                              "preds": [p["bbox_3d"] for p in listed[:-1]],
                              "truths": [t["bbox_3d"] for t in truths]}})
    return {"unit": "frame", "warmup": ops[:1], "ops": ops}


def _gen_ambiguity(root: Path, rng: np.random.Generator, seed: int, size: dict) -> dict:
    def op(scenes: int, out: str) -> dict:
        argv = ["ambiguity", "--out", str(root / out), "--n-scenes", str(scenes), "--seed", str(seed),
                "--factors", ",".join(map(str, AMBIGUITY_FACTORS)), "--estimator", "both"]
        return {"argv": argv, "items": scenes, "out": str(root / out),
                "check": {"kind": "ambiguity", "out": str(root / out), "scenes": scenes}}

    return {"unit": "scene", "warmup": [op(size["warmup_scenes"], "warmup_out")],
            "ops": [op(size["scenes"], "out")]}


def _gen_tokens(root: Path, rng: np.random.Generator, seed: int, size: dict) -> dict:
    width, height = size["width"], size["height"]
    ray, geo, points = root / "ray", root / "geo", root / "points"
    ops = []
    for f in range(size["frames"]):
        k = _intrinsics(rng, width, height)
        k_path, d_path = root / f"f{f:03d}.intrinsics.json", root / f"f{f:03d}.depth.cgem"
        _write_json(k_path, k)
        write_cgem(d_path, _depth(rng, height, width))
        _write_json(Path(str(d_path) + ".json"), {"kind": "depth", "invalid": "nan", "units": "meters",
                                                   "intrinsics": k})
        check = {"k": k, "depth": str(d_path)}
        ops += [
            {"argv": ["embed", "--intrinsics", str(k_path), "--out", str(ray / "ray.cgem")], "items": 0,
             "out": str(ray), "check": {"kind": "ray_embedding", "path": str(ray / "ray.cgem"), **check}},
            {"argv": ["embed", "--intrinsics", str(k_path), "--depth", str(d_path),
                      "--out", str(geo / "geo.cgem")], "items": 0,
             "out": str(geo), "check": {"kind": "geo_embedding", "path": str(geo / "geo.cgem"), **check}},
            {"argv": ["unproject", "--depth", str(d_path), "--out", str(points / "points.cgem")], "items": 1,
             "out": str(points), "check": {"kind": "points", "path": str(points / "points.cgem"), **check}},
        ]
    return {"unit": "frame", "warmup": ops[:3], "ops": ops}


_GENERATORS = {"augment": _gen_augment, "eval": _gen_eval, "ambiguity": _gen_ambiguity, "tokens": _gen_tokens}


def generate(workload: str, root: Path, seed: int, size: str = "full") -> dict:
    """Write the workload's inputs under ``root`` and return its plan."""
    root.mkdir(parents=True, exist_ok=True)
    plan = _GENERATORS[workload](root, _rng(seed, workload), seed, SIZES[size][workload])
    plan["workload"] = workload
    plan["items_per_pass"] = sum(op["items"] for op in plan["ops"])
    return plan


# ---------------------------------------------------------------------------
# oracles

def _bilinear(src: np.ndarray, t: dict, i: int, j: int) -> np.ndarray:
    """Pad-mode bilinear sample of output pixel (i, j), one tap at a time."""
    x = (j + 0.5 + t["du"]) / t["sx"] - 0.5
    y = (i + 0.5 + t["dv"]) / t["sy"] - 0.5
    j0, i0 = math.floor(x), math.floor(y)
    fx, fy = x - j0, y - i0
    acc = np.zeros(src.shape[2])
    for ii, jj, w in ((i0, j0, (1 - fy) * (1 - fx)), (i0, j0 + 1, (1 - fy) * fx),
                      (i0 + 1, j0, fy * (1 - fx)), (i0 + 1, j0 + 1, fy * fx)):
        if 0 <= ii < src.shape[0] and 0 <= jj < src.shape[1]:
            acc += w * src[ii, jj].astype(np.float64)
    return acc


def _nearest(depth: np.ndarray, t: dict, i: int, j: int) -> float:
    jj = math.floor((j + 0.5 + t["du"]) / t["sx"])
    ii = math.floor((i + 0.5 + t["dv"]) / t["sy"])
    if 0 <= ii < depth.shape[0] and 0 <= jj < depth.shape[1]:
        return float(depth[ii, jj])
    return math.nan


def _unit_rays(u: np.ndarray, v: np.ndarray, k: dict) -> np.ndarray:
    d = np.stack([(u - k["cx"]) / k["fx"], (v - k["cy"]) / k["fy"], np.ones_like(u)], axis=-1)
    return d / np.linalg.norm(d, axis=-1, keepdims=True)


def _ray_angle(k: dict, t: dict, k_out: dict) -> float:
    """Largest angle between a source pixel's ray and its transformed pixel's ray."""
    uu, vv = np.meshgrid(np.linspace(0.5, k["width"] - 0.5, 64), np.linspace(0.5, k["height"] - 0.5, 64))
    d_src = _unit_rays(uu, vv, k)
    d_out = _unit_rays(t["sx"] * uu - t["du"], t["sy"] * vv - t["dv"], k_out)
    cross = np.linalg.norm(np.cross(d_src, d_out), axis=-1)
    return float(np.max(np.arctan2(cross, np.sum(d_src * d_out, axis=-1))))


def _same_depth(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or a == b


def _check_augment(c: dict) -> str | None:
    root, out = Path(c["root"]), Path(c["out"])
    report = json.loads((out / "report.json").read_text())
    if report["n_ok"] != len(c["entries"]) or report["n_failed"] or report["load_failures"]:
        return f"augment report: {report['n_ok']} ok, {report['n_failed']} failed"
    lines = [json.loads(line) for line in (out / "transforms.jsonl").read_text().splitlines()]
    if [line["index"] for line in lines] != list(range(len(c["entries"]))):
        return "transforms.jsonl does not list every frame once, in order"
    for line in lines:
        entry = c["entries"][line["index"]]
        fid, t, k = entry["id"], line["transform"], entry["intrinsics"]
        k_out = json.loads((out / f"{fid}.intrinsics.json").read_text())
        expected = {"fx": t["sx"] * k["fx"], "fy": t["sy"] * k["fy"], "cx": t["sx"] * k["cx"] - t["du"],
                    "cy": t["sy"] * k["cy"] - t["dv"], "width": t["out_width"], "height": t["out_height"]}
        if k_out != expected:
            return f"{fid}: written intrinsics {k_out} != transformed {expected}"
        angle = _ray_angle(k, t, k_out)
        if not angle < 1e-9:
            return f"{fid}: rays bent by {angle:.3g} rad"
        is_ppm = entry["image"].endswith(".ppm")
        src = read_ppm(root / entry["image"]) if is_ppm else read_cgem(root / entry["image"])
        img = read_ppm(out / entry["image"]) if is_ppm else read_cgem(out / entry["image"])
        depth_in = read_cgem(root / entry["depth"])[:, :, 0]
        depth_out = read_cgem(out / f"{fid}.depth.cgem")[:, :, 0]
        shape = (t["out_height"], t["out_width"])
        if img.shape != shape + (3,) or depth_out.shape != shape:
            return f"{fid}: output shapes {img.shape}, {depth_out.shape} != {shape}"
        picks = np.random.default_rng(line["index"]).integers(0, shape, size=(32, 2))
        for i, j in picks.tolist():
            want = _bilinear(src, t, i, j)
            got = img[i, j].astype(np.float64)
            if is_ppm:
                bad = np.abs(got - np.clip(np.rint(want), 0, 255)) > 1
            else:
                bad = np.abs(got - want) > 1e-5 * np.abs(want) + 1e-6
            if bad.any():
                return f"{fid}: pixel ({i}, {j}) is {got}, bilinear oracle gives {want}"
            if not _same_depth(float(depth_out[i, j]), _nearest(depth_in, t, i, j)):
                return f"{fid}: depth ({i}, {j}) is {depth_out[i, j]}, nearest neighbour gives " \
                       f"{_nearest(depth_in, t, i, j)}"
    return None


def _corners(box: list[float]) -> np.ndarray:
    signs = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)], dtype=np.float64)
    return (signs * np.asarray(box[3:6]) / 2) @ _box_rotation(*box[6:9]).T + np.asarray(box[:3])


def _sampled_iou(a: list[float], b: list[float], rng: np.random.Generator, n: int = 8192) -> float:
    """Monte-Carlo IoU: uniform points in the pair's bounding box, tested in each box's frame."""
    corners = np.vstack([_corners(a), _corners(b)])
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    points = lo + (hi - lo) * rng.random((n, 3))
    inside = [np.all(np.abs((points - np.asarray(box[:3])) @ _box_rotation(*box[6:9]))
                     <= np.asarray(box[3:6]) / 2, axis=1) for box in (a, b)]
    return np.sum(inside[0] & inside[1]) / max(1, np.sum(inside[0] | inside[1]))


def _check_eval(c: dict) -> str | None:
    report = json.loads((Path(c["out"]) / "report.json").read_text())
    got = sorted([m[0], m[1], m[2]] for m in report["matches"])
    if got != c["matches"]:
        return f"eval matches {got} != constructed true positives {c['matches']}"
    # the first match of each class; 8192 samples give the sampled IoU a
    # standard error near 0.006, so 0.05 is far outside sampling noise
    rng = np.random.default_rng(0)
    firsts = {m[0]: m for m in reversed(report["matches"])}
    for label, i, j, iou in firsts.values():
        sampled = _sampled_iou(c["preds"][i], c["truths"][j], rng)
        if abs(iou - sampled) > 0.05:
            return f"eval: {label} pred {i} / truth {j} reports IoU {iou:.4f}, sampling gives {sampled:.4f}"
    return None


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_ambiguity(c: dict) -> str | None:
    out = Path(c["out"])
    bias = _read_rows(out / "bias.csv")
    if len(bias) != 2 * len(AMBIGUITY_FACTORS):
        return f"bias.csv has {len(bias)} rows"
    for row in bias:
        s, ratio = float(row["s"]), float(row["ratio_mean"])
        want, tol = (1.0 / s, 1e-6) if row["estimator"] == "agnostic" else (1.0, 1e-9)
        if not abs(ratio - want) <= tol:
            return f"bias s={s} {row['estimator']}: ratio {ratio} != {want} (tol {tol})"
    # scenes take pool cameras round-robin; the agnostic estimator fits their mean focal
    n = c["scenes"]
    f_assumed = ((n + 1) // 2 * AMBIGUITY_POOL[0] + n // 2 * AMBIGUITY_POOL[1]) / n
    clusters = _read_rows(out / "clusters.csv")
    if len(clusters) != 2 * len(AMBIGUITY_POOL):
        return f"clusters.csv has {len(clusters)} rows"
    for row in clusters:
        f, ratio = float(row["cluster_focal"]), float(row["ratio_mean"])
        want = f_assumed / f if row["estimator"] == "agnostic" else 1.0
        if not abs(ratio - want) <= 0.01 * want:
            return f"mixed pool f={f} {row['estimator']}: ratio {ratio} != {want} within 1%"
    return None


def _embedding_shape(k: dict, dim: int) -> tuple[int, int, int]:
    return math.ceil(k["height"] / EMBED_PATCH), math.ceil(k["width"] / EMBED_PATCH), dim


def _check_embedding(c: dict, dim: int) -> str | None:
    emb = read_cgem(Path(c["path"]))
    if emb.shape != _embedding_shape(c["k"], dim):
        return f"{c['kind']}: shape {emb.shape} != {_embedding_shape(c['k'], dim)}"
    if not (np.all(np.isfinite(emb)) and emb.min() >= -1.0 and emb.max() <= 1.0):
        return f"{c['kind']}: values outside [-1, 1]"
    if c["kind"] == "ray_embedding":
        # lowest-frequency pair of the rx and ry blocks: sin/cos of the ray component itself
        k, quarter = c["k"], dim // 4
        rx = ((np.arange(emb.shape[1]) + 0.5) * EMBED_PATCH - k["cx"]) / k["fx"]
        ry = ((np.arange(emb.shape[0]) + 0.5) * EMBED_PATCH - k["cy"]) / k["fy"]
        for got, want in ((emb[0, :, 0], np.sin(rx)), (emb[0, :, 1], np.cos(rx)),
                          (emb[:, 0, quarter], np.sin(ry)), (emb[:, 0, quarter + 1], np.cos(ry))):
            if np.max(np.abs(got - want)) > 1e-6:
                return "ray_embedding: ray channels disagree with sin/cos of the token rays"
    return None


def _check_points(c: dict) -> str | None:
    k = c["k"]
    points = read_cgem(Path(c["path"])).astype(np.float64)
    depth = read_cgem(Path(c["depth"]))[:, :, 0]
    if points.shape != depth.shape + (3,):
        return f"points: shape {points.shape} != {depth.shape + (3,)}"
    rows, cols = np.random.default_rng(0).integers(0, depth.shape, size=(4096, 2)).T
    p = points[rows, cols]
    z = depth[rows, cols].astype(np.float64)
    valid = np.isfinite(z)
    if not np.array_equal(np.isfinite(p).all(axis=1), valid) or np.isfinite(p[~valid]).any():
        return "points: validity does not follow the depth map's holes"
    if not np.array_equal(p[valid, 2], z[valid]):
        return "points: z differs from the input depth"
    u_want, v_want = cols[valid] + 0.5, rows[valid] + 0.5
    u = k["fx"] * p[valid, 0] / p[valid, 2] + k["cx"]
    v = k["fy"] * p[valid, 1] / p[valid, 2] + k["cy"]
    # z is exact (checked above), so only the float32 rounding of x (or y) in
    # the stored point moves the reprojection: at most 2**-24 relative to the
    # offset from the principal point.  Allow 2**-23, plus 1e-9 px for float64.
    for got, want, c0 in ((u, u_want, k["cx"]), (v, v_want, k["cy"])):
        err = np.abs(got - want) - (1e-9 + np.abs(want - c0) * 2.0**-23)
        if err.max(initial=-1.0) > 0:
            return f"points: reprojection misses its pixel centre by {np.abs(got - want).max():.3g} px"
    return None


def check(c: dict) -> str | None:
    """None when the op's outputs satisfy the oracle, else what is wrong."""
    kind = c["kind"]
    if kind == "augment":
        return _check_augment(c)
    if kind == "eval":
        return _check_eval(c)
    if kind == "ambiguity":
        return _check_ambiguity(c)
    if kind in ("ray_embedding", "geo_embedding"):
        return _check_embedding(c, RAY_DIM if kind == "ray_embedding" else GEO_DIM)
    return _check_points(c)
