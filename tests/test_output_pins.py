"""SHA-256 pins of the files that ``camgeom eval``, ``augment`` and ``ambiguity`` write.

Eval: three seeded frames, built here, hold oriented boxes at differing attitudes:
jittered true positives, a near miss beside each class's first truth, a far
false positive, an equal-attitude pair, an unrotated pair and two identical
predictions of one truth, whose IoUs tie.  Each frame is scored with the
default flags, with another rotation order and axis-aligned, so any change
to an IoU bit, the greedy tie order or the report layout shows here.

Augment: three seeded frames -- a PPM with a boxes file, a one-channel float
CGEM, and a three-channel float CGEM whose depth has NaN holes -- run with
``--workers 2`` in pad and in crop mode, so any change to a resampled byte,
a depth pixel, an intrinsics update or a pass-through shows here.
Ambiguity: one run with two cameras and noisy size priors.  Wall-clock keys
are dropped and the temporary directory is named ``<tmp>`` before hashing.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from camgeom.cli import main
from camgeom.depthmap import DepthMap
from camgeom.fileio import write_cgem, write_depth, write_ppm

LABELS = ("chair", "table", "lamp")


def _frame(seed: int) -> tuple[list[dict], list[dict]]:
    """Truths and predictions of one frame; classes sit 10 m apart in x."""
    rng = np.random.default_rng(seed)
    truths, preds = [], []
    for c, label in enumerate(LABELS):
        for t in range(3):
            box = [10.0 * c + 3.0 * t, *rng.uniform(-0.5, 0.5, 2), *rng.uniform(0.6, 2.0, 3),
                   rng.uniform(-math.pi, math.pi), *rng.uniform(-0.3, 0.3, 2)]
            truths.append({"label": label, "bbox_3d": box})
            jittered = [v + d for v, d in zip(box, rng.uniform(-0.05, 0.05, 9))]
            preds.append({"label": label, "bbox_3d": jittered})
        first = truths[-3]["bbox_3d"]
        yaw = first[6]
        near = [first[0] + 0.8 * first[3] * math.cos(yaw), first[1] + 0.8 * first[3] * math.sin(yaw), *first[2:6],
                yaw + 0.01, *first[7:]]
        preds.append({"label": label, "bbox_3d": near})
        preds.append({"label": label, "bbox_3d": [10.0 * c, 40.0, 0.0, 1.0, 1.0, 1.0, 0.5, 0.0, 0.0]})
    # an equal-attitude pair, an unrotated pair and a tie: two identical predictions of one truth
    truths += [{"label": "sofa", "bbox_3d": [0.0, -20.0, 0.0, 2.0, 1.0, 1.0, 0.7, 0.1, 0.0]},
               {"label": "sofa", "bbox_3d": [5.0, -20.0, 0.0, 2.0, 1.0, 1.0, 0.0, 0.0, 0.0]}]
    preds += [{"label": "sofa", "bbox_3d": [0.3, -20.1, 0.0, 2.0, 1.2, 1.0, 0.7, 0.1, 0.0]},
              {"label": "sofa", "bbox_3d": [5.2, -20.0, 0.1, 2.0, 1.0, 0.9, 0.0, 0.0, 0.0]},
              {"label": "sofa", "bbox_3d": [5.2, -20.0, 0.1, 2.0, 1.0, 0.9, 0.0, 0.0, 0.0]}]
    order = rng.permutation(len(preds))
    return truths, [preds[k] for k in order]


FLAGS = {"default": [], "xyz": ["--rotation-order", "xyz"], "axis-aligned": ["--axis-aligned"]}
PINNED = {
    (0, "axis-aligned"): ["7465a7562fdb82e6", "30c8a26f7ad41e06"],
    (0, "default"): ["b6d55cb57cf82639", "30c8a26f7ad41e06"],
    (0, "xyz"): ["9708bf8eb7cceb88", "30c8a26f7ad41e06"],
    (1, "axis-aligned"): ["f542af0062dc6827", "30c8a26f7ad41e06"],
    (1, "default"): ["b3bb08ff9cda1cc2", "30c8a26f7ad41e06"],
    (1, "xyz"): ["1b1e34bfdb425b3a", "30c8a26f7ad41e06"],
    (2, "axis-aligned"): ["9f5555476be8719c", "30c8a26f7ad41e06"],
    (2, "default"): ["5e19afc370e3f6e5", "30c8a26f7ad41e06"],
    (2, "xyz"): ["2ee7c3bc90ca9a69", "30c8a26f7ad41e06"],
}


def _report_bytes(path) -> bytes:
    """report.json as written, without wall-clock keys, so only results are pinned."""
    report = json.loads(path.read_text())
    for key in ("elapsed_s", "samples_per_s"):
        report.pop(key, None)
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("flags", sorted(FLAGS))
def test_eval_output_files_are_pinned(tmp_path, monkeypatch, seed, flags):
    monkeypatch.delenv("CAMGEOM_CONFIG", raising=False)
    truths, preds = _frame(seed)
    (tmp_path / "truths.json").write_text(json.dumps(truths))
    (tmp_path / "preds.txt").write_text("Boxes:\n```json\n" + json.dumps(preds, indent=1) + "\n```\n")
    out = tmp_path / "out"
    argv = ["eval", "--preds", str(tmp_path / "preds.txt"), "--truths", str(tmp_path / "truths.json"),
            "--out", str(out), *FLAGS[flags]]
    assert main(argv) == 0
    blobs = [_report_bytes(out / "report.json"), (out / "per_class.csv").read_bytes()]
    assert [hashlib.sha256(blob).hexdigest()[:16] for blob in blobs] == PINNED[seed, flags]


def _digests(out, tmp_path) -> dict[str, str]:
    """Every file under ``out``, by name: wall-clock keys dropped from report.json, ``tmp_path`` as ``<tmp>``."""
    digests = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        blob = _report_bytes(path) if path.name == "report.json" else path.read_bytes()
        blob = blob.replace(str(tmp_path).encode(), b"<tmp>")
        digests[path.relative_to(out).as_posix()] = hashlib.sha256(blob).hexdigest()[:16]
    return digests


def _augment_inputs(root) -> None:
    """Three seeded 37 x 29 frames and their manifest; the runs give 18 to 62 output rows."""
    rng = np.random.default_rng(22)
    height, width = 37, 29
    k = {"fx": 40.0, "fy": 41.5, "cx": 14.2, "cy": 18.9, "width": width, "height": height}
    write_ppm(root / "a.ppm", rng.integers(0, 256, (height, width, 3), dtype=np.uint8))
    write_cgem(root / "b.cgem", rng.random((height, width, 1), dtype=np.float32))
    write_cgem(root / "c.cgem", (rng.random((height, width, 3), dtype=np.float32) - 0.5) * 40)
    depth = rng.uniform(0.5, 20.0, (height, width))
    depth[rng.random((height, width)) < 0.2] = np.nan
    write_depth(root / "c.depth.cgem", DepthMap.from_array(depth))
    (root / "a.boxes.json").write_text(json.dumps([{"label": "chair", "bbox_3d": [0.1, 0.2, 3.0, 1, 1, 1, 0.3, 0, 0]}]))
    entries = [{"id": "a", "image": "a.ppm", "intrinsics": k, "boxes": "a.boxes.json"},
               {"id": "b", "image": "b.cgem", "intrinsics": k},
               {"id": "c", "image": "c.cgem", "intrinsics": k, "depth": "c.depth.cgem"}]
    (root / "m.jsonl").write_text("".join(json.dumps(e) + "\n" for e in entries))


PINNED_AUGMENT = {
    "crop": {
        "a.boxes.json": "bdc4351887fc0d7e",
        "a.intrinsics.json": "d38f617177a6aaa2",
        "a.ppm": "fcb1f6efdd2ddb9e",
        "b.cgem": "ed4191658c46d1b8",
        "b.intrinsics.json": "2a603403c9008df2",
        "c.cgem": "d3abd737a8e7f5af",
        "c.depth.cgem": "95c420f3a0d0a1ce",
        "c.depth.cgem.json": "f619943a0c14e8c7",
        "c.intrinsics.json": "b51db9957b0d9bba",
        "config.resolved.json": "1c4b54b3f42db327",
        "report.json": "72325866f4896e28",
        "transforms.jsonl": "c6ebe18eab8dbec1",
    },
    "pad": {
        "a.boxes.json": "bdc4351887fc0d7e",
        "a.intrinsics.json": "5039344e979261dd",
        "a.ppm": "3dfef40a1e1cce5a",
        "b.cgem": "7202956002d9a586",
        "b.intrinsics.json": "b5fbb04c4fac9c1e",
        "c.cgem": "5d4a70352719d549",
        "c.depth.cgem": "ba3e81f9c315049d",
        "c.depth.cgem.json": "51aa0eb75b5d9042",
        "c.intrinsics.json": "7aa8751cdc58f215",
        "config.resolved.json": "c3bde3bfed43c69e",
        "report.json": "89c274f1b8732944",
        "transforms.jsonl": "8725dd6b74062192",
    },
}


@pytest.mark.parametrize("mode", ["crop", "pad"])
def test_augment_output_files_are_pinned(tmp_path, monkeypatch, mode):
    monkeypatch.delenv("CAMGEOM_CONFIG", raising=False)
    _augment_inputs(tmp_path)
    out = tmp_path / "out"
    assert main(["augment", "--manifest", str(tmp_path / "m.jsonl"), "--out", str(out),
                 "--workers", "2", "--mode", mode, "--seed", "0", "--scale-min", "0.6", "--scale-max", "1.8"]) == 0
    assert _digests(out, tmp_path) == PINNED_AUGMENT[mode]


PINNED_AMBIGUITY = {
    "bias.csv": "b250166d6fb42e94",
    "clusters.csv": "f663cfda6cde9f9e",
    "config.resolved.json": "e76b5bc4f3ebb583",
    "summary.txt": "0a781ea7b42aa448",
}


def test_ambiguity_output_files_are_pinned(tmp_path, monkeypatch):
    monkeypatch.delenv("CAMGEOM_CONFIG", raising=False)
    out = tmp_path / "out"
    assert main(["ambiguity", "--out", str(out), "--n-scenes", "40", "--prior-spread", "0.15",
                 "--factors", "0.5,1,1.6", "--seed", "9"]) == 0
    assert _digests(out, tmp_path) == PINNED_AMBIGUITY
