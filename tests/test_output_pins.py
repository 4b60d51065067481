"""SHA-256 pins of the files that ``camgeom eval`` writes.

Three seeded frames, built here, hold oriented boxes at differing attitudes:
jittered true positives, a near miss beside each class's first truth, a far
false positive, an equal-attitude pair, an unrotated pair and two identical
predictions of one truth, whose IoUs tie.  Each frame is scored with the
default flags, with another rotation order and axis-aligned, so any change
to an IoU bit, the greedy tie order or the report layout shows here.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from camgeom.cli import main

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
    report.pop("elapsed_s", None)
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
