"""The benchmark's own tests, run with ``python3 -m pytest bench -q``.

Every workload runs in-process at the tiny size with tracing on: one warm-up,
one traced and one untraced pass.  The tests check that each boundary wrapper
fires where the layer table says it should, that counts repeat exactly for a
seed, and that every oracle rejects a corrupted output.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SRC = HERE.parent / "src"

# boundary -> the workloads on which the layer table says it does work
COVERAGE = {
    "cli.main": workloads.WORKLOADS,
    "fileio.read_cgem": ("augment", "tokens"),
    "fileio.read_ppm": ("augment",),
    "fileio.read_depth": ("augment", "tokens"),
    "fileio.read_sidecar": ("tokens",),
    "fileio.load_intrinsics": ("tokens",),
    "fileio.write_cgem": ("augment", "tokens"),
    "fileio.write_ppm": ("augment",),
    "fileio.write_depth": ("augment",),
    "fileio.write_sidecar": ("augment", "tokens"),
    "fileio.save_intrinsics": ("augment",),
    "augment.batch_augment": ("augment",),
    "augment.augment": ("augment",),
    "augment.resample": ("augment",),
    "augment.resample_depth": ("augment",),
    "transforms.scale": ("ambiguity",),
    "transforms.apply_transform": ("augment",),
    "camera.projected_height": ("ambiguity",),
    "camera.projected_width": ("ambiguity",),
    "rays.ray_grid": ("tokens",),
    "rays.embed": ("tokens",),
    "depthmap.unproject": ("tokens",),
    "depthmap.token_point_grid": ("tokens",),
    "depthmap.embed_points": ("tokens",),
    "depthmap.biased_depth_estimate": ("ambiguity",),
    "depthmap.aware_depth_estimate": ("ambiguity",),
    "boxes.iou3d": ("eval", "ambiguity"),
    "boxes.clipped_intersection_volume": ("eval",),
    "boxes.rotation_matrix": ("eval", "ambiguity"),
    "evaluation.parse_detections": ("eval",),
    "evaluation.match_and_score": ("eval", "ambiguity"),
    "ambiguity.generate_scenes": ("ambiguity",),
    "ambiguity.run_bias_experiment": ("ambiguity",),
    "ambiguity.run_mixed_pool_experiment": ("ambiguity",),
}


def _traced_run(workload: str, root: Path, seed: int = 3) -> dict:
    plan = workloads.generate(workload, root, seed, size="tiny")
    run = harness.run({"src": str(SRC), "plan": plan, "seconds": 0, "trace": True})
    return run | harness.summarize(plan, [run])


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    return {w: _traced_run(w, tmp_path_factory.mktemp(w)) for w in workloads.WORKLOADS}


def test_every_boundary_has_a_coverage_row():
    assert set(COVERAGE) == set(tracer.BOUNDARIES)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_passes_its_checks(runs, workload):
    run = runs[workload]
    assert run["failures"] == [] and run["drift"] == []
    assert run["passes"] == 1  # and one traced pass before it
    assert set(run["layers"]) == set(tracer.LAYER_METRICS) | {"trace.overhead_pct"}


@pytest.mark.parametrize("boundary", sorted(COVERAGE))
def test_boundary_fires_on_its_workloads(runs, boundary):
    for workload in COVERAGE[boundary]:
        assert runs[workload]["boundaries"].get(boundary, {}).get("calls", 0) >= 1, (boundary, workload)


def test_ambiguity_never_reaches_the_clipper(runs):
    layers = runs["ambiguity"]["layers"]
    assert layers["boxes.iou3d_calls"] > 0 and layers["boxes.clip_calls"] == 0


def test_fileio_calls_count_each_file_once(runs):
    # read_depth reads through read_cgem and read_sidecar; only the outer call counts
    boundaries = runs["tokens"]["boundaries"]
    outer = ("fileio.read_depth", "fileio.load_intrinsics", "fileio.write_cgem", "fileio.write_sidecar")
    assert boundaries["fileio.read_cgem"]["calls"] > 0
    assert runs["tokens"]["layers"]["fileio.calls"] == sum(boundaries[name]["calls"] for name in outer)


def test_counts_repeat_for_a_seed(runs, tmp_path):
    again = _traced_run("eval", tmp_path / "eval")["layers"]
    first = runs["eval"]["layers"]
    counts = [m for m in tracer.LAYER_METRICS if m not in tracer.TIMED]
    assert {m: again[m] for m in counts} == {m: first[m] for m in counts}


def test_inputs_repeat_for_a_seed(tmp_path):
    a = workloads.generate("augment", tmp_path / "a", 5, size="tiny")
    b = workloads.generate("augment", tmp_path / "b", 5, size="tiny")
    for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
    assert json.dumps(a).replace(str(tmp_path / "a"), "") == json.dumps(b).replace(str(tmp_path / "b"), "")


def _corrupt_augment(check):
    out = Path(check["out"])
    frame = check["entries"][0]
    k = json.loads((out / f"{frame['id']}.intrinsics.json").read_text())
    k["fx"] *= 1.001
    (out / f"{frame['id']}.intrinsics.json").write_text(json.dumps(k))


def _corrupt_eval(check):
    path = Path(check["out"]) / "report.json"
    report = json.loads(path.read_text())
    report["matches"] = report["matches"][1:]
    path.write_text(json.dumps(report))


def _corrupt_ambiguity(check):
    path = Path(check["out"]) / "bias.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1][2] = str(float(rows[1][2]) * 1.001)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _corrupt_tokens(check):
    path = Path(check["path"])
    data = workloads.read_cgem(path)
    workloads.write_cgem(path, np.where(np.isfinite(data), data * 1.001, data))


@pytest.mark.parametrize("workload, corrupt", [
    ("augment", _corrupt_augment),
    ("eval", _corrupt_eval),
    ("ambiguity", _corrupt_ambiguity),
    ("tokens", _corrupt_tokens),
])
def test_oracle_rejects_corrupted_output(tmp_path, workload, corrupt):
    plan = workloads.generate(workload, tmp_path, 4, size="tiny")
    op = plan["ops"][-1]  # tokens: the unprojection
    cli = harness.import_camgeom(str(SRC))
    failures = []
    harness.run_op(cli, op, failures)
    assert failures == []
    corrupt(op["check"])
    assert workloads.check(op["check"]) is not None
