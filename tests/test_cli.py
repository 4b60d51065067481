"""End-to-end CLI tests: every subcommand, exit codes, config resolution."""

import csv
import json

import numpy as np
import pytest

from camgeom import cli
from camgeom.ambiguity import MECHANISM_CAVEAT
from camgeom.cli import main
from camgeom.fileio import read_cgem, read_sidecar, sidecar_path, write_cgem, write_depth, write_ppm
from camgeom import DepthMap, Intrinsics
from camgeom.fileio import save_intrinsics

K = Intrinsics(500.0, 500.0, 32.0, 24.0, 64, 48)


@pytest.fixture
def workspace(tmp_path):
    rng = np.random.default_rng(7)
    save_intrinsics(tmp_path / "k.json", K)
    for i in range(3):
        write_ppm(tmp_path / f"img{i}.ppm", rng.integers(0, 256, (48, 64, 3), dtype=np.uint8))
    write_depth(tmp_path / "depth.cgem", DepthMap.from_array(rng.uniform(1, 5, (48, 64))), K)
    manifest = "\n".join(
        json.dumps({"id": f"img{i}", "image": f"img{i}.ppm", "intrinsics": "k.json"})
        for i in range(3)
    )
    (tmp_path / "manifest.jsonl").write_text(manifest + "\n")
    return tmp_path


GT = '[{"label": "chair", "bbox_3d": [0, 0, 2, 1, 1, 1, 0, 0, 0]}]'
# sidecars that are JSON but not an object
BAD_SIDECARS = {"null": "null", "number": "5", "string": '"intrinsics"', "list": "[1]"}
LONG_INT = '{"fx": ' + "1" * 5000 + "}"  # an integer past Python's 4,300-digit conversion limit


class TestVersion:
    def test_prints_version(self, capsys):
        assert main(["version"]) == 0
        assert "camgeom" in capsys.readouterr().out


class TestAugmentCommand:
    def test_three_sample_manifest(self, workspace):
        out = workspace / "out"
        code = main(["augment", "--manifest", str(workspace / "manifest.jsonl"),
                     "--out", str(out), "--seed", "5"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["n_ok"] == 3
        assert len([t for t in report["transforms"] if t]) == 3
        lines = (out / "transforms.jsonl").read_text().splitlines()
        assert len(lines) == 3
        assert (out / "img0.ppm").exists()
        assert (out / "img0.intrinsics.json").exists()
        assert (out / "config.resolved.json").exists()

    def test_unreadable_sample_is_isolated(self, workspace):
        manifest = workspace / "broken.jsonl"
        lines = (workspace / "manifest.jsonl").read_text().splitlines()
        lines.insert(1, json.dumps({"id": "gone", "image": "missing.ppm", "intrinsics": "k.json"}))
        manifest.write_text("\n".join(lines) + "\n")
        out = workspace / "out2"
        code = main(["augment", "--manifest", str(manifest), "--out", str(out)])
        assert code == 0  # isolation contract
        report = json.loads((out / "report.json").read_text())
        assert report["n_ok"] == 3
        assert report["load_failures"][0][1] == "gone"
        assert not (out / "gone.ppm").exists()

    def test_repeated_seed_is_byte_identical(self, workspace):
        outs = []
        for name in ("a", "b"):
            out = workspace / name
            main(["augment", "--manifest", str(workspace / "manifest.jsonl"),
                  "--out", str(out), "--seed", "99"])
            # report.json carries wall-clock timing, everything else is stable
            outs.append({
                p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "report.json"
            })
        assert outs[0] == outs[1]

    def test_worker_count_does_not_change_sample_bytes(self, workspace):
        outs = []
        for name, workers in (("w1", "1"), ("w8", "8")):
            out = workspace / name
            main(["augment", "--manifest", str(workspace / "manifest.jsonl"),
                  "--out", str(out), "--seed", "99", "--workers", workers])
            # config echo records the worker count; sample outputs must not
            outs.append({
                p.name: p.read_bytes()
                for p in sorted(out.iterdir())
                if p.name not in ("report.json", "config.resolved.json")
            })
        assert outs[0] == outs[1]

    def test_load_failure_keeps_later_samples_at_their_index(self, workspace):
        # each sample is seeded from its manifest index, so entry 0 failing to
        # load must change nothing for the entries after it
        write_ppm(workspace / "img3.ppm", np.random.default_rng(8).integers(0, 256, (48, 64, 3), dtype=np.uint8))
        write_depth(workspace / "small.cgem", DepthMap.from_array(np.ones((5, 5))))
        entries = [{"id": f"img{i}", "image": f"img{i}.ppm", "intrinsics": "k.json"} for i in range(4)]
        entries[2]["depth"] = "small.cgem"  # loads, then fails in augment on the extent mismatch
        runs = {}
        for name, image0 in (("clean", "img0.ppm"), ("gap", "missing.ppm")):
            entries[0]["image"] = image0
            (workspace / f"{name}.jsonl").write_text("".join(json.dumps(e) + "\n" for e in entries))
            runs[name] = workspace / name
            assert main(["augment", "--manifest", str(workspace / f"{name}.jsonl"),
                         "--out", str(runs[name]), "--seed", "5"]) == 0
        clean, gap = (json.loads((runs[name] / "report.json").read_text()) for name in ("clean", "gap"))
        assert [f[:2] for f in clean["failures"]] == [f[:2] for f in gap["failures"]] == [[2, "img2"]]
        assert [f[:2] for f in gap["load_failures"]] == [[0, "img0"]]
        assert gap["transforms"] == [None] + clean["transforms"][1:]
        lines = {name: (out / "transforms.jsonl").read_text().splitlines() for name, out in runs.items()}
        assert lines["gap"] == lines["clean"][1:]
        for name in ("img1.ppm", "img1.intrinsics.json", "img3.ppm", "img3.intrinsics.json"):
            assert (runs["gap"] / name).read_bytes() == (runs["clean"] / name).read_bytes()

    @pytest.mark.parametrize("sidecar", sorted(BAD_SIDECARS.values()))
    def test_depth_sidecar_that_is_not_an_object_is_a_load_failure(self, workspace, sidecar):
        (workspace / "bad.cgem").write_bytes((workspace / "depth.cgem").read_bytes())
        sidecar_path(workspace / "bad.cgem").write_text(sidecar)
        entries = [{"id": f"img{i}", "image": f"img{i}.ppm", "intrinsics": "k.json"} for i in range(3)]
        entries[1]["depth"] = "bad.cgem"
        (workspace / "m.jsonl").write_text("".join(json.dumps(e) + "\n" for e in entries))
        out = workspace / "out"
        assert main(["augment", "--manifest", str(workspace / "m.jsonl"), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["n_ok"] == 2
        assert [f[:2] for f in report["load_failures"]] == [[1, "img1"]]
        assert report["load_failures"][0][2].startswith("MalformedFile: ")

    def test_depth_sidecar_that_is_not_json_is_a_load_failure_naming_it(self, workspace):
        for case, sidecar in enumerate(["{nope", LONG_INT]):
            entries = [{"id": f"img{i}", "image": f"img{i}.ppm", "intrinsics": "k.json"} for i in range(3)]
            entries[1]["depth"] = _depth_with_sidecar(workspace, sidecar)
            (workspace / "m.jsonl").write_text("".join(json.dumps(e) + "\n" for e in entries))
            out = workspace / f"out{case}"
            assert main(["augment", "--manifest", str(workspace / "m.jsonl"), "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            assert report["n_ok"] == 2
            assert [f[:2] for f in report["load_failures"]] == [[1, "img1"]]
            named = f"MalformedFile: {workspace / 'bad.cgem.json'}: invalid JSON"
            assert report["load_failures"][0][2].startswith(named)

    def test_write_failure_is_a_failure_record(self, workspace):
        # the id passes the file-name check, but its output name is longer than any file system allows
        long_id = "x" * 300
        entries = [{"id": f"img{i}", "image": f"img{i}.ppm", "intrinsics": "k.json"} for i in range(3)]
        entries.insert(1, {"id": long_id, "image": "img1.ppm", "intrinsics": "k.json", "depth": "depth.cgem"})
        (workspace / "m.jsonl").write_text("".join(json.dumps(e) + "\n" for e in entries))
        out = workspace / "out"
        assert main(["augment", "--manifest", str(workspace / "m.jsonl"), "--out", str(out), "--seed", "2"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert (report["n_ok"], report["n_failed"], report["load_failures"]) == (3, 1, [])
        assert report["failures"] == [
            [1, long_id, f"OSError: [Errno 36] File name too long: '{out / long_id}.ppm'"]]
        assert report["transforms"][1] is None
        assert sorted(p.name for p in out.iterdir()) == [  # no temporary file is left behind
            "config.resolved.json", "img0.intrinsics.json", "img0.ppm", "img1.intrinsics.json", "img1.ppm",
            "img2.intrinsics.json", "img2.ppm", "report.json", "transforms.jsonl"]
        lines = [json.loads(line) for line in (out / "transforms.jsonl").read_text().splitlines()]
        assert [(line["id"], line["index"]) for line in lines] == [("img0", 0), ("img1", 2), ("img2", 3)]

    def test_every_file_is_byte_identical_at_one_and_eight_workers(self, workspace):
        # a load failure, an augment failure and a repeated id among samples with depth and boxes
        (workspace / "boxes.json").write_text(GT)
        write_depth(workspace / "small.cgem", DepthMap.from_array(np.ones((5, 5))))
        entries = []
        for i in range(12):
            entry = {"id": f"s{i:02d}", "image": f"img{i % 3}.ppm", "intrinsics": "k.json"}
            if i % 2:
                entry.update(depth="depth.cgem", boxes="boxes.json")
            entries.append(entry)
        entries[4]["image"] = "missing.ppm"
        entries[7]["depth"] = "small.cgem"
        entries[9]["id"] = "s01"
        (workspace / "m.jsonl").write_text("".join(json.dumps(e) + "\n" for e in entries))
        files = {}
        for workers in ("1", "8"):
            out = workspace / f"w{workers}"
            assert main(["augment", "--manifest", str(workspace / "m.jsonl"), "--out", str(out),
                         "--seed", "11", "--workers", workers]) == 0
            report = json.loads((out / "report.json").read_text())
            del report["elapsed_s"], report["samples_per_s"]  # wall-clock timing
            files[workers] = {p.name: p.read_bytes() for p in out.iterdir()
                              if p.name not in ("config.resolved.json", "report.json")}
            files[workers]["report.json"] = report
        assert files["1"] == files["8"]
        report = files["8"]["report.json"]
        assert [f[:2] for f in report["load_failures"]] == [[4, "s04"], [9, "s01"]]
        assert [f[:2] for f in report["failures"]] == [[7, "s07"]]
        assert report["n_ok"] == 9 and len(files["8"]) == 5 * 2 + 4 * 5 + 2  # 4 ok samples with depth and boxes

    def test_failure_records_are_sorted_by_index(self, workspace):
        write_depth(workspace / "small.cgem", DepthMap.from_array(np.ones((5, 5))))
        entries = [{"id": f"s{i:02d}", "image": "img0.ppm", "intrinsics": "k.json"} for i in range(16)]
        for i in (1, 6, 7, 12):
            entries[i]["image"] = "missing.ppm"
        for i in (3, 8, 9, 15):
            entries[i]["depth"] = "small.cgem"
        (workspace / "m.jsonl").write_text("".join(json.dumps(e) + "\n" for e in entries))
        out = workspace / "out"
        assert main(["augment", "--manifest", str(workspace / "m.jsonl"), "--out", str(out), "--workers", "8"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert [f[0] for f in report["load_failures"]] == [1, 6, 7, 12]
        assert [f[0] for f in report["failures"]] == [3, 8, 9, 15]

    def test_depth_and_boxes_travel_through(self, workspace):
        (workspace / "boxes.json").write_text(GT)
        manifest = workspace / "full.jsonl"
        manifest.write_text(json.dumps({
            "id": "img0", "image": "img0.ppm", "intrinsics": "k.json",
            "depth": "depth.cgem", "boxes": "boxes.json",
        }) + "\n")
        out = workspace / "out3"
        assert main(["augment", "--manifest", str(manifest), "--out", str(out)]) == 0
        assert (out / "img0.depth.cgem").exists()
        # ground-truth invariance: annotation bytes unchanged
        assert (out / "img0.boxes.json").read_text() == GT


class TestManifestIds:
    """Ids name the output files and paths the input files: an entry that breaks either is a load failure."""

    def _run(self, workspace, extra):
        lines = (workspace / "manifest.jsonl").read_text().splitlines()
        (workspace / "m.jsonl").write_text("\n".join(lines + [json.dumps(e) for e in extra]) + "\n")
        out = workspace / "sub" / "out"
        before = {p for p in workspace.rglob("*")}
        assert main(["augment", "--manifest", str(workspace / "m.jsonl"), "--out", str(out)]) == 0
        written = {p for p in workspace.rglob("*")} - before
        assert all(p == out or p == out.parent or out in p.parents for p in written), sorted(written)
        return out, json.loads((out / "report.json").read_text())

    @pytest.mark.parametrize("bad_id", ["", ".", "..", "../escaped", "sub/dir", "a\\b", 7])
    def test_id_that_is_not_a_file_name(self, workspace, bad_id):
        out, report = self._run(workspace, [{"id": bad_id, "image": "img0.ppm", "intrinsics": "k.json"}])
        assert report["n_ok"] == 3
        assert [f[:2] for f in report["load_failures"]] == [[3, bad_id]]
        assert len((out / "transforms.jsonl").read_text().splitlines()) == 3

    @pytest.mark.parametrize("field, value", [("image", 5), ("image", None), ("depth", ["d"]),
                                              ("depth", 0), ("boxes", {"b": 1})])
    def test_path_that_is_not_a_string(self, workspace, field, value):
        entry = {"id": "bad", "image": "img0.ppm", "intrinsics": "k.json", field: value}
        out, report = self._run(workspace, [entry, {"id": "after", "image": "img1.ppm", "intrinsics": "k.json"}])
        assert report["n_ok"] == 4
        assert report["load_failures"] == [[3, "bad", f"CamGeomError: {field} {value!r}: must be a path string"]]
        assert (out / "after.ppm").exists()

    def test_repeated_id(self, workspace):
        out, report = self._run(workspace, [{"id": "img1", "image": "img2.ppm", "intrinsics": "k.json"}])
        assert report["n_ok"] == 3
        assert [f[:2] for f in report["load_failures"]] == [[3, "img1"]]
        assert "repeats" in report["load_failures"][0][2]
        records = [json.loads(line) for line in (out / "transforms.jsonl").read_text().splitlines()]
        assert [(r["id"], r["index"]) for r in records] == [("img0", 0), ("img1", 1), ("img2", 2)]


class TestEmbedCommand:
    def test_principal_point_token_zero_pattern(self, tmp_path):
        # 1x1 grid whose patch center is the principal point; f0 = fx
        save_intrinsics(tmp_path / "k.json", Intrinsics(500, 500, 7, 7, 14, 14))
        out = tmp_path / "emb.cgem"
        code = main(["embed", "--intrinsics", str(tmp_path / "k.json"), "--out", str(out),
                     "--patch", "14", "--dim", "16", "--focal-reference", "500"])
        assert code == 0
        data = read_cgem(out)
        np.testing.assert_array_equal(data[0, 0], np.tile([0.0, 1.0], 8).astype(np.float32))
        meta = read_sidecar(out)
        assert meta["channel_layout"] == ["rx", "ry", "log_fx", "log_fy"]

    def test_same_inputs_twice_byte_identical(self, workspace):
        args = ["embed", "--intrinsics", str(workspace / "k.json"), "--patch", "16"]
        a = workspace / "a.cgem"
        b = workspace / "b.cgem"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_scaled_camera_has_byte_equal_ray_channels(self, tmp_path):
        # dyadic scale keeps the float arithmetic bit-identical
        k = Intrinsics(500.0, 500.0, 32.0, 24.0, 64, 48)
        save_intrinsics(tmp_path / "k.json", k)
        save_intrinsics(tmp_path / "k_half.json", Intrinsics(250.0, 250.0, 16.0, 12.0, 32, 24))
        base = tmp_path / "base.cgem"
        half = tmp_path / "half.cgem"
        main(["embed", "--intrinsics", str(tmp_path / "k.json"), "--patch", "14",
              "--dim", "32", "--out", str(base)])
        main(["embed", "--intrinsics", str(tmp_path / "k_half.json"), "--patch", "7",
              "--dim", "32", "--out", str(half)])
        a = read_cgem(base)
        b = read_cgem(half)
        np.testing.assert_array_equal(a[:, :, :16], b[:, :, :16])  # rx | ry blocks

    def test_depth_switches_to_geometric_embedding(self, workspace):
        out = workspace / "geo.cgem"
        code = main(["embed", "--intrinsics", str(workspace / "k.json"),
                     "--depth", str(workspace / "depth.cgem"), "--patch", "16",
                     "--geo-dim", "24", "--out", str(out)])
        assert code == 0
        assert read_cgem(out).shape == (3, 4, 24)
        assert read_sidecar(out)["kind"] == "geometric_prior_embedding"

    @pytest.mark.parametrize("width, height", [(16, 16), (640, 480)])
    def test_depth_grid_covers_the_depth_camera(self, workspace, width, height):
        # --intrinsics names another camera; the grid is sized from the depth sidecar's
        save_intrinsics(workspace / "other.json", Intrinsics(500.0, 500.0, width / 2, height / 2, width, height))
        outs = []
        for name in ("k", "other"):
            out = workspace / f"{name}.cgem"
            assert main(["embed", "--intrinsics", str(workspace / f"{name}.json"), "--patch", "16",
                         "--depth", str(workspace / "depth.cgem"), "--out", str(out)]) == 0
            outs.append((out.read_bytes(), sidecar_path(out).read_bytes()))
        assert outs[0] == outs[1]

    def test_invalid_intrinsics_exit_2(self, tmp_path, capsys):
        (tmp_path / "bad.json").write_text('{"fx": -5, "fy": 1, "cx": 0, "cy": 0, "width": 4, "height": 4}')
        code = main(["embed", "--intrinsics", str(tmp_path / "bad.json"),
                     "--out", str(tmp_path / "x.cgem")])
        assert code == 2
        assert "fx" in capsys.readouterr().err


class TestUnprojectCommand:
    def test_writes_point_cloud(self, workspace):
        out = workspace / "points.cgem"
        assert main(["unproject", "--depth", str(workspace / "depth.cgem"), "--out", str(out)]) == 0
        points = read_cgem(out)
        assert points.shape == (48, 64, 3)
        meta = read_sidecar(out)
        assert meta["frame"] == "camera"
        assert meta["n_valid"] == 48 * 64

    def test_missing_file_exit_1(self, tmp_path):
        assert main(["unproject", "--depth", str(tmp_path / "nope.cgem"),
                     "--out", str(tmp_path / "x.cgem")]) == 1


class TestEvalCommand:
    def test_perfect_predictions(self, tmp_path, capsys):
        (tmp_path / "gt.json").write_text(GT)
        out = tmp_path / "eval"
        code = main(["eval", "--preds", str(tmp_path / "gt.json"),
                     "--truths", str(tmp_path / "gt.json"), "--iou", "0.25", "--out", str(out)])
        assert code == 0
        assert "F1=100.0" in capsys.readouterr().out
        report = json.loads((out / "report.json").read_text())
        assert report["micro"]["f1"] == 100.0
        with (out / "per_class.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "label"
        assert rows[-1][0] == "__micro__"

    def test_transcript_predictions_parse(self, tmp_path):
        transcript = '```json\n[{"label": "chair", "bbox_3d": [0, 0, 2.1, 1, 1, 1, 0, 0, 0]}]\n```'
        (tmp_path / "preds.txt").write_text(transcript)
        (tmp_path / "gt.json").write_text(GT)
        out = tmp_path / "eval"
        code = main(["eval", "--preds", str(tmp_path / "preds.txt"),
                     "--truths", str(tmp_path / "gt.json"), "--out", str(out)])
        assert code == 0

    @pytest.mark.parametrize("size", ["1e-120", "1e120"])
    def test_box_without_a_finite_volume_is_skipped(self, tmp_path, capsys, size):
        # a volume of 0 divided IoU by zero, one of inf gave NaN and never matched
        boxes = GT[:-1] + f', {{"label": "cup", "bbox_3d": [3, 0, 2, {size}, {size}, {size}, 0, 0, 0]}}]'
        (tmp_path / "gt.json").write_text(boxes)
        out = tmp_path / "eval"
        assert main(["eval", "--preds", str(tmp_path / "gt.json"),
                     "--truths", str(tmp_path / "gt.json"), "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert list(report["per_class"]) == ["chair"]
        assert (report["micro"]["n_pred"], report["micro"]["n_truth"], report["micro"]["matched"]) == (1, 1, 1)

    @pytest.mark.parametrize("flags", [[], ["--axis-aligned"]])
    def test_exact_prediction_of_a_box_at_the_volume_limit_matches(self, tmp_path, flags):
        # volume 1e308: two of them overflow a float, which once made the IoU 0
        (tmp_path / "gt.json").write_text(GT.replace("1, 1, 1,", "1e154, 1e154, 1,"))
        out = tmp_path / "eval"
        assert main(["eval", "--preds", str(tmp_path / "gt.json"), "--truths", str(tmp_path / "gt.json"),
                     "--out", str(out), *flags]) == 0
        assert json.loads((out / "report.json").read_text())["micro"]["matched"] == 1

    def test_unparsable_predictions_exit_2(self, tmp_path):
        (tmp_path / "preds.txt").write_text("no boxes here, sorry")
        (tmp_path / "gt.json").write_text(GT)
        code = main(["eval", "--preds", str(tmp_path / "preds.txt"),
                     "--truths", str(tmp_path / "gt.json"), "--out", str(tmp_path / "e")])
        assert code == 2


class TestAmbiguityCommand:
    def test_default_factors_and_laws(self, tmp_path):
        out = tmp_path / "amb"
        code = main(["ambiguity", "--out", str(out), "--n-scenes", "20"])
        assert code == 0
        with (out / "bias.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        factors = sorted({float(r["s"]) for r in rows})
        assert factors == [0.8, 1.0, 1.2]
        agnostic_08 = next(r for r in rows if r["estimator"] == "agnostic" and float(r["s"]) == 0.8)
        assert float(agnostic_08["ratio_mean"]) == pytest.approx(1.25, rel=1e-6)
        for r in rows:
            if r["estimator"] == "aware":
                assert float(r["ratio_mean"]) == pytest.approx(1.0, abs=1e-9)
        summary = (out / "summary.txt").read_text()
        assert summary.splitlines()[0].startswith("Synthetic desk-scale experiment")
        assert (out / "clusters.csv").exists()  # default pool has two clusters

    def test_config_file_and_env_var(self, tmp_path, monkeypatch):
        config = {"ambiguity": {"n_scenes": 10, "resize_factors": [1.0], "camera_pool": [600.0]}}
        (tmp_path / "conf.json").write_text(json.dumps(config))
        monkeypatch.setenv("CAMGEOM_CONFIG", str(tmp_path / "conf.json"))
        out = tmp_path / "amb"
        assert main(["ambiguity", "--out", str(out)]) == 0
        resolved = json.loads((out / "config.resolved.json").read_text())
        assert resolved["ambiguity"]["n_scenes"] == 10
        with (out / "bias.csv").open() as fh:
            assert sorted({r["s"] for r in csv.DictReader(fh)}) == ["1.0"]
        assert not (out / "clusters.csv").exists()  # single cluster

    def test_bad_estimator_exit_2(self, tmp_path):
        (tmp_path / "conf.json").write_text(json.dumps({"ambiguity": {"estimator": "psychic"}}))
        code = main(["ambiguity", "--config", str(tmp_path / "conf.json"),
                     "--out", str(tmp_path / "amb")])
        assert code == 2


# Every default the CLI resolves, written out so a change to any of them shows.
PINNED_DEFAULTS = {
    "seed": 0,
    "workers": 1,
    "embed": {"dim": 256, "base_period": 10000.0, "focal_reference": 1000.0, "patch": 14.0, "origin": "center"},
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
        "camera_pool": [580.0, 1160.0],
    },
}

# (command, argv after the command with every override flag set, config file,
#  resolved values that differ from the defaults).  Each config file sets every
# flag's key to a third value, so the flag must win, plus one key no flag of
# that command sets, so the file must beat the default.
RESOLUTION_CASES = {
    "augment": (
        ["--manifest", "{ws}/manifest.jsonl", "--out", "{ws}/run", "--seed", "11", "--workers", "2",
         "--scale-min", "0.9", "--scale-max", "1.1", "--shift", "0.05", "--mode", "pad"],
        {"seed": 3, "workers": 3, "eval": {"iou": 0.5},
         "augment": {"scale_min": 0.8, "scale_max": 1.2, "shift_fraction": 0.1, "mode": "crop"}},
        {"seed": 11, "workers": 2, "eval": {"iou": 0.5},
         "augment": {"scale_min": 0.9, "scale_max": 1.1, "shift_fraction": 0.05, "mode": "pad"}},
    ),
    "embed": (
        ["--intrinsics", "{ws}/k.json", "--out", "{ws}/run/e.cgem", "--seed", "4", "--patch", "16",
         "--dim", "32", "--base-period", "500", "--focal-reference", "400", "--origin", "corner",
         "--geo-dim", "12", "--geo-period", "50"],
        {"seed": 3, "augment": {"mode": "crop"},
         "embed": {"dim": 64, "base_period": 100.0, "focal_reference": 10.0, "patch": 8.0, "origin": "center"},
         "geo": {"dim": 48, "base_period": 10.0}},
        {"seed": 4, "augment": {"mode": "crop"},
         "embed": {"dim": 32, "base_period": 500.0, "focal_reference": 400.0, "patch": 16.0, "origin": "corner"},
         "geo": {"dim": 12, "base_period": 50.0}},
    ),
    "unproject": (
        ["--depth", "{ws}/depth.cgem", "--out", "{ws}/run/p.cgem", "--seed", "4"],
        {"seed": 3, "workers": 5, "geo": {"dim": 48}},
        {"seed": 4, "workers": 5, "geo": {"dim": 48}},
    ),
    "eval": (
        ["--preds", "{ws}/gt.json", "--truths", "{ws}/gt.json", "--out", "{ws}/run", "--seed", "4",
         "--iou", "0.5", "--axis-aligned", "--rotation-order", "yxz"],
        {"seed": 3, "ambiguity": {"f_mode": "median"},
         "eval": {"iou": 0.1, "axis_aligned": False, "rotation_order": "xyz"}},
        {"seed": 4, "ambiguity": {"f_mode": "median"},
         "eval": {"iou": 0.5, "axis_aligned": True, "rotation_order": "yxz"}},
    ),
    "ambiguity": (
        ["--out", "{ws}/run", "--seed", "4", "--n-scenes", "4", "--factors", "0.5,1.0",
         "--estimator", "aware", "--prior-spread", "0.1"],
        {"seed": 3, "ambiguity": {"n_scenes": 100, "resize_factors": [2.0], "estimator": "agnostic",
                                  "prior_spread": 0.3, "f_mode": "median"}},
        {"seed": 4, "ambiguity": {"n_scenes": 4, "resize_factors": [0.5, 1.0], "estimator": "aware",
                                  "prior_spread": 0.1, "f_mode": "median"}},
    ),
}


class TestConfigResolution:
    @pytest.mark.parametrize("command", sorted(RESOLUTION_CASES))
    def test_flag_beats_file_beats_default(self, workspace, command):
        argv, file_config, changed = RESOLUTION_CASES[command]
        (workspace / "gt.json").write_text(GT)
        (workspace / "conf.json").write_text(json.dumps(file_config))
        argv = [arg.format(ws=workspace) for arg in argv]
        assert main([command, "--config", str(workspace / "conf.json")] + argv) == 0
        expected = json.loads(json.dumps(PINNED_DEFAULTS))
        for key, value in changed.items():
            if isinstance(value, dict):
                expected[key].update(value)
            else:
                expected[key] = value
        text = (workspace / "run" / "config.resolved.json").read_text()
        assert text == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    def test_no_flag_leaks_into_the_next_call(self, workspace):
        # the parser is built once per process and reused by every main() call
        (workspace / "gt.json").write_text(GT)
        ws = str(workspace)
        eval_argv = ["eval", "--preds", f"{ws}/gt.json", "--truths", f"{ws}/gt.json"]
        assert main(eval_argv + ["--out", f"{ws}/v1", "--iou", "0.5", "--axis-aligned",
                                 "--rotation-order", "xyz", "--seed", "3"]) == 0
        assert main(["ambiguity", "--out", f"{ws}/a1", "--n-scenes", "4", "--factors", "0.5,2",
                     "--estimator", "aware", "--prior-spread", "0.1", "--seed", "5"]) == 0
        assert main(eval_argv + ["--out", f"{ws}/v2"]) == 0
        assert main(["ambiguity", "--out", f"{ws}/a2", "--n-scenes", "3"]) == 0
        expected = json.loads(json.dumps(PINNED_DEFAULTS))
        assert (workspace / "v2" / "config.resolved.json").read_text() == _json_text(expected)
        expected["ambiguity"]["n_scenes"] = 3
        assert (workspace / "a2" / "config.resolved.json").read_text() == _json_text(expected)
        assert cli.build_parser() is cli.build_parser()

    def test_float_flag_over_a_file_int(self, workspace):
        (workspace / "conf.json").write_text(json.dumps({"embed": {"patch": 16}}))
        assert main(["embed", "--config", str(workspace / "conf.json"), "--intrinsics", str(workspace / "k.json"),
                     "--out", str(workspace / "run" / "e.cgem"), "--patch", "14"]) == 0
        patch = json.loads((workspace / "run" / "config.resolved.json").read_text())["embed"]["patch"]
        assert patch == 14.0 and type(patch) is float

    def test_factors_flag_over_an_empty_file_list(self, workspace):
        (workspace / "conf.json").write_text(json.dumps({"ambiguity": {"resize_factors": []}}))
        assert main(["ambiguity", "--config", str(workspace / "conf.json"), "--out", str(workspace / "run"),
                     "--n-scenes", "4", "--factors", "1"]) == 0
        echoed = json.loads((workspace / "run" / "config.resolved.json").read_text())
        assert echoed["ambiguity"]["resize_factors"] == [1.0]


# Config files that ended in a traceback, printed more than one line, or whose misspelt key was ignored:
# (command, file contents, the dotted path the error names).
CONFIG_CASES = {
    "augment-not-an-object": ("augment", {"augment": 5}, "augment"),
    "augment-misspelt-key": ("augment", {"augment": {"shift": 0.3}}, "augment.shift"),
    "seed-not-a-number": ("augment", {"seed": "a"}, "seed"),
    "embed-dim-not-a-number": ("embed", {"embed": {"dim": "x"}}, "embed.dim"),
    "eval-iou-not-a-number": ("eval", {"eval": {"iou": "high"}}, "eval.iou"),
    "eval-iou-bool": ("eval", {"eval": {"iou": True}}, "eval.iou"),
    "ambiguity-n-scenes-not-a-number": ("ambiguity", {"ambiguity": {"n_scenes": "ten"}}, "ambiguity.n_scenes"),
    "ambiguity-factor-not-a-number": ("ambiguity", {"ambiguity": {"resize_factors": ["a"]}},
                                      "ambiguity.resize_factors"),
    "embed-focal-reference-past-float": ("embed", {"embed": {"focal_reference": 10**400}}, "embed.focal_reference"),
    "ambiguity-factor-past-float": ("ambiguity", {"ambiguity": {"resize_factors": [-10**400]}},
                                    "ambiguity.resize_factors"),
    "key-with-a-line-break": ("augment", {"augment": {"shift\nfraction": 0.3}}, "augment.shift\\nfraction"),
}
COMMAND_ARGS = {
    "augment": ["--manifest", "{ws}/manifest.jsonl", "--out", "{ws}/run"],
    "embed": ["--intrinsics", "{ws}/k.json", "--out", "{ws}/run/e.cgem"],
    "eval": ["--preds", "{ws}/gt.json", "--truths", "{ws}/gt.json", "--out", "{ws}/run"],
    "ambiguity": ["--out", "{ws}/run"],
}


class TestConfigValidation:
    def _run(self, workspace, command, config):
        (workspace / "gt.json").write_text(GT)
        (workspace / "conf.json").write_text(json.dumps(config))
        argv = [arg.format(ws=workspace) for arg in COMMAND_ARGS[command]]
        return main([command, "--config", str(workspace / "conf.json")] + argv)

    @pytest.mark.parametrize("case", sorted(CONFIG_CASES))
    def test_exit_2_naming_the_key(self, workspace, capsys, case):
        command, config, path = CONFIG_CASES[case]
        assert self._run(workspace, command, config) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"conf.json: {path}: " in err
        assert not (workspace / "run").exists()

    @pytest.mark.parametrize("values, named", [({"objects_per_scene": 0}, "objects_per_scene"),
                                               ({"objects_per_scene": -2}, "objects_per_scene"),
                                               ({"f_mode": "x"}, "mode"),
                                               ({"prior_spread": 2409}, "spread 2409.0 is too wide")])
    def test_bad_ambiguity_value_exit_2(self, workspace, capsys, values, named):
        assert self._run(workspace, "ambiguity", {"ambiguity": {"n_scenes": 4, **values}}) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert named in err

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_exit_2(self, workspace, capsys, workers):
        assert self._run(workspace, "augment", {"workers": workers}) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "workers" in err
        assert not list((workspace / "run").glob("img*"))  # no sample was augmented

    @pytest.mark.parametrize("flags", [["--workers", "0"], ["--workers", "-3"], ["--config", "{ws}/conf.json"]])
    def test_workers_below_one_exit_2_before_reading_or_writing(self, workspace, capsys, flags):
        (workspace / "conf.json").write_text(json.dumps({"workers": 0}))
        out = workspace / "run"
        for manifest in ("manifest.jsonl", "missing.jsonl"):  # the manifest is not read either
            argv = ["augment", "--manifest", str(workspace / manifest), "--out", str(out)]
            assert main(argv + [flag.format(ws=workspace) for flag in flags]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: workers must be >= 1") and err.count("\n") == 1, err
            assert not out.exists()

    def test_int_for_float_and_intrinsics_in_the_pool(self, workspace):
        pool = [600, {"fx": 700, "fy": 700, "cx": 320, "cy": 240, "width": 640, "height": 480}]
        config = {"ambiguity": {"n_scenes": 4, "prior_spread": 0, "camera_pool": pool}}
        assert self._run(workspace, "ambiguity", config) == 0


def _bad_magic(ws):
    (ws / "bad.cgem").write_bytes(b"NOPE" + bytes(12))
    return ["unproject", "--depth", str(ws / "bad.cgem"), "--intrinsics", str(ws / "k.json"),
            "--out", str(ws / "p.cgem")]


def _eval_flat_boxes(ws, *flags):
    (ws / "flat.json").write_text(GT)  # zero angles: no pair reaches the rotation
    return ["eval", "--preds", str(ws / "flat.json"), "--truths", str(ws / "flat.json"),
            "--out", str(ws / "o"), *flags]


def _deeply_nested_transcript(ws):
    (ws / "deep.txt").write_text("[" * 100_000)
    return ["eval", "--preds", str(ws / "deep.txt"), "--truths", str(ws / "gt.json"), "--out", str(ws / "o")]


NOT_UTF8 = b"{\xff}"


def _not_utf8(ws, name):
    (ws / name).write_bytes(NOT_UTF8)
    return str(ws / name)


def _eval_not_utf8(ws, flag):
    argv = ["eval", "--preds", str(ws / "gt.json"), "--truths", str(ws / "gt.json"), "--out", str(ws / "o")]
    if flag == "--classes":
        return argv + ["--classes", _not_utf8(ws, "classes.txt")]
    argv[argv.index(flag) + 1] = _not_utf8(ws, "bad.json")
    return argv


DEEP = "[" * 100_000  # nesting too deep for the JSON decoder


def _not_json(ws, name, text="{nope"):
    (ws / name).write_text(text)
    return str(ws / name)


def _depth_with_sidecar(ws, text):
    """A copy of the workspace depth map whose sidecar is ``text``."""
    (ws / "bad.cgem").write_bytes((ws / "depth.cgem").read_bytes())
    sidecar_path(ws / "bad.cgem").write_text(text)
    return str(ws / "bad.cgem")


# argv reaching a validation error; True where the error is a CamGeomError
VALIDATION_CASES = {
    "cgem-bad-magic": (_bad_magic, True),
    "embed-rows-0": (lambda ws: ["embed", "--intrinsics", str(ws / "k.json"), "--out", str(ws / "e.cgem"),
                                 "--rows", "0", "--cols", "4"], True),
    "embed-rows-without-cols": (lambda ws: ["embed", "--intrinsics", str(ws / "k.json"), "--out", str(ws / "e.cgem"),
                                            "--rows", "2"], True),
    "embed-cols-without-rows": (lambda ws: ["embed", "--intrinsics", str(ws / "k.json"), "--out", str(ws / "e.cgem"),
                                            "--cols", "2"], True),
    "embed-patch-0.5": (lambda ws: ["embed", "--intrinsics", str(ws / "k.json"), "--out", str(ws / "e.cgem"),
                                    "--patch", "0.5"], True),
    "embed-patch-0": (lambda ws: ["embed", "--intrinsics", str(ws / "k.json"), "--out", str(ws / "e.cgem"),
                                  "--patch", "0"], True),
    "ambiguity-n-scenes-0": (lambda ws: ["ambiguity", "--out", str(ws / "a"), "--n-scenes", "0"], True),
    "ambiguity-factor-not-a-number": (lambda ws: ["ambiguity", "--out", str(ws / "a"),
                                                  "--factors", "0.8,x"], False),
    "ambiguity-seed-negative": (lambda ws: ["ambiguity", "--out", str(ws / "a"), "--seed", "-1"], True),
    "embed-focal-reference-0": (lambda ws: ["embed", "--intrinsics", str(ws / "k.json"),
                                            "--out", str(ws / "e.cgem"), "--focal-reference", "0"], True),
    "embed-base-period-0": (lambda ws: ["embed", "--intrinsics", str(ws / "k.json"),
                                        "--out", str(ws / "e.cgem"), "--base-period", "0"], True),
    "augment-shift-above-half": (lambda ws: ["augment", "--manifest", str(ws / "manifest.jsonl"),
                                             "--out", str(ws / "o"), "--shift", "0.6"], True),
    "augment-workers-0": (lambda ws: ["augment", "--manifest", str(ws / "manifest.jsonl"),
                                      "--out", str(ws / "o"), "--workers", "0"], True),
    "augment-workers-negative": (lambda ws: ["augment", "--manifest", str(ws / "manifest.jsonl"),
                                             "--out", str(ws / "o"), "--workers", "-3"], True),
    "eval-rotation-order": (lambda ws: ["eval", "--preds", str(ws / "gt.json"), "--truths", str(ws / "gt.json"),
                                        "--out", str(ws / "o"), "--rotation-order", "abc"], True),
    "eval-rotation-order-flat-boxes": (lambda ws: _eval_flat_boxes(ws, "--rotation-order", "bogus"), True),
    "eval-rotation-order-axis-aligned": (lambda ws: ["eval", "--preds", str(ws / "gt.json"),
                                                     "--truths", str(ws / "gt.json"), "--out", str(ws / "o"),
                                                     "--axis-aligned", "--rotation-order", "bogus"], True),
    "eval-deeply-nested-transcript": (_deeply_nested_transcript, True),
    "ambiguity-prior-spread-nan": (lambda ws: ["ambiguity", "--out", str(ws / "a"), "--prior-spread", "nan"], True),
    "ambiguity-prior-spread-negative": (lambda ws: ["ambiguity", "--out", str(ws / "a"),
                                                    "--prior-spread", "-1"], True),
    "embed-depth-grid-exceeds-image": (lambda ws: ["embed", "--intrinsics", str(ws / "k.json"),
                                                   "--depth", str(ws / "depth.cgem"), "--out", str(ws / "e.cgem"),
                                                   "--rows", "40", "--cols", "40", "--patch", "8"], True),
    "embed-grid-exceeds-image": (lambda ws: ["embed", "--intrinsics", str(ws / "k.json"), "--out", str(ws / "e.cgem"),
                                             "--rows", "40", "--cols", "40", "--patch", "8"], True),
    "config-not-utf8": (lambda ws: ["ambiguity", "--out", str(ws / "a"),
                                    "--config", _not_utf8(ws, "conf.json")], True),
    "manifest-not-utf8": (lambda ws: ["augment", "--manifest", _not_utf8(ws, "m.jsonl"), "--out", str(ws / "o")], True),
    "intrinsics-not-utf8": (lambda ws: ["embed", "--intrinsics", _not_utf8(ws, "bad_k.json"),
                                        "--out", str(ws / "e.cgem")], True),
    "eval-preds-not-utf8": (lambda ws: _eval_not_utf8(ws, "--preds"), True),
    "eval-truths-not-utf8": (lambda ws: _eval_not_utf8(ws, "--truths"), True),
    "eval-classes-not-utf8": (lambda ws: _eval_not_utf8(ws, "--classes"), True),
    "config-deeply-nested": (lambda ws: ["ambiguity", "--out", str(ws / "a"),
                                         "--config", _not_json(ws, "conf.json", DEEP)], True),
    "manifest-deeply-nested": (lambda ws: ["augment", "--manifest", _not_json(ws, "m.jsonl", DEEP),
                                           "--out", str(ws / "o")], True),
    "intrinsics-deeply-nested": (lambda ws: ["embed", "--intrinsics", _not_json(ws, "bad_k.json", DEEP),
                                             "--out", str(ws / "e.cgem")], True),
    "unproject-sidecar-deeply-nested": (lambda ws: ["unproject", "--depth", _depth_with_sidecar(ws, DEEP),
                                                    "--out", str(ws / "p.cgem")], True),
    "config-long-integer": (lambda ws: ["ambiguity", "--out", str(ws / "a"),
                                        "--config", _not_json(ws, "conf.json", LONG_INT)], True),
    "manifest-long-integer": (lambda ws: ["augment", "--manifest", _not_json(ws, "m.jsonl", LONG_INT),
                                          "--out", str(ws / "o")], True),
    "intrinsics-long-integer": (lambda ws: ["embed", "--intrinsics", _not_json(ws, "bad_k.json", LONG_INT),
                                            "--out", str(ws / "e.cgem")], True),
    "unproject-sidecar-long-integer": (lambda ws: ["unproject", "--depth", _depth_with_sidecar(ws, LONG_INT),
                                                   "--out", str(ws / "p.cgem")], True),
    "embed-depth-sidecar-long-integer": (lambda ws: ["embed", "--intrinsics", str(ws / "k.json"),
                                                     "--depth", _depth_with_sidecar(ws, LONG_INT),
                                                     "--out", str(ws / "e.cgem")], True),
    "config-not-json": (lambda ws: ["ambiguity", "--out", str(ws / "a"), "--config", _not_json(ws, "conf.json")],
                        True),
    "unproject-sidecar-not-json": (lambda ws: ["unproject", "--depth", _depth_with_sidecar(ws, "{nope"),
                                               "--out", str(ws / "p.cgem")], True),
    "embed-depth-sidecar-not-json": (lambda ws: ["embed", "--intrinsics", str(ws / "k.json"),
                                                 "--depth", _depth_with_sidecar(ws, "{nope"),
                                                 "--out", str(ws / "e.cgem")], True),
    **{f"unproject-sidecar-{name}": (lambda ws, text=text: ["unproject", "--depth", _depth_with_sidecar(ws, text),
                                                            "--out", str(ws / "p.cgem")], True)
       for name, text in BAD_SIDECARS.items()},
    **{f"embed-depth-sidecar-{name}": (lambda ws, text=text: [
        "embed", "--intrinsics", str(ws / "k.json"), "--depth", _depth_with_sidecar(ws, text),
        "--out", str(ws / "e.cgem")], True) for name, text in BAD_SIDECARS.items()},
}


class TestValidationExits:
    @pytest.mark.parametrize("case", sorted(VALIDATION_CASES))
    def test_exit_2_without_traceback(self, workspace, capsys, case):
        build, camgeom_error = VALIDATION_CASES[case]
        (workspace / "gt.json").write_text(GT.replace("0, 0, 0]", "0.3, 0, 0]"))  # rotated: needs the order
        try:
            code = main(build(workspace))
        except SystemExit as exc:  # argparse rejects the flag itself
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        if camgeom_error:
            assert err.startswith("error: ") and err.count("\n") == 1, err


    @pytest.mark.parametrize("case, named", [("config-not-json", "conf.json"), ("config-long-integer", "conf.json"),
                                             ("unproject-sidecar-not-json", "bad.cgem.json"),
                                             ("embed-depth-sidecar-not-json", "bad.cgem.json")])
    def test_malformed_json_names_its_file(self, workspace, capsys, case, named):
        assert main(VALIDATION_CASES[case][0](workspace)) == 2
        assert capsys.readouterr().err.startswith(f"error: {workspace / named}: invalid JSON (")


K_DICT = {"fx": 500.0, "fy": 500.0, "cx": 32.0, "cy": 24.0, "width": 64, "height": 48}


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class TestPinnedOutputs:
    """The exact bytes of the files the CLI assembles itself."""

    def test_ray_embedding_sidecar(self, workspace):
        out = workspace / "ray.cgem"
        assert main(["embed", "--intrinsics", str(workspace / "k.json"), "--out", str(out),
                     "--patch", "16", "--dim", "16"]) == 0
        assert sidecar_path(out).read_text() == _json_text({
            "kind": "camera_ray_embedding",
            "channel_layout": ["rx", "ry", "log_fx", "log_fy"],
            "dims_per_channel": 4,
            "base_period": 10000.0,
            "focal_reference": 1000.0,
            "intrinsics": K_DICT,
            "token_grid": {"rows": 3, "cols": 4, "patch": 16.0, "origin": "center"},
        })

    def test_geometric_embedding_sidecar_records_the_depth_camera(self, workspace):
        save_intrinsics(workspace / "k2.json", Intrinsics(400.0, 400.0, 32.0, 24.0, 64, 48))
        out = workspace / "geo.cgem"
        assert main(["embed", "--intrinsics", str(workspace / "k2.json"), "--depth", str(workspace / "depth.cgem"),
                     "--out", str(out), "--patch", "16", "--geo-dim", "24", "--origin", "corner"]) == 0
        assert sidecar_path(out).read_text() == _json_text({
            "kind": "geometric_prior_embedding",
            "channel_layout": ["x", "y", "z"],
            "dims_per_channel": 8,
            "base_period": 100.0,
            "pooling": "token-center ray x nearest patch-center depth",
            "intrinsics": K_DICT,  # the depth sidecar's camera, not --intrinsics
            "token_grid": {"rows": 3, "cols": 4, "patch": 16.0, "origin": "center"},  # pooled at patch centers
        })

    def test_per_class_csv(self, tmp_path):
        (tmp_path / "gt.json").write_text(GT)
        out = tmp_path / "eval"
        assert main(["eval", "--preds", str(tmp_path / "gt.json"), "--truths", str(tmp_path / "gt.json"),
                     "--iou", "0.25", "--out", str(out)]) == 0
        assert (out / "per_class.csv").read_bytes() == (
            b"label,precision,recall,f1,matched,n_pred,n_truth\r\n"
            b"chair,100.0000,100.0000,100.0000,1,1,1\r\n"
            b"__micro__,100.0000,100.0000,100.0000,1,1,1\r\n"
        )

    def test_ambiguity_tables_and_summary(self, tmp_path, capsys):
        out = tmp_path / "amb"
        assert main(["ambiguity", "--out", str(out), "--n-scenes", "4"]) == 0
        assert (out / "bias.csv").read_bytes() == (
            b"s,estimator,ratio_mean,ratio_std,depth_error_mean,f1\r\n"
            b"0.8,agnostic,1.25,6.66134e-17,0.25,20.0000\r\n"
            b"1.0,agnostic,1,3.33067e-17,1.3466e-17,100.0000\r\n"
            b"1.2,agnostic,0.833333333333,5.97873e-17,0.166667,40.0000\r\n"
            b"0.8,aware,1,0,0,100.0000\r\n"
            b"1.0,aware,1,3.33067e-17,1.3466e-17,100.0000\r\n"
            b"1.2,aware,1,6.66134e-17,1.16993e-17,100.0000\r\n"
        )
        assert (out / "clusters.csv").read_bytes() == (
            b"cluster_focal,estimator,ratio_mean,ratio_std,expected_ratio,n_objects\r\n"
            b"580.0,agnostic,1.5,1.33227e-16,1.5,10\r\n"
            b"1160.0,agnostic,0.75,5.97873e-17,0.75,10\r\n"
            b"580.0,aware,1,3.33067e-17,1,10\r\n"
            b"1160.0,aware,1,8.59975e-17,1,10\r\n"
        )
        summary = (out / "summary.txt").read_bytes().decode()
        assert summary == MECHANISM_CAVEAT + (
            "\n\n4 scenes x 5 objects, pool of 2 cameras, prior spread 0.0\n\n"
            "resize bias (Z_pred/Z_true; single-source pool, f=580 px):\n"
            "  s=0.8   agnostic  ratio=1.250000 (std 6.7e-17) depth_err=0.2500 F1=20.0\n"
            "  s=1     agnostic  ratio=1.000000 (std 3.3e-17) depth_err=0.0000 F1=100.0\n"
            "  s=1.2   agnostic  ratio=0.833333 (std 6e-17) depth_err=0.1667 F1=40.0\n"
            "  s=0.8   aware     ratio=1.000000 (std 0) depth_err=0.0000 F1=100.0\n"
            "  s=1     aware     ratio=1.000000 (std 3.3e-17) depth_err=0.0000 F1=100.0\n"
            "  s=1.2   aware     ratio=1.000000 (std 6.7e-17) depth_err=0.0000 F1=100.0\n\n"
            "mixed-pool conflict (canonical focal 870 px):\n"
            "  cluster f=580    agnostic  ratio=1.500000 expected=1.500000\n"
            "  cluster f=1160   agnostic  ratio=0.750000 expected=0.750000\n"
            "  cluster f=580    aware     ratio=1.000000 expected=1.000000\n"
            "  cluster f=1160   aware     ratio=1.000000 expected=1.000000\n"
        )
        assert capsys.readouterr().out == summary

    def test_augment_mixed_formats_with_a_load_failure(self, workspace):
        write_cgem(workspace / "float0.cgem", np.random.default_rng(3).uniform(0, 1, (48, 64, 3)))
        (workspace / "boxes.json").write_text(GT)
        entries = [
            {"id": "img0", "image": "img0.ppm", "intrinsics": "k.json"},
            {"id": "gone", "image": "missing.ppm", "intrinsics": "k.json"},
            {"id": "float0", "image": "float0.cgem", "intrinsics": K_DICT,
             "depth": "depth.cgem", "boxes": "boxes.json"},
        ]
        (workspace / "m.jsonl").write_text("".join(json.dumps(e) + "\n" for e in entries))
        out = workspace / "out"
        assert main(["augment", "--manifest", str(workspace / "m.jsonl"), "--out", str(out), "--seed", "5"]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "config.resolved.json", "float0.boxes.json", "float0.cgem", "float0.depth.cgem",
            "float0.depth.cgem.json", "float0.intrinsics.json", "img0.intrinsics.json", "img0.ppm",
            "report.json", "transforms.jsonl",
        ]
        assert (out / "transforms.jsonl").read_text() == (
            '{"id": "img0", "index": 0, "transform": {"du": 7.470409306951348, "dv": 0.27883983949017477, '
            '"out_height": 61, "out_width": 81, "sx": 1.263502046621766, "sy": 1.263502046621766}}\n'
            '{"id": "float0", "index": 2, "transform": {"du": -1.2006902840492533, "dv": 1.14049376214538, '
            '"out_height": 42, "out_width": 55, "sx": 0.866404675099762, "sy": 0.866404675099762}}\n'
        )
        report = json.loads((out / "report.json").read_text())
        assert [f[:2] for f in report["load_failures"]] == [[1, "gone"]]

    def test_int_for_float_is_echoed_as_given(self, workspace):
        (workspace / "conf.json").write_text(json.dumps({"embed": {"patch": 16, "base_period": 500}}))
        out = workspace / "run" / "e.cgem"
        assert main(["embed", "--config", str(workspace / "conf.json"), "--intrinsics", str(workspace / "k.json"),
                     "--out", str(out)]) == 0
        expected = json.loads(json.dumps(PINNED_DEFAULTS))
        expected["embed"].update(patch=16, base_period=500)
        text = (workspace / "run" / "config.resolved.json").read_text()
        assert text == _json_text(expected)
        assert '"base_period": 500,\n' in text and '"patch": 16\n' in text

    def test_defaults_survive_every_command(self, workspace):
        (workspace / "gt.json").write_text(GT)
        ws = str(workspace)
        for argv in (
            ["augment", "--manifest", f"{ws}/manifest.jsonl", "--out", f"{ws}/a", "--scale-min", "0.9"],
            ["embed", "--intrinsics", f"{ws}/k.json", "--out", f"{ws}/e/ray.cgem", "--dim", "16"],
            ["embed", "--intrinsics", f"{ws}/k.json", "--depth", f"{ws}/depth.cgem", "--out", f"{ws}/e/geo.cgem"],
            ["unproject", "--depth", f"{ws}/depth.cgem", "--out", f"{ws}/u/p.cgem"],
            ["eval", "--preds", f"{ws}/gt.json", "--truths", f"{ws}/gt.json", "--out", f"{ws}/v", "--iou", "0.5"],
            ["ambiguity", "--out", f"{ws}/amb", "--n-scenes", "4", "--factors", "0.5,2"],
            ["version"],
        ):
            assert main(argv) == 0, argv
        assert json.dumps(cli.DEFAULTS) == json.dumps(PINNED_DEFAULTS)
