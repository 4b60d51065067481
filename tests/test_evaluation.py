"""Detection transcript parsing and P/R/F1 scoring."""

import dataclasses
import functools
import itertools
import logging
import math
import random

import numpy as np
import pytest

from camgeom import Detection, OrientedBox3, aabb_iou, iou3d, match_and_score, parse_detections
from camgeom import boxes, evaluation
from camgeom.boxes import _geometry
from camgeom.errors import BadThreshold, InvalidValue, NoParsableJson
from camgeom.evaluation import ClassScore, f1_score

# The kind of transcript a detection-prompted model emits: fenced JSON with
# "bbox_3d" 9-tuples and a truncated continuation marker.
EXAMPLE_TRANSCRIPT = """```json
[
    {"label": "curtain", "bbox_3d": [-0.5, -0.0, 0.7, 0.9, 0.4, 2.0, -2.5, 1.1, -2.9]},
    {"label": "bathtub", "bbox_3d": [-0.3, -0.6, -1.2, 2.6, 0.8, 0.7, -2.0, 1.0, -2.7]},
    ...
]
```"""


def _box_at(x: float, label: str = "chair", size: float = 1.0) -> Detection:
    return Detection(label, OrientedBox3((x, 0, 0), (size, size, size), 0, 0, 0))


class TestParse:
    def test_example_transcript_boxes(self):
        detections = parse_detections(EXAMPLE_TRANSCRIPT)
        assert len(detections) == 2
        assert detections[0].label == "curtain"
        assert detections[0].box.to_list() == [-0.5, -0.0, 0.7, 0.9, 0.4, 2.0, -2.5, 1.1, -2.9]
        assert detections[1].label == "bathtub"
        assert detections[1].box.to_list() == [-0.3, -0.6, -1.2, 2.6, 0.8, 0.7, -2.0, 1.0, -2.7]

    def test_bare_json_without_fence(self):
        detections = parse_detections('[{"label": "Door", "box_3d": [0,0,0,1,1,2,0,0,0]}]')
        assert len(detections) == 1
        assert detections[0].label == "door"  # lowercased

    def test_both_box_keys_accepted(self):
        for key in ("bbox_3d", "box_3d"):
            out = parse_detections('[{"label": "x", "%s": [0,0,0,1,1,1,0,0,0]}]' % key)
            assert len(out) == 1

    def test_empty_list_is_not_an_error(self):
        assert parse_detections("[]") == []
        assert parse_detections("```json\n[]\n```") == []

    def test_fence_read_with_any_line_end(self, caplog):
        # braces in the prose must not be salvaged: only the fenced block is read
        text = 'text {a}\n```json\n[{"label": "cup", "bbox_3d": [0,0,2,1,1,1,0,0,0]}]\n```\nend {b}\n'
        with caplog.at_level(logging.WARNING, logger="camgeom.evaluation"):
            parsed = [parse_detections(text.replace("\n", end)) for end in ("\n", "\r\n", "\r")]
        assert parsed[0] == parsed[1] == parsed[2] and [d.label for d in parsed[0]] == ["cup"]
        assert not caplog.records

    def test_bad_arity_skipped_siblings_kept(self, caplog):
        text = (
            '[{"label": "a", "bbox_3d": [0,0,0,1,1,1,0,0]},'
            ' {"label": "b", "bbox_3d": [0,0,0,1,1,1,0,0,0]}]'
        )
        with caplog.at_level(logging.WARNING, logger="camgeom.evaluation"):
            out = parse_detections(text)
        assert [d.label for d in out] == ["b"]
        assert any("arity" in record.message for record in caplog.records)

    def test_labels_trimmed_and_lowercased(self):
        out = parse_detections('[{"label": "  Trash Can ", "bbox_3d": [0,0,0,1,1,1,0,0,0]}]')
        assert out[0].label == "trash can"

    @pytest.mark.parametrize("size", ["1e-120", "1e120"])
    def test_boxes_without_a_finite_volume_skipped(self, size, caplog):
        text = (
            f'[{{"label": "a", "bbox_3d": [0,0,0,{size},{size},{size},0,0,0]}},'
            ' {"label": "b", "bbox_3d": [0,0,0,1,1,1,0,0,0]}]'
        )
        with caplog.at_level(logging.WARNING, logger="camgeom.evaluation"):
            assert [d.label for d in parse_detections(text)] == ["b"]
        assert any("degenerate" in record.message for record in caplog.records)

    def test_no_json_raises(self):
        with pytest.raises(NoParsableJson):
            parse_detections("I could not find any objects in the scene.")

    def test_degenerate_boxes_skipped(self):
        text = (
            '[{"label": "a", "bbox_3d": [0,0,0,0,1,1,0,0,0]},'
            ' {"label": "b", "bbox_3d": [0,0,0,1,1,1,0,0,0]}]'
        )
        assert [d.label for d in parse_detections(text)] == ["b"]

    @pytest.mark.parametrize("size", ["true", '"1"', "null", "[1]", "1" + "0" * 400])
    def test_boxes_with_an_entry_outside_the_number_rule_skipped(self, size, caplog):
        text = (
            f'[{{"label": "a", "bbox_3d": [0,0,0,{size},1,1,0,0,0]}},'
            ' {"label": "b", "bbox_3d": [0,0,0,1,1,1,0,0,0]}]'
        )
        with caplog.at_level(logging.WARNING, logger="camgeom.evaluation"):
            assert [d.label for d in parse_detections(text)] == ["b"]
        assert any("box size" in record.message for record in caplog.records)

    def test_an_object_given_as_a_box_skipped_naming_it(self, caplog):
        text = '[{"label": "a", "box_3d": {"x": 1}}, {"label": "b", "bbox_3d": [0,0,0,1,1,1,0,0,0]}]'
        with caplog.at_level(logging.WARNING, logger="camgeom.evaluation"):
            assert [d.label for d in parse_detections(text)] == ["b"]
        assert [record.message for record in caplog.records] == [
            "skipping degenerate box for 'a': box list arity: must be a collection, got {'x': 1}"]


def _entry(label: str) -> str:
    return '{"label": "%s", "bbox_3d": [0,0,0,1,1,1,0,0,0]}' % label


# transcripts whose JSON does not decode as a whole -> (labels salvaged, warnings logged)
SALVAGE = {
    "brace-in-string": ("[" + _entry("cup}") + ", " + _entry("{mug") + ",", ["cup}", "{mug"], 0),
    "escaped-quote-before-brace": ("[" + _entry('say \\"}\\" now') + ", " + _entry("mug") + ", ...",
                                   ['say "}" now', "mug"], 0),
    # an unclosed last span is salvaged to the end of the text, and fails with a warning
    "unclosed-string": ("[" + _entry("cup") + ', {"label": "mu}g', ["cup"], 1),
    "backslash-last": ("[" + _entry("cup") + ', {"label": "mug\\', ["cup"], 1),
    "truncated-last-object": ("[" + _entry("cup") + ', {"label": "mug", "bbox_3d": [0, 0', ["cup"], 1),
    # the outer span fails as a whole: the entry nested in it is not salvaged on its own
    "object-in-a-broken-object": ('[{"label": "a", "meta": ' + _entry("b") + ', "bbox_3d": [1, 2}, ' + _entry("c")
                                  + ", ...]", ["c"], 1),
    "stray-close-before-first-open": ("} " + _entry("cup") + " ] }", ["cup"], 0),
    # only the fenced block is salvaged: the prose's braces would log a warning each
    "prose-braces-beside-a-fence": ('see {this} and {"x": 1}\n```json\n[' + _entry("cup") + ",\n...]\n```\nthen {that}",
                                    ["cup"], 0),
    "paper-style-fenced-list": (EXAMPLE_TRANSCRIPT, ["curtain", "bathtub"], 0),
}


@pytest.mark.parametrize("case", sorted(SALVAGE))
def test_salvage(case, caplog):
    text, labels, warnings = SALVAGE[case]
    with caplog.at_level(logging.WARNING, logger="camgeom.evaluation"):
        assert [d.label for d in parse_detections(text)] == labels
    assert len(caplog.records) == warnings, [record.message for record in caplog.records]


class TestF1:
    def test_reference_row_identity(self):
        # 2 * 47.5 * 44.2 / 91.7 = 45.79..., printed as 45.7 at one decimal
        assert f1_score(47.5, 44.2) == pytest.approx(45.7, abs=0.1)

    def test_zero_when_both_zero(self):
        assert f1_score(0.0, 0.0) == 0.0


class TestMatchAndScore:
    def test_perfect_predictions(self):
        truths = [_box_at(0.0), _box_at(5.0, "table")]
        report = match_and_score(list(truths), truths, threshold=0.25)
        assert report.micro.precision == 100.0
        assert report.micro.recall == 100.0
        assert report.micro.f1 == 100.0

    def test_hand_enumerated_counts(self):
        # 3 truths, 2 preds, exactly 1 pair above threshold:
        # P = 1/2 = 50.0, R = 1/3 = 33.3, F1 = 2*50*33.33/83.33 = 40.0
        truths = [_box_at(0.0), _box_at(10.0), _box_at(20.0)]
        preds = [_box_at(0.1), _box_at(40.0)]
        report = match_and_score(preds, truths, threshold=0.25)
        assert report.micro.matched == 1
        assert report.micro.precision == pytest.approx(50.0)
        assert report.micro.recall == pytest.approx(100.0 / 3.0)
        assert report.micro.f1 == pytest.approx(40.0)

    def test_greedy_takes_best_ious_first(self):
        # pred 0 overlaps truth 0 weakly and truth 1 strongly; greedy must
        # give pred 0 -> truth 1, letting pred 1 keep truth 0
        truths = [_box_at(0.0), _box_at(0.6)]
        preds = [_box_at(0.5), _box_at(0.05)]
        report = match_and_score(preds, truths, threshold=0.05)
        assert report.micro.matched == 2
        pairs = {(m[1], m[2]) for m in report.matches}
        assert pairs == {(0, 1), (1, 0)}

    def test_labels_must_agree(self):
        truths = [_box_at(0.0, "chair")]
        preds = [_box_at(0.0, "table")]
        report = match_and_score(preds, truths, threshold=0.25)
        assert report.micro.matched == 0

    def test_each_matched_at_most_once(self):
        truths = [_box_at(0.0)]
        preds = [_box_at(0.01), _box_at(-0.01)]
        report = match_and_score(preds, truths, threshold=0.25)
        assert report.micro.matched == 1
        assert report.micro.precision == 50.0
        assert report.micro.recall == 100.0

    def test_class_filter_and_original_indices(self):
        truths = [_box_at(0.0, "wall"), _box_at(0.0, "chair")]
        preds = [_box_at(5.0, "wall"), _box_at(0.05, "chair")]
        report = match_and_score(preds, truths, threshold=0.25, classes=["chair"])
        assert set(report.per_class) == {"chair"}
        assert report.micro.n_pred == 1 and report.micro.n_truth == 1
        assert report.matches[0][1] == 1 and report.matches[0][2] == 1  # original positions

    def test_one_shot_inputs_give_the_list_report(self):
        preds, truths = _seeded_frame(3)
        report = match_and_score(iter(preds), (d for d in truths), classes=iter(["chair", "lamp"]))
        assert report.to_dict() == match_and_score(preds, truths, classes=["chair", "lamp"]).to_dict()
        assert report.matches  # the frame has matches to lose

    def test_class_filter_given_as_one_string_is_rejected(self):
        with pytest.raises(InvalidValue, match="'chair'"):
            match_and_score([_box_at(0.0)], [_box_at(0.0)], classes="chair")

    def test_micro_vs_macro(self):
        truths = [_box_at(0.0, "a"), _box_at(10.0, "b"), _box_at(20.0, "b")]
        preds = [_box_at(0.0, "a"), _box_at(50.0, "b")]
        report = match_and_score(preds, truths, threshold=0.25)
        # micro: matched 1 of 2 preds / 3 truths
        assert report.micro.precision == 50.0
        assert report.micro.recall == pytest.approx(100.0 / 3.0)
        # macro: a has P=R=100, b has P=R=0
        assert report.macro["precision"] == 50.0
        assert report.macro["recall"] == 50.0

    def test_permutation_invariance_without_ties(self):
        rng = random.Random(99)
        truths = [_box_at(3.0 * i, "obj", size=1.0) for i in range(8)]
        preds = [_box_at(3.0 * i + 0.05 * (i + 1), "obj", size=1.0) for i in range(8)]
        base = match_and_score(preds, truths, threshold=0.1)
        for _ in range(5):
            shuffled_preds = preds[:]
            shuffled_truths = truths[:]
            rng.shuffle(shuffled_preds)
            rng.shuffle(shuffled_truths)
            report = match_and_score(shuffled_preds, shuffled_truths, threshold=0.1)
            assert report.micro == base.micro
            assert sorted(m[3] for m in report.matches) == pytest.approx(
                sorted(m[3] for m in base.matches)
            )

    def test_bad_threshold(self):
        with pytest.raises(BadThreshold):
            match_and_score([], [], threshold=0.0)
        with pytest.raises(BadThreshold):
            match_and_score([], [], threshold=1.5)

    def test_empty_inputs(self):
        report = match_and_score([], [], threshold=0.25)
        assert report.micro.precision == 0.0
        assert report.micro.recall == 0.0
        assert report.micro.f1 == 0.0
        assert report.macro == {"precision": 0.0, "recall": 0.0, "f1": 0.0}

    def test_report_dict_shape(self):
        truths = [_box_at(0.0)]
        report = match_and_score(truths, truths, threshold=0.25)
        data = report.to_dict()
        assert data["threshold"] == 0.25
        assert data["micro"]["f1"] == 100.0
        assert "chair" in data["per_class"]


class TestScoresHoldCounts:
    """A score row is its counts and a report its per-class rows; every rate and aggregate is read from them."""

    def test_rates_are_read_from_the_counts(self):
        score = ClassScore(1, 0, 2)
        assert (score.precision, score.recall, score.f1) == (0.0, 50.0, 0.0)
        assert ClassScore(2, 4, 3).f1 == f1_score(50.0, 200.0 / 3.0)

    @pytest.mark.parametrize("classes", [None, ["chair", "sofa"]])
    @pytest.mark.parametrize("axis_aligned", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_micro_sums_the_per_class_counts(self, seed, axis_aligned, classes):
        preds, truths = _seeded_frame(seed)
        report = match_and_score(preds, truths, threshold=0.25, axis_aligned=axis_aligned, classes=classes)
        scores = report.per_class.values()
        assert report.micro == ClassScore(sum(s.matched for s in scores), sum(s.n_pred for s in scores),
                                          sum(s.n_truth for s in scores))
        kept = [[d for d in side if classes is None or d.label in classes] for side in (preds, truths)]
        assert (report.micro.matched, report.micro.n_pred, report.micro.n_truth) == (
            len(report.matches), *map(len, kept))
        rates = {key: sum(getattr(s, key) for s in scores) / len(scores) for key in ("precision", "recall", "f1")}
        assert report.macro == rates
        data = report.to_dict()
        row_keys = ["precision", "recall", "f1", "matched", "n_pred", "n_truth"]
        assert list(data) == ["threshold", "micro", "macro", "per_class", "matches"]
        assert list(data["micro"]) == row_keys and list(data["macro"]) == row_keys[:3]
        assert all(list(row) == row_keys for row in data["per_class"].values())


ORDERS = ["".join(p) for p in itertools.permutations("xyz")]


def _seeded_frame(seed: int) -> tuple[list[Detection], list[Detection]]:
    """Predictions and truths of three labels on a 3 m grid, so neighbouring bounding boxes meet.

    Jittered true positives and near misses differ in attitude from their truth; one pair shares a
    non-zero attitude and overlaps, one shares it 20 m apart; zero attitudes mix with non-zero ones;
    three identical predictions tie; and rolled boxes' bounding boxes meet an unrotated one's in x,
    two exactly (hi == lo, one on each side), one by 0.02.  Built afresh on each call, so no box
    carries another call's geometry.
    """
    rng = np.random.default_rng(seed)
    preds, truths = [], []
    for c, label in enumerate(("chair", "lamp", "sofa")):
        for t in range(4):
            center = [3.0 * t + rng.uniform(-0.4, 0.4), 3.0 * c + rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3)]
            size = rng.uniform(1.0, 3.0, 3).tolist()
            attitude = [rng.uniform(-math.pi, math.pi), *rng.uniform(-0.4, 0.4, 2)] if t else [0.0, 0.0, 0.0]
            truths.append(Detection(label, OrientedBox3(center, size, *attitude)))
            jitter = rng.uniform(-0.05, 0.05, 3)
            preds.append(Detection(label, OrientedBox3((center + 3 * jitter).tolist(), size, *(attitude + jitter))))
            near = [center[0] + 0.9 * size[0], *center[1:]]
            preds.append(Detection(label, OrientedBox3(near, size, attitude[0] + 0.02, *attitude[1:])))
    same = truths[5].box
    preds += [Detection("lamp", dataclasses.replace(same, center=(same.center[0] + 0.2, *same.center[1:]))),
              Detection("lamp", dataclasses.replace(same, center=(same.center[0] + 20.0, *same.center[1:])))]
    preds += [preds[2]] * 2  # a tie: three identical predictions of one truth
    truths.append(Detection("chair", OrientedBox3((100.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0, 0.0, 0.0)))
    preds += [Detection("chair", OrientedBox3((x, 0.2, 0.0), (1.0, 1.0, 1.0), 0.0, 0.0, 0.3)) for x in (101.0, 99.0)]
    preds.append(Detection("chair", OrientedBox3((100.98, 0.0, 0.2), (1.0, 1.0, 1.0), 0.0, 0.0, 0.1)))  # grazes
    order = rng.permutation(len(preds))
    return [preds[k] for k in order], truths


def _scored_pairs(preds, truths, order) -> int:
    """Same-label pairs that reach iou3d: equal attitudes, or world AABBs that pass the clipper's reject."""
    def meet(a, b):
        (_, lo_a, hi_a), (_, lo_b, hi_b) = _geometry(a, order), _geometry(b, order)
        return all(h > lo for h, lo in zip(hi_a, lo_b)) and all(h > lo for h, lo in zip(hi_b, lo_a))

    return sum(p.label == t.label and (p.box.to_list()[6:] == t.box.to_list()[6:] or meet(p.box, t.box))
               for p in preds for t in truths)


def _brute_force(preds, truths, threshold, order, axis_aligned) -> list[tuple]:
    """Greedy matching with every same-label pair scored, the IoUs as float.hex."""
    score = aabb_iou if axis_aligned else functools.partial(iou3d, order=order)
    matches = []
    for label in sorted({d.label for d in [*preds, *truths]}):
        scored = [(-score(p.box, t.box), i, j) for i, p in enumerate(preds) for j, t in enumerate(truths)
                  if p.label == t.label == label]
        used_pred, used_truth = set(), set()
        for neg_iou, i, j in sorted(c for c in scored if -c[0] >= threshold):
            if i not in used_pred and j not in used_truth:
                used_pred.add(i)
                used_truth.add(j)
                matches.append((label, i, j, (-neg_iou).hex()))
    return matches


class TestBroadPhaseIsExact:
    """Pairs dropped by the per-call AABB block would all have scored 0, so matching is unchanged."""

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("threshold", [1e-12, 0.25])
    def test_matches_equal_a_brute_force_loop(self, monkeypatch, order, threshold):
        calls = []
        monkeypatch.setattr(evaluation, "iou3d", lambda a, b, order: calls.append(1) or iou3d(a, b, order))
        for seed in range(3):
            want = _brute_force(*_seeded_frame(seed), threshold, order, axis_aligned=False)
            preds, truths = _seeded_frame(seed)
            report = match_and_score(preds, truths, threshold=threshold, rotation_order=order)
            assert [(label, i, j, iou.hex()) for label, i, j, iou in report.matches] == want
            assert len(calls) == _scored_pairs(*_seeded_frame(seed), order)
            assert len(calls) < sum(p.label == t.label for p in preds for t in truths), "the block dropped no pair"
            calls.clear()

    def test_frames_hold_bounding_boxes_that_meet_exactly(self):
        preds, truths = _seeded_frame(0)
        right, left = (next(d.box for d in preds if d.box.center[0] == x) for x in (101.0, 99.0))
        (_, lo, hi) = _geometry(truths[-1].box, "zyx")
        assert hi[0] == _geometry(right, "zyx")[1][0] == 100.5 and lo[0] == _geometry(left, "zyx")[2][0] == 99.5
        assert iou3d(right, truths[-1].box) == iou3d(left, truths[-1].box) == 0.0
        assert sum(d.box.to_list()[6:] == [0.0, 0.0, 0.0] for d in truths) == 4  # against rotated predictions

    def test_axis_aligned_scores_every_pair_without_the_pass(self, monkeypatch):
        monkeypatch.setattr(boxes, "_geometry_pass", None)  # calling it would raise
        for seed in range(3):
            want = _brute_force(*_seeded_frame(seed), 0.25, "zyx", axis_aligned=True)
            report = match_and_score(*_seeded_frame(seed), threshold=0.25, axis_aligned=True)
            assert [(label, i, j, iou.hex()) for label, i, j, iou in report.matches] == want

    def test_one_shared_attitude_skips_the_pass(self, monkeypatch):
        monkeypatch.setattr(boxes, "_geometry_pass", None)
        truths = [_box_at(0.0), _box_at(5.0, "table"), _box_at(20.0)]
        preds = [_box_at(0.1), _box_at(5.5, "table"), _box_at(40.0)]
        assert len(match_and_score(preds, truths, threshold=0.25).matches) == 2

    @pytest.mark.parametrize("side", ["preds", "truths"])
    def test_an_empty_side(self, side):
        preds, truths = _seeded_frame(1)
        preds, truths = ([], truths) if side == "preds" else (preds, [])
        report = match_and_score(preds, truths, threshold=0.25)
        assert report.matches == () and report.micro.matched == 0
        assert report.micro.n_pred == len(preds) and report.micro.n_truth == len(truths)
