"""Detection transcript parsing and P/R/F1 scoring."""

import logging
import random

import pytest

from camgeom import Detection, OrientedBox3, match_and_score, parse_detections
from camgeom.errors import BadThreshold, NoParsableJson
from camgeom.evaluation import f1_score

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

    def test_micro_vs_macro(self):
        truths = [_box_at(0.0, "a"), _box_at(10.0, "b"), _box_at(20.0, "b")]
        preds = [_box_at(0.0, "a"), _box_at(50.0, "b")]
        report = match_and_score(preds, truths, threshold=0.25)
        # micro: matched 1 of 2 preds / 3 truths
        assert report.micro.precision == 50.0
        assert report.micro.recall == pytest.approx(100.0 / 3.0)
        # macro: a has P=R=100, b has P=R=0
        assert report.macro_precision == 50.0
        assert report.macro_recall == 50.0

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

    def test_report_dict_shape(self):
        truths = [_box_at(0.0)]
        report = match_and_score(truths, truths, threshold=0.25)
        data = report.to_dict()
        assert data["threshold"] == 0.25
        assert data["micro"]["f1"] == 100.0
        assert "chair" in data["per_class"]
