"""Parse 3D-detection transcripts and score them with P/R/F1 at an IoU threshold.

The transcript format is a JSON list of ``{"label": ..., "bbox_3d": [9 floats]}``
objects, typically inside a fenced ```json block.  Both ``bbox_3d`` and
``box_3d`` are accepted as the box key (real transcripts use either).
Malformed entries are skipped with a warning; only a transcript with no
recoverable JSON at all raises :class:`NoParsableJson`.

Matching is class-wise greedy by descending IoU (ties broken by lower pred
index, then lower truth index), each prediction and truth matched at most
once.  The aggregate row micro-averages over the class filter; a macro
average is reported alongside.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .boxes import OrientedBox3, _check_order, aabb_iou, iou3d
from .errors import BadThreshold, DegenerateBox, NoParsableJson

__all__ = [
    "Detection",
    "ClassScore",
    "EvalReport",
    "normalize_label",
    "parse_detections",
    "f1_score",
    "match_and_score",
]

logger = logging.getLogger(__name__)

_BOX_KEYS = ("bbox_3d", "box_3d")
_FENCE_RE = re.compile(r"```(?:[A-Za-z0-9_+-]*)\n(.*?)```", re.DOTALL)


@dataclass(frozen=True)
class Detection:
    """A labeled oriented box; the label is lowercased and trimmed."""

    label: str
    box: OrientedBox3

    def __post_init__(self):
        label = normalize_label(self.label)
        if not label:
            raise ValueError("detection label must be non-empty")
        object.__setattr__(self, "label", label)


def normalize_label(label: str) -> str:
    return str(label).strip().lower()


def _balanced_objects(text: str) -> list[str]:
    """Extract top-level balanced {...} spans (salvage path for broken JSON)."""
    spans = []
    depth = 0
    start = None
    in_string = False
    escaped = False
    for i, ch in enumerate(text):
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
        elif ch == "{":
            if depth == 0:
                start = i
            depth += 1
        elif ch == "}" and depth > 0:
            depth -= 1
            if depth == 0:
                spans.append(text[start : i + 1])
    return spans


def _decode_candidates(text: str) -> tuple[list, bool]:
    """All JSON entries recoverable from a transcript, plus whether anything parsed."""
    candidates = [m.group(1) for m in _FENCE_RE.finditer(text)] or [text]
    entries: list = []
    parsed_any = False
    for chunk in candidates:
        chunk = chunk.strip()
        if not chunk:
            continue
        # ValueError includes over-long integers, RecursionError too-deep nesting
        try:
            value = json.loads(chunk)
        except (ValueError, RecursionError):
            salvaged = _balanced_objects(chunk)
            for span in salvaged:
                try:
                    entries.append(json.loads(span))
                    parsed_any = True
                except (ValueError, RecursionError):
                    logger.warning("skipping unparsable object: %.80s", span)
            continue
        parsed_any = True
        entries.extend(value if isinstance(value, list) else [value])
    return entries, parsed_any


def parse_detections(text: str) -> list[Detection]:
    """Recover detections from raw model output text.

    Tolerates a fenced ```json block or bare JSON; skips malformed entries
    with warnings and keeps well-formed siblings.  Raises NoParsableJson
    when no JSON value can be decoded anywhere in the text.
    """
    entries, parsed_any = _decode_candidates(text)
    if not parsed_any:
        raise NoParsableJson("no JSON payload found in transcript")
    detections = []
    for entry in entries:
        if not isinstance(entry, dict):
            logger.warning("skipping non-object entry: %r", entry)
            continue
        label = entry.get("label")
        if not isinstance(label, str) or not normalize_label(label):
            logger.warning("skipping entry without usable label: %r", entry)
            continue
        values = next((entry[key] for key in _BOX_KEYS if key in entry), None)
        if not isinstance(values, list) or len(values) != 9:
            logger.warning("skipping entry with bad box arity for %r: %r", label, values)
            continue
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
            logger.warning("skipping entry with non-numeric box for %r", label)
            continue
        try:
            detections.append(Detection(label, OrientedBox3.from_list(values)))
        except (DegenerateBox, OverflowError) as exc:  # OverflowError: an integer beyond float range
            logger.warning("skipping degenerate box for %r: %s", label, exc)
    return detections


@dataclass(frozen=True)
class ClassScore:
    """Precision/recall/F1 in percent plus the underlying counts."""

    precision: float
    recall: float
    f1: float
    matched: int
    n_pred: int
    n_truth: int


@dataclass(frozen=True, eq=False)
class EvalReport:
    """Scores at one IoU threshold: per class, micro and macro aggregates."""

    threshold: float
    per_class: dict[str, ClassScore]
    micro: ClassScore
    macro_precision: float
    macro_recall: float
    macro_f1: float
    matches: tuple[tuple[str, int, int, float], ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "micro": vars(self.micro).copy(),
            "macro": {
                "precision": self.macro_precision,
                "recall": self.macro_recall,
                "f1": self.macro_f1,
            },
            "per_class": {label: vars(score).copy() for label, score in sorted(self.per_class.items())},
            "matches": [list(m) for m in self.matches],
        }


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean on the percent scale; 0 when both terms vanish."""
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _score(matched: int, n_pred: int, n_truth: int) -> ClassScore:
    precision = 100.0 * matched / n_pred if n_pred else 0.0
    recall = 100.0 * matched / n_truth if n_truth else 0.0
    return ClassScore(precision, recall, f1_score(precision, recall), matched, n_pred, n_truth)


def match_and_score(
    preds: Sequence[Detection],
    truths: Sequence[Detection],
    threshold: float = 0.25,
    classes: Iterable[str] | None = None,
    axis_aligned: bool = False,
    rotation_order: str = "zyx",
) -> EvalReport:
    """Greedy class-wise matching and P/R/F1 at the given IoU threshold."""
    if not (0.0 < threshold <= 1.0):
        raise BadThreshold(f"IoU threshold must be in (0, 1], got {threshold}")
    _check_order(rotation_order)  # also when no pair reaches rotation_matrix
    class_filter = None if classes is None else {normalize_label(c) for c in classes}

    def keep(d: Detection) -> bool:
        return class_filter is None or d.label in class_filter

    # match-pair indices refer to the caller's original lists
    preds = {i: d for i, d in enumerate(preds) if keep(d)}
    truths = {j: d for j, d in enumerate(truths) if keep(d)}
    labels = sorted({d.label for d in preds.values()} | {d.label for d in truths.values()})

    per_class: dict[str, ClassScore] = {}
    matches: list[tuple[str, int, int, float]] = []
    total_matched = 0
    for label in labels:
        pred_idx = [i for i, d in preds.items() if d.label == label]
        truth_idx = [j for j, d in truths.items() if d.label == label]
        candidates = []
        for i in pred_idx:
            for j in truth_idx:
                if axis_aligned:
                    overlap = aabb_iou(preds[i].box, truths[j].box)
                else:
                    overlap = iou3d(preds[i].box, truths[j].box, order=rotation_order)
                if overlap >= threshold:
                    candidates.append((-overlap, i, j))
        candidates.sort()
        used_pred: set[int] = set()
        used_truth: set[int] = set()
        for neg_iou, i, j in candidates:
            if i in used_pred or j in used_truth:
                continue
            used_pred.add(i)
            used_truth.add(j)
            matches.append((label, i, j, -neg_iou))
        per_class[label] = _score(len(used_pred), len(pred_idx), len(truth_idx))
        total_matched += len(used_pred)

    micro = _score(total_matched, len(preds), len(truths))
    if per_class:
        macro_p = sum(s.precision for s in per_class.values()) / len(per_class)
        macro_r = sum(s.recall for s in per_class.values()) / len(per_class)
        macro_f = sum(s.f1 for s in per_class.values()) / len(per_class)
    else:
        macro_p = macro_r = macro_f = 0.0
    return EvalReport(threshold, per_class, micro, macro_p, macro_r, macro_f, tuple(matches))
