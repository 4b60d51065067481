"""Parse 3D-detection transcripts and score them with P/R/F1 at an IoU threshold.

The transcript format is a JSON list of ``{"label": ..., "bbox_3d": [9 floats]}``
objects, typically inside a fenced ```json block.  Both ``bbox_3d`` and
``box_3d`` are accepted as the box key (real transcripts use either).
JSON that does not decode is salvaged as its top-level balanced ``{...}``
spans, a brace inside a JSON string being text and an unclosed last span
skipped with a warning.  Malformed entries are skipped with a warning; only
a transcript with no recoverable JSON at all raises :class:`NoParsableJson`.

Matching is class-wise greedy by descending IoU (ties broken by lower pred
index, then lower truth index), each prediction and truth matched at most
once; pairs of differing attitude whose world AABBs, made in one array pass,
do not meet would score 0 and skip :func:`iou3d`.  The aggregate row
micro-averages over the class filter; a macro average is reported alongside.
"""

from __future__ import annotations

import functools
import logging
import re
from dataclasses import dataclass
from itertools import product
from typing import Iterable

from .boxes import DEFAULT_ROTATION_ORDER, _ORDERS, OrientedBox3, _screen_pairs, aabb_iou, iou3d
from .errors import BadThreshold, CamGeomError, DegenerateBox, InvalidValue, NoParsableJson, _choice, _entries, _json
from .errors import _positive

__all__ = [
    "Detection",
    "ClassScore",
    "EvalReport",
    "normalize_label",
    "parse_detections",
    "f1_score",
    "match_and_score",
    "DEFAULT_IOU_THRESHOLD",
]

logger = logging.getLogger(__name__)

DEFAULT_IOU_THRESHOLD = 0.25
_BOX_KEYS = ("bbox_3d", "box_3d")
_FENCE_RE = re.compile(r"```(?:[A-Za-z0-9_+-]*)(?:\r\n|\r|\n)(.*?)```", re.DOTALL)
_LEXEME_RE = re.compile(r'"(?:[^"\\]|\\.)*(?:"|\\?\Z)|[{}]', re.DOTALL)  # a JSON string (unclosed: to the end), a brace


@dataclass(frozen=True)
class Detection:
    """A labeled oriented box; the label is lowercased and trimmed."""

    label: str
    box: OrientedBox3

    def __post_init__(self):
        label = normalize_label(self.label)
        if not label:
            raise InvalidValue("detection label must be non-empty")
        object.__setattr__(self, "label", label)


def normalize_label(label: str) -> str:
    return str(label).strip().lower()


def _balanced_objects(text: str) -> list[str]:
    """Top-level balanced {...} spans, a brace in a JSON string being text; an unclosed last span runs to the end."""
    spans = []
    depth = 0
    for lexeme in _LEXEME_RE.finditer(text):
        if lexeme.group() == "{":
            if depth == 0:
                start = lexeme.start()
            depth += 1
        elif lexeme.group() == "}" and depth > 0:
            depth -= 1
            if depth == 0:
                spans.append(text[start : lexeme.end()])
    return spans + [text[start:]] if depth > 0 else spans


def parse_detections(text: str) -> list[Detection]:
    """Recover detections from raw model output text.

    Reads each fenced ```json block, or else the whole text, as one JSON value; a block that does not decode is
    salvaged as its top-level balanced {...} spans, a brace inside a JSON string being text and an unclosed last span
    skipped with a warning.  Malformed entries are skipped with warnings and well-formed siblings kept.  Raises
    NoParsableJson when no JSON value can be decoded anywhere in the text.
    """
    values = []  # each block's JSON value, or else each {...} span's salvaged from it
    for chunk in [m.group(1) for m in _FENCE_RE.finditer(text)] or [text]:
        chunk = chunk.strip()
        try:
            values.append(_json("transcript", chunk, NoParsableJson))
        except NoParsableJson:
            for span in _balanced_objects(chunk):
                try:
                    values.append(_json("transcript", span, NoParsableJson))
                except NoParsableJson:
                    logger.warning("skipping unparsable object: %.80s", span)
    if not values:
        raise NoParsableJson("no JSON payload found in transcript")
    detections = []
    for entry in (item for value in values for item in (value if isinstance(value, list) else [value])):
        if not isinstance(entry, dict):
            logger.warning("skipping non-object entry: %r", entry)
            continue
        label = entry.get("label")
        if not isinstance(label, str) or not normalize_label(label):
            logger.warning("skipping entry without usable label: %r", entry)
            continue
        values = next((entry[key] for key in _BOX_KEYS if key in entry), None)
        try:
            detections.append(Detection(label, OrientedBox3.from_list(values)))
        except DegenerateBox as exc:
            logger.warning("skipping degenerate box for %r: %s", label, exc)
    return detections


@dataclass(frozen=True)
class ClassScore:
    """One score row's counts; precision and recall (percent, 0.0 over a zero denominator) and F1 are read from them."""

    matched: int
    n_pred: int
    n_truth: int

    @property
    def precision(self) -> float:
        return 100.0 * self.matched / self.n_pred if self.n_pred else 0.0

    @property
    def recall(self) -> float:
        return 100.0 * self.matched / self.n_truth if self.n_truth else 0.0

    @property
    def f1(self) -> float:
        return f1_score(self.precision, self.recall)


@dataclass(frozen=True, eq=False)
class EvalReport:
    """Scores at one IoU threshold, per class; the micro and macro aggregates are read from them."""

    threshold: float
    per_class: dict[str, ClassScore]
    matches: tuple[tuple[str, int, int, float], ...] = ()

    @property
    def micro(self) -> ClassScore:  # the summed counts: each kept box has one label in per_class
        scores = self.per_class.values()
        return ClassScore(sum(s.matched for s in scores), sum(s.n_pred for s in scores), sum(s.n_truth for s in scores))

    @property
    def macro(self) -> dict[str, float]:  # each rate averaged over the classes, in per_class order; 0.0 with none
        n = len(self.per_class)
        return {key: sum(getattr(s, key) for s in self.per_class.values()) / n if n else 0.0
                for key in ("precision", "recall", "f1")}

    def to_dict(self) -> dict:
        def row(score: ClassScore) -> dict:
            return {key: getattr(score, key) for key in ("precision", "recall", "f1", "matched", "n_pred", "n_truth")}

        return {"threshold": self.threshold, "micro": row(self.micro), "macro": self.macro,
                "per_class": {label: row(score) for label, score in sorted(self.per_class.items())},
                "matches": [list(m) for m in self.matches]}


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean on the percent scale; 0 when both terms vanish."""
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def match_and_score(
    preds: Iterable[Detection],
    truths: Iterable[Detection],
    threshold: float = DEFAULT_IOU_THRESHOLD,
    classes: Iterable[str] | None = None,
    axis_aligned: bool = False,
    rotation_order: str = DEFAULT_ROTATION_ORDER,
) -> EvalReport:
    """Greedy class-wise matching and P/R/F1 at the given IoU threshold.

    ``preds``, ``truths`` and ``classes`` (None: all) are collections, read once, indexed in read order; InvalidValue
    otherwise (a ``str`` ``classes`` would filter by letters), and for a prediction or truth that is not a Detection.
    """
    preds = _entries("predictions", preds, InvalidValue, Detection)
    truths = _entries("truths", truths, InvalidValue, Detection)
    if _positive("IoU threshold", threshold, BadThreshold) > 1.0:
        raise BadThreshold(f"IoU threshold must be in (0, 1], got {threshold}")
    _choice("rotation order", rotation_order, _ORDERS, CamGeomError)  # also when no pair reaches rotation_matrix
    class_filter = None if classes is None else {normalize_label(c) for c in _entries("classes", classes, InvalidValue)}
    iou = aabb_iou if axis_aligned else functools.partial(iou3d, order=rotation_order)

    # match-pair indices refer to the caller's original lists
    preds = {i: d for i, d in enumerate(preds) if class_filter is None or d.label in class_filter}
    truths = {j: d for j, d in enumerate(truths) if class_filter is None or d.label in class_filter}
    labels = sorted({d.label for d in (*preds.values(), *truths.values())})
    # every pair, unless attitudes differ and one geometry pass drops pairs whose AABBs do not meet (IoU 0)
    screen = None if axis_aligned else _screen_pairs({i: d.box for i, d in preds.items()},
                                                     {j: d.box for j, d in truths.items()}, rotation_order)

    per_class: dict[str, ClassScore] = {}
    matches: list[tuple[str, int, int, float]] = []
    for label in labels:
        pred_idx = [i for i, d in preds.items() if d.label == label]
        truth_idx = [j for j, d in truths.items() if d.label == label]
        candidates = []
        for i, j in product(pred_idx, truth_idx):
            overlap = iou(preds[i].box, truths[j].box) if screen is None or (i, j) in screen else 0.0
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
        per_class[label] = ClassScore(len(used_pred), len(pred_idx), len(truth_idx))
    return EvalReport(threshold, per_class, tuple(matches))
