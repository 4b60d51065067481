"""Spans and counts at camgeom's module boundaries, patched in at runtime.

Nothing here edits camgeom's source.  ``Tracer.install`` replaces each
boundary function with a wrapper in its defining module AND in every module
that imported the name, because a caller looks the name up in its own
module (``camgeom.evaluation.iou3d``, ``camgeom.cli.batch_augment``).  A
site that no longer holds the original function is an error, never a
silent zero.

A span is (id, name, parent id, op, start, end).  Spans stay in memory
until the run ends.  Work on ``batch_augment``'s pool threads takes the open
``batch_augment`` span as its parent.  A layer's self time is its spans'
duration minus the part of each interval that child spans cover.
"""

from __future__ import annotations

import itertools
import logging
import os
import statistics
import threading
import time
from collections import Counter, defaultdict
from importlib import import_module

SPAN, COUNT = "span", "count"

# boundary: (kind, defining module, function, modules that import the name)
BOUNDARIES = {
    "cli.main": (SPAN, "camgeom.cli", "main", ()),
    "fileio.read_cgem": (SPAN, "camgeom.fileio", "read_cgem", ("camgeom.cli",)),
    "fileio.read_ppm": (SPAN, "camgeom.fileio", "read_ppm", ("camgeom.cli",)),
    "fileio.read_depth": (SPAN, "camgeom.fileio", "read_depth", ("camgeom.cli",)),
    "fileio.read_sidecar": (SPAN, "camgeom.fileio", "read_sidecar", ()),
    "fileio.load_intrinsics": (SPAN, "camgeom.fileio", "load_intrinsics", ("camgeom.cli",)),
    "fileio.write_cgem": (SPAN, "camgeom.fileio", "write_cgem", ("camgeom.cli",)),
    "fileio.write_ppm": (SPAN, "camgeom.fileio", "write_ppm", ("camgeom.cli",)),
    "fileio.write_depth": (SPAN, "camgeom.fileio", "write_depth", ("camgeom.cli",)),
    "fileio.write_sidecar": (SPAN, "camgeom.fileio", "write_sidecar", ("camgeom.cli",)),
    "fileio.save_intrinsics": (SPAN, "camgeom.fileio", "save_intrinsics", ("camgeom.cli",)),
    "augment.batch_augment": (SPAN, "camgeom.augment", "batch_augment", ("camgeom.cli",)),
    "augment.augment": (SPAN, "camgeom.augment", "augment", ()),
    "augment.resample": (SPAN, "camgeom.augment", "resample", ()),
    "augment.resample_depth": (SPAN, "camgeom.augment", "resample_depth", ()),
    "transforms.scale": (COUNT, "camgeom.transforms", "scale", ("camgeom.ambiguity",)),
    "transforms.apply_transform": (COUNT, "camgeom.transforms", "apply_transform", ("camgeom.augment",)),
    "camera.projected_height": (COUNT, "camgeom.camera", "projected_height", ("camgeom.ambiguity",)),
    "camera.projected_width": (COUNT, "camgeom.camera", "projected_width", ("camgeom.ambiguity",)),
    "rays.ray_grid": (SPAN, "camgeom.rays", "ray_grid", ("camgeom.cli",)),
    "rays.embed": (SPAN, "camgeom.rays", "embed", ("camgeom.cli",)),
    "depthmap.unproject": (SPAN, "camgeom.depthmap", "unproject", ("camgeom.cli",)),
    "depthmap.token_point_grid": (SPAN, "camgeom.depthmap", "token_point_grid", ("camgeom.cli",)),
    "depthmap.embed_points": (SPAN, "camgeom.depthmap", "embed_points", ("camgeom.cli",)),
    "depthmap.biased_depth_estimate": (COUNT, "camgeom.depthmap", "biased_depth_estimate", ("camgeom.ambiguity",)),
    "depthmap.aware_depth_estimate": (COUNT, "camgeom.depthmap", "aware_depth_estimate", ("camgeom.ambiguity",)),
    "boxes.iou3d": (SPAN, "camgeom.boxes", "iou3d", ("camgeom.evaluation",)),
    "boxes.clipped_intersection_volume": (SPAN, "camgeom.boxes", "clipped_intersection_volume", ()),
    "boxes.rotation_matrix": (COUNT, "camgeom.boxes", "rotation_matrix", ()),
    "evaluation.parse_detections": (SPAN, "camgeom.evaluation", "parse_detections", ("camgeom.cli",)),
    "evaluation.match_and_score": (SPAN, "camgeom.evaluation", "match_and_score",
                                   ("camgeom.cli", "camgeom.ambiguity")),
    "ambiguity.generate_scenes": (SPAN, "camgeom.ambiguity", "generate_scenes", ("camgeom.cli",)),
    "ambiguity.run_bias_experiment": (SPAN, "camgeom.ambiguity", "run_bias_experiment", ("camgeom.cli",)),
    "ambiguity.run_mixed_pool_experiment": (SPAN, "camgeom.ambiguity", "run_mixed_pool_experiment",
                                            ("camgeom.cli",)),
}

FILE_READS = ("fileio.read_cgem", "fileio.read_ppm", "fileio.read_depth", "fileio.read_sidecar",
              "fileio.load_intrinsics")
FILE_WRITES = ("fileio.write_cgem", "fileio.write_ppm", "fileio.write_depth", "fileio.write_sidecar",
               "fileio.save_intrinsics")
IOU_THRESHOLD = 0.25  # the eval default, which every workload uses


def _size(path) -> int:
    return os.path.getsize(path)


# derived counts: boundary -> (args, result) -> {counter: increment}
OBSERVERS = {
    "fileio.read_cgem": lambda a, r: {"fileio.bytes_read": _size(a[0])},
    "fileio.read_ppm": lambda a, r: {"fileio.bytes_read": _size(a[0])},
    "fileio.read_sidecar": lambda a, r: {"fileio.bytes_read": _size(str(a[0]) + ".json")},
    "fileio.load_intrinsics": lambda a, r: {"fileio.bytes_read": _size(a[0])},
    "fileio.write_cgem": lambda a, r: {"fileio.bytes_written": _size(a[0])},
    "fileio.write_ppm": lambda a, r: {"fileio.bytes_written": _size(a[0])},
    "fileio.write_sidecar": lambda a, r: {"fileio.bytes_written": _size(str(a[0]) + ".json")},
    "fileio.save_intrinsics": lambda a, r: {"fileio.bytes_written": _size(a[0])},
    "augment.batch_augment": lambda a, r: {"augment.samples_ok": r[1].n_ok,
                                           "augment.samples_failed": r[1].n_failed},
    "augment.resample": lambda a, r: {"augment.output_px": r.height * r.width},
    "rays.embed": lambda a, r: {"rays.tokens": r.data.shape[0] * r.data.shape[1]},
    "depthmap.unproject": lambda a, r: {"depthmap.pixels": a[0].height * a[0].width},
    "boxes.iou3d": lambda a, r: {"boxes.useful": 1} if r >= IOU_THRESHOLD else {},
    "evaluation.match_and_score": lambda a, r: {"evaluation.matches": len(r.matches)},
    "ambiguity.generate_scenes": lambda a, r: {"ambiguity.objects": sum(len(s.objects) for s in r)},
}

# per-layer metric: (unit, better, how it is derived from one pass)
#   ("self", boundaries)  summed self time;  ("calls", boundaries)  call count;
#   ("count", name)  observed count;  ("ratio", num, den);  ("wait", boundary)
# fileio.calls counts only outermost fileio spans: read_depth calls read_cgem
# and read_sidecar, and one file read should count once however it is split.
LAYER_METRICS = {
    "cli.self_s": ("s", "lower", ("self", ("cli.main",))),
    "cli.calls": ("count", "lower", ("calls", ("cli.main",))),
    "fileio.read_s": ("s", "lower", ("self", FILE_READS)),
    "fileio.write_s": ("s", "lower", ("self", FILE_WRITES)),
    "fileio.bytes_read": ("B", "lower", ("count", "fileio.bytes_read")),
    "fileio.bytes_written": ("B", "lower", ("count", "fileio.bytes_written")),
    "fileio.calls": ("count", "lower", ("count", "fileio.outer_calls")),
    "augment.batch_s": ("s", "lower", ("self", ("augment.batch_augment", "augment.augment"))),
    "augment.resample_s": ("s", "lower", ("self", ("augment.resample",))),
    "augment.resample_depth_s": ("s", "lower", ("self", ("augment.resample_depth",))),
    "augment.output_px": ("px", "higher", ("count", "augment.output_px")),
    "augment.queue_wait_s": ("s", "lower", ("wait", "augment.augment")),
    "augment.samples_ok": ("count", "higher", ("count", "augment.samples_ok")),
    "augment.samples_failed": ("count", "lower", ("count", "augment.samples_failed")),
    "transforms.calls": ("count", "lower", ("calls", ("transforms.scale", "transforms.apply_transform"))),
    "camera.projected_extent_calls": ("count", "lower",
                                      ("calls", ("camera.projected_height", "camera.projected_width"))),
    "rays.ray_grid_s": ("s", "lower", ("self", ("rays.ray_grid",))),
    "rays.embed_s": ("s", "lower", ("self", ("rays.embed",))),
    "rays.tokens": ("count", "higher", ("count", "rays.tokens")),
    "depthmap.unproject_s": ("s", "lower", ("self", ("depthmap.unproject",))),
    "depthmap.token_point_grid_s": ("s", "lower", ("self", ("depthmap.token_point_grid",))),
    "depthmap.embed_points_s": ("s", "lower", ("self", ("depthmap.embed_points",))),
    "depthmap.pixels": ("count", "higher", ("count", "depthmap.pixels")),
    "depthmap.estimator_calls": ("count", "lower",
                                 ("calls", ("depthmap.biased_depth_estimate", "depthmap.aware_depth_estimate"))),
    "boxes.iou3d_s": ("s", "lower", ("self", ("boxes.iou3d",))),
    "boxes.iou3d_calls": ("count", "lower", ("calls", ("boxes.iou3d",))),
    "boxes.clip_s": ("s", "lower", ("self", ("boxes.clipped_intersection_volume",))),
    "boxes.clip_calls": ("count", "lower", ("calls", ("boxes.clipped_intersection_volume",))),
    "boxes.rotation_matrix_calls": ("count", "lower", ("calls", ("boxes.rotation_matrix",))),
    "boxes.useful_ratio": ("ratio", "higher", ("ratio", "boxes.useful", "boxes.iou3d")),
    "evaluation.parse_s": ("s", "lower", ("self", ("evaluation.parse_detections",))),
    "evaluation.match_self_s": ("s", "lower", ("self", ("evaluation.match_and_score",))),
    "evaluation.matches": ("count", "higher", ("count", "evaluation.matches")),
    "evaluation.entries_skipped": ("count", "lower", ("count", "evaluation.entries_skipped")),
    "ambiguity.generate_s": ("s", "lower", ("self", ("ambiguity.generate_scenes",))),
    "ambiguity.bias_self_s": ("s", "lower", ("self", ("ambiguity.run_bias_experiment",))),
    "ambiguity.mixed_pool_s": ("s", "lower", ("self", ("ambiguity.run_mixed_pool_experiment",))),
    "ambiguity.objects": ("count", "higher", ("count", "ambiguity.objects")),
}
TIMED = {name for name, (unit, _, _) in LAYER_METRICS.items() if unit == "s"}


class _SkipCounter(logging.Handler):
    """Counts the transcript entries camgeom.evaluation reports as skipped."""

    def __init__(self, tracer: "Tracer"):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        if record.getMessage().startswith("skipping"):
            self.tracer.events.append((self.tracer.pass_no, "evaluation.entries_skipped", 1))


class Tracer:
    """Records spans and counts for the ops run while it is installed.

    Recording appends to lists or bumps ``itertools.count`` objects, both
    atomic under the interpreter lock, so pool threads need no extra lock.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.events: list[tuple] = []  # (pass, counter, increment) from observers
        self.counts: Counter = Counter()  # (pass, boundary) -> calls of count-only boundaries
        self.pass_no = 0
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pool_parent = None
        self._patched: list[tuple] = []
        self._counters: list[tuple] = []
        self._handler = _SkipCounter(self)

    def _wrap(self, name: str, kind: str, fn):
        if kind == COUNT:
            counter = itertools.count()
            self._counters.append((name, counter))
            bump = counter.__next__

            def counting(*args, **kwargs):
                bump()
                return fn(*args, **kwargs)

            return counting

        observe = OBSERVERS.get(name)
        pool = name == "augment.batch_augment"
        local, spans, events, ids = self._local, self.spans, self.events, self._ids

        def span(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else self._pool_parent
            stack.append(sid)
            if pool:
                self._pool_parent = sid
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if pool:
                    self._pool_parent = None
                spans.append((sid, name, parent, self.op, start, end))
            if observe:
                for counter, value in observe(args, result).items():
                    events.append((self.pass_no, counter, value))
            return result

        return span

    def install(self) -> None:
        for name, (kind, home, attr, importers) in BOUNDARIES.items():
            original = getattr(import_module(home), attr)
            wrapper = self._wrap(name, kind, original)
            wrapper.__wrapped__ = original
            for module in (home, *importers):
                module = import_module(module)
                if getattr(module, attr, None) is not original:
                    self.uninstall()
                    raise RuntimeError(f"patch site {module.__name__}.{attr} no longer holds {home}.{attr}")
                setattr(module, attr, wrapper)
                self._patched.append((module, attr, original))
        logging.getLogger("camgeom.evaluation").addHandler(self._handler)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        for name, counter in self._counters:
            self.counts[self.pass_no, name] += next(counter)
        self._counters.clear()
        logging.getLogger("camgeom.evaluation").removeHandler(self._handler)

    # -- aggregation -------------------------------------------------------

    def _self_times(self) -> list[tuple[tuple, float]]:
        """Each span with its self time."""
        children = defaultdict(list)
        for span in self.spans:
            children[span[2]].append(span)
        return [(span, (span[5] - span[4]) - _covered(children.get(span[0], ()), span[4], span[5]))
                for span in self.spans]

    def pass_metrics(self) -> dict[int, dict[str, float]]:
        """Every per-layer metric for each traced pass; an op is (pass, index in pass)."""
        starts = {span[0]: (span[1], span[4]) for span in self.spans}
        counts = Counter(self.counts)
        for p, counter, value in self.events:
            counts[p, counter] += value
        self_s = Counter()
        wait_s = Counter()
        for (_, name, parent, op, start, _), self_time in self._self_times():
            p = op[0]
            counts[p, name] += 1
            self_s[p, name] += self_time
            caller = starts[parent][0] if parent is not None else ""
            if name.startswith("fileio.") and not caller.startswith("fileio."):
                counts[p, "fileio.outer_calls"] += 1
            if caller == "augment.batch_augment":
                wait_s[p, name] += start - starts[parent][1]
        out = {}
        for p in sorted({p for p, _ in counts}):
            row = {}
            for metric, (_, _, rule) in LAYER_METRICS.items():
                if rule[0] == "self":
                    row[metric] = sum(self_s[p, n] for n in rule[1])
                elif rule[0] == "calls":
                    row[metric] = sum(counts[p, n] for n in rule[1])
                elif rule[0] == "count":
                    row[metric] = counts[p, rule[1]]
                elif rule[0] == "wait":
                    row[metric] = wait_s[p, rule[1]]
                else:
                    den = counts[p, rule[2]]
                    row[metric] = counts[p, rule[1]] / den if den else 0.0
            out[p] = row
        return out

    def boundary_table(self) -> dict[str, dict[str, float]]:
        """Calls per boundary over all traced passes, with total and self seconds for spans."""
        table: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (_, name, _, _, start, end), self_time in self._self_times():
            row = table[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += self_time
        for (_, name), calls in self.counts.items():
            if calls:
                table.setdefault(name, {"calls": 0})["calls"] += calls
        return dict(table)


def _covered(spans, start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the spans' intervals."""
    covered = 0.0
    reach = start
    for span in sorted(spans, key=lambda s: s[4]):
        lo, hi = max(span[4], reach), min(span[5], end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def summarize(per_pass: dict[int, dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each timed metric over passes; counts must repeat exactly."""
    rows = list(per_pass.values())
    out, drift = {}, []
    for metric in LAYER_METRICS:
        values = [row[metric] for row in rows]
        if metric in TIMED:
            out[metric] = statistics.median(values)
        else:
            out[metric] = values[0]
            if any(v != values[0] for v in values):
                drift.append(f"{metric} differs between passes: {values}")
    return out, drift
