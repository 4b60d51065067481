"""The measured process: import camgeom once, then call ``camgeom.cli.main``
back to back in a closed loop (one caller; the only other threads are the
program's own ``--workers`` pool and the pool thread numpy's BLAS starts).

Run as ``python3 bench/harness.py <spec.json> <t0>``; prints one JSON line.
The spec names the checkout's ``src`` directory, the plan from
``workloads.generate``, the seconds to measure and whether to trace; ``t0``
is the parent's ``time.monotonic()`` just before it started this process,
so that set-up time includes interpreter start.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

P95_MIN_OPS = 200  # p95 is reported only with at least 10 samples beyond it


def import_camgeom(src: str):
    """Import camgeom from the given source tree and nowhere else."""
    sys.path.insert(0, src)
    import camgeom.cli

    if not Path(camgeom.cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise ImportError(f"camgeom was imported from {camgeom.cli.__file__}, not from {src}")
    return camgeom.cli


def run_op(cli, op: dict, failures: list[str]) -> tuple[float, float, float]:
    """Run one op and check its outputs.

    Returns the wall and CPU seconds of the call alone, and the wall seconds
    the check took.

    An op fails when it raises, exits non-zero or its outputs fail the
    workload's oracle; each failed op appends one line to ``failures``.
    """
    sink = io.StringIO()
    problem = None
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(op["argv"])
    except SystemExit as exc:  # argparse rejects bad argv this way
        code = exc.code
    except Exception:
        code, problem = None, f"raised {traceback.format_exc(limit=3)}"
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    if problem is None and code != 0:
        problem = f"exited {code}: {sink.getvalue()[-300:]}"
    t1 = time.perf_counter()
    if problem is None:
        try:
            problem = workloads.check(op["check"])
        except (OSError, ValueError, KeyError) as exc:
            problem = f"output unreadable: {exc!r}"
    if problem:
        failures.append(f"{op['argv'][0]}: {problem}")
    return wall, cpu, time.perf_counter() - t1


def run_fresh(cli, op: dict, failures: list[str]) -> tuple[float, float, float]:
    """``run_op`` into an output directory that does not exist yet, as in a new run.

    The directory is removed after its check.  Rewriting the same files in
    place instead would make ext4 flush each one to disk when it is closed
    (its replace-by-truncate heuristic), and the file-heavy workloads would
    time the shared disk and the writes of earlier runs.
    """
    try:
        return run_op(cli, op, failures)
    finally:
        shutil.rmtree(op["out"], ignore_errors=True)


def run(spec: dict) -> dict:
    """Warm up, then run timed passes until ``spec['seconds']`` of op time.

    Returns the set-up time and, per op, its latency and CPU time in every
    untraced pass; ``summarize`` turns the results of one or more processes
    into metrics.  With tracing on, passes alternate traced and untraced, so
    the process gives the per-layer numbers and the tracing overhead.
    """
    plan = spec["plan"]
    cli = import_camgeom(spec["src"])
    attempted, failures, checking = 0, [], 0.0
    for op in plan["warmup"]:
        attempted += 1
        checking += run_fresh(cli, op, failures)[2]
    # set-up ends at the first timed op; the warm-up's output checks are not the program's time
    setup_s = time.monotonic() - spec["t0"] - checking if "t0" in spec else None

    tracer = tracing.Tracer() if spec["trace"] else None
    min_passes = 2 if tracer else 1
    passes = []  # (traced, wall s, cpu s)
    op_wall = [[] for _ in plan["ops"]]  # per op: its untraced latencies, one a pass
    op_cpu = [[] for _ in plan["ops"]]
    traced_wall = [[] for _ in plan["ops"]]
    deadline = time.monotonic() + 3 * spec["seconds"] + 30  # stop however slow the ops are
    measured = 0.0
    while (measured < spec["seconds"] or len(passes) < min_passes) and time.monotonic() < deadline:
        traced = tracer is not None and len(passes) % 2 == 0
        if traced:
            tracer.pass_no = len(passes)
            tracer.install()
        wall = cpu = 0.0
        try:
            for i, op in enumerate(plan["ops"]):
                if traced:
                    tracer.op = (len(passes), i)
                attempted += 1
                w, c, _ = run_fresh(cli, op, failures)
                wall, cpu = wall + w, cpu + c
                if traced:
                    traced_wall[i].append(w)
                else:
                    op_wall[i].append(w)
                    op_cpu[i].append(c)
        finally:
            if traced:
                tracer.uninstall()
        passes.append((traced, wall, cpu))
        measured += wall

    result = {"setup_s": setup_s, "attempted": attempted, "failures": failures, "op_wall": op_wall,
              "op_cpu": op_cpu, "plain_passes": [p[1:] for p in passes if not p[0]],
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        traced = [p for p in passes if p[0]]
        layers, drift = tracing.summarize(tracer.pass_metrics())
        best_traced = sum(min(w) for w in traced_wall)
        layers["trace.overhead_pct"] = 100.0 * (best_traced / sum(min(w) for w in op_wall) - 1.0)
        result.update(layers=layers, drift=drift, boundaries=tracer.boundary_table(),
                      traced_items_per_s=len(traced) * plan["items_per_pass"] / sum(p[1] for p in traced))
    return result


def summarize(plan: dict, results: list[dict]) -> dict:
    """End-to-end timings from the untraced passes of one or more processes.

    Every pass runs the same ops, so each op is timed once a pass.  The
    ``best_*`` metrics take each op's fastest run over all passes: on a
    shared host, other tenants slow some passes by tens of percent for
    seconds at a time, and an op's fastest run over passes spread across the
    run is the time it needs when nothing contends with it.  The metrics
    without the prefix use every untraced run, contention included.
    """
    op_wall = [sum((r["op_wall"][i] for r in results), []) for i in range(len(plan["ops"]))]
    op_cpu = [sum((r["op_cpu"][i] for r in results), []) for i in range(len(plan["ops"]))]
    passes = [p for r in results for p in r["plain_passes"]]
    best_wall = [min(w) for w in op_wall]
    every_op = [w for ws in op_wall for w in ws]
    per_pass, items = plan["items_per_pass"], len(passes) * plan["items_per_pass"]
    return {
        "passes": len(passes),
        "ops": len(every_op),
        "best_items_per_s": per_pass / sum(best_wall),
        "best_op_p50_ms": 1e3 * statistics.median(best_wall),
        "best_cpu_ms_per_item": 1e3 * sum(min(c) for c in op_cpu) / per_pass,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "items_per_s": items / sum(p[0] for p in passes),
        "op_p50_ms": 1e3 * statistics.median(every_op),
        "op_p95_ms": 1e3 * statistics.quantiles(every_op, n=20)[18] if len(every_op) >= P95_MIN_OPS else None,
        "cpu_ms_per_item": 1e3 * sum(p[1] for p in passes) / items,
    }


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text())
    spec["t0"] = float(sys.argv[2])
    print(json.dumps(run(spec)))


if __name__ == "__main__":
    main()
