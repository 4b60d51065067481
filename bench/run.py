"""camgeom benchmark: ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run it from the root of a camgeom checkout; it measures the code in that
checkout's ``src``.  It writes the workload's seeded inputs into a scratch
directory under ``.bench_work/`` (removed on exit), starts the measured
process several times, each for a share of the timed passes, and prints
one line per metric followed by a JSON summary as the last line: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run.  It exits 1 when any op fails or any output check
fails, and 2 when there is no checkout to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Untraced runs start this many measured processes, each for an equal share
# of --seconds.  setup_s is the median of their set-up times, which are thus
# spread over the whole run rather than taken back to back.  A traced run
# starts one process, whose passes alternate traced and untraced.
STARTS = 9
END_TO_END = {
    "setup_s": "s",
    "best_items_per_s": "items/s",
    "best_op_p50_ms": "ms",
    "best_cpu_ms_per_item": "ms",
    "peak_rss_mb": "MiB",
}
# printed with the end-to-end metrics, from every untraced op, contention included
CONTENDED = {"items_per_s": "items/s", "op_p50_ms": "ms", "cpu_ms_per_item": "ms"}


def _start(spec: dict, work: Path, timeout: float) -> dict:
    """Run one measured process to completion and return its result."""
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "harness.py"), str(spec_path), repr(t0)],
        capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"measured process exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _flush(root: Path) -> None:
    """Write the generated inputs to disk now, so that their writeback does not run during timed ops."""
    for path in root.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def measure(args: argparse.Namespace, src: Path, work: Path) -> dict:
    plan = workloads.generate(args.workload, work / "inputs", args.seed)
    _flush(work / "inputs")
    starts = 1 if args.trace else STARTS
    spec = {"src": str(src), "plan": plan, "seconds": args.seconds / starts, "trace": bool(args.trace)}
    results = [_start(spec, work, timeout=4 * spec["seconds"] + 60) for _ in range(starts)]
    r = harness.summarize(plan, results)
    setups = [x["setup_s"] for x in results]
    r.update(setup_s=statistics.median(setups), setups=setups, attempted=sum(x["attempted"] for x in results),
             failures=[f for x in results for f in x["failures"]], plan=plan)
    if args.trace:
        r.update({k: results[0][k] for k in ("layers", "drift", "boundaries", "traced_items_per_s")})
    return r


def report(args: argparse.Namespace, r: dict) -> dict:
    plan = r["plan"]
    print(f"workload {args.workload}: {plan['items_per_pass']} {plan['unit']}s and {len(plan['ops'])} ops per "
          f"pass, seed {args.seed}, {r['passes']} untraced passes, closed loop, one caller, trace {args.trace}")
    lines = {
        "setup_s": f"median of {len(r['setups'])} set-ups: " + ", ".join(f"{s:.3f}" for s in r["setups"]),
        "peak_rss_mb": f"largest of {len(r['setups'])} processes",
        "best_items_per_s": "items a pass / sum over its ops of each op's fastest untraced run",
        "best_op_p50_ms": f"median over the {len(plan['ops'])} ops of a pass of each op's fastest untraced run",
        "best_cpu_ms_per_item": "sum over the ops of a pass of each op's least CPU / items a pass",
        "items_per_s": "every untraced pass",
        "op_p50_ms": f"{r['ops']} untraced ops",
    }
    for name, unit in (END_TO_END | CONTENDED).items():
        print(f"  {name:<20} {r[name]:12.4f} {unit:<8} {lines.get(name, '')}")
    if r["op_p95_ms"] is None:
        print(f"  {'op_p95_ms':<20} {'n/a':>12} {'ms':<8} needs >= 200 ops, run had {r['ops']}")
    else:
        print(f"  {'op_p95_ms':<20} {r['op_p95_ms']:12.4f} {'ms':<8} {r['ops']} ops")
    failed = len(r["failures"])
    print(f"  {'fail_ratio':<20} {failed / r['attempted']:12.4f} {'ratio':<8} {failed} failed / "
          f"{r['attempted']} attempted")
    for failure in r["failures"][:10]:
        print(f"  FAILED {failure}")
    if not args.trace:
        return {name: {"value": r[name], "unit": unit} for name, unit in END_TO_END.items()}

    layers = r["layers"]
    print(f"traced passes: {r['traced_items_per_s']:.4f} items/s against {r['items_per_s']:.4f} untraced; "
          f"tracing overhead {layers['trace.overhead_pct']:+.1f}% of the summed fastest op times")
    for problem in r["drift"]:
        print(f"  COUNT DRIFT {problem}")
    print("per-layer metrics, per pass (times: self time, median over traced passes):")
    units = {name: unit for name, (unit, _, _) in tracer.LAYER_METRICS.items()} | {"trace.overhead_pct": "%"}
    for name, unit in units.items():
        print(f"  {name:<32} {layers[name]:14.6g} {unit}")
    print("boundaries over all traced passes: calls, total s, self s (spans only)")
    for name, row in sorted(r["boundaries"].items(), key=lambda kv: -kv[1].get("self_s", -1.0)):
        times = f"{row['total_s']:10.4f} {row['self_s']:10.4f}" if "self_s" in row else ""
        print(f"  {name:<38} {row['calls']:8d} {times}")
    return {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its measured process and removes its scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    src = root / "src"
    if not (src / "camgeom" / "cli.py").is_file():
        print(f"error: {root} is not a camgeom checkout (no src/camgeom/cli.py)", file=sys.stderr)
        return 2
    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        r = measure(args, src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            scratch.rmdir()
    metrics = report(args, r)
    correct = not r["failures"] and not r.get("drift")
    print(json.dumps({"correct": correct, "attempted": r["attempted"], "failed": len(r["failures"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
