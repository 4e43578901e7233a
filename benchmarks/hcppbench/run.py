"""hcppbench: the HCPP two-process deployment benchmark.

Usage (from the repository root)::

    python3 benchmarks/hcppbench/run.py --seed 1          # all three workloads
    python3 benchmarks/hcppbench/run.py --workload lookup --seed 3 --seconds 30
    python3 benchmarks/hcppbench/run.py --workload ingest --trace 1
    python3 benchmarks/hcppbench/run.py --repeat 10         # stability report

One run starts a server process, drives one workload from this process,
verifies every reply, and prints a human-readable report followed by one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics; with ``--trace 1``
the workload runs twice on the same seed, half the seconds each —
untraced, then with spans around every layer in both processes — and
the metrics are the per-layer ones.  The exit code is 0 only when every
output was correct: no wrong plaintext, and every acknowledged upload
read back.

``--repeat K`` runs each selected workload K times in fresh processes,
seeds ``--seed`` .. ``--seed``+K-1, and prints each end-to-end metric's
median, quartiles and spread against its bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

DEFAULT_SECONDS = 30
WORKLOADS = ("ingest", "lookup", "emergency")


def _parse(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all three, each in "
                             "its own process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured seconds per run (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced "
                             "rerun")
    parser.add_argument("--trace-dir", type=Path,
                        default=ROOT / ".hcppbench" / "trace",
                        help="where traced runs write their span JSONL")
    parser.add_argument("--repeat", type=int, default=0, metavar="K",
                        help="stability report over K seeds")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _result_line(correct: bool, attempted: int, failed: int,
                 metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def run_one(args) -> int:
    """One workload in this process; the last stdout line is the result."""
    import workloads
    from workloads import Context, Tally, environment, run_pass

    name, seed = args.workload, args.seed
    work_dir = ROOT / ".hcppbench" / ("run-%d" % os.getpid())
    tallies = [Tally()]
    env = environment()
    print("hcppbench env: " + " ".join("%s=%s" % kv for kv in env.items()))
    print("[%s] seed=%d seconds=%g trace=%d" % (name, seed, args.seconds,
                                                args.trace))
    # A traced run measures an untraced and a traced half, so that it
    # takes as long as an untraced one.
    window = args.seconds / 2 if args.trace else args.seconds
    try:
        untraced = run_pass(
            name, seed, window, work_dir,
            Context(tallies[0], rng=_rng(seed, name),
                    restart=not args.trace),
            setups=1 if args.trace else workloads.SETUPS)
        e2e = untraced.end_to_end()
        for line in untraced.measured.details:
            print("[%s] %s" % (name, line))
        if args.trace:
            tallies.append(Tally())
            metrics = _traced(args, window, work_dir, tallies[1], e2e)
        else:
            metrics = {}
            for metric, (unit, _better) in workloads.END_TO_END.items():
                metrics[metric] = {"value": e2e[metric], "unit": unit}
                print("[%s] %s = %.6g %s" % (name, metric, e2e[metric],
                                             unit))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    wrong = sum(t.wrong for t in tallies)
    for tally in tallies:
        for error, count in sorted(tally.errors.items()):
            print("[%s] failed: %s x%d" % (name, error, count))
    print("[%s] ops_attempted = %d, ops_failed = %d, wrong_results = %d"
          % (name, attempted, failed, wrong))
    correct = wrong == 0 and all(
        math.isfinite(entry["value"]) for entry in metrics.values())
    print(_result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


def _rng(seed: int, name: str):
    import random
    return random.Random("hcppbench/%d/%s" % (seed, name))


def _traced(args, window: float, work_dir: Path, tally,
            untraced_e2e: dict) -> dict:
    """The same seed again with spans in both processes; per-layer metrics."""
    import trace
    from workloads import PLAN, Context, percentile, run_pass

    name, seed = args.workload, args.seed
    trace_dir = args.trace_dir / ("%s-seed%d" % (name, seed))
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer = trace.Tracer("client")
    tracer.install()
    try:
        traced = run_pass(name, seed, window, work_dir,
                          Context(tally, tracer=tracer, rng=_rng(seed, name),
                                  restart=False),
                          setups=1, trace_dir=trace_dir)
    finally:
        tracer.uninstall()
    client_spans, server_spans = traced.spans
    tracer.dump(str(trace_dir / "client.jsonl"), client_spans)
    measured, meter = traced.measured, traced.measured.meter
    e2e = traced.end_to_end()
    overhead = (e2e["op_ms_mean"] / untraced_e2e["op_ms_mean"] - 1) * 100
    late_ms = [v * 1e3 for v in measured.late_s] or [0.0]
    metrics, lines = trace.analyze(
        client_spans, server_spans, measured.ops, meter.wall_s, meter.frames,
        meter.wire_bytes, meter.user_bytes,
        {"server_cpu_s": meter.server_cpu_s,
         "loadgen_cpu_s": meter.client_cpu_s},
        {"late_ms_p99": percentile(late_ms, 99),
         "backlog_max": measured.backlog_max}, overhead)
    for line in measured.details + lines:
        print("[%s traced] %s" % (name, line))
    out = {}
    for metric, (value, unit, base) in metrics.items():
        print("[%s] %s = %.6g %s (base %s)%s" % (
            name, metric, value, unit, base,
            _layer_role(PLAN["per_layer"].get(metric), name)))
        out[metric] = {"value": value, "unit": unit}
    print("[%s] spans written to %s" % (name, trace_dir))
    return out


def _layer_role(entry: "dict | None", workload: str) -> str:
    """What plan.json predicts a per-layer metric does on ``workload``."""
    if entry is None:
        return ""
    if not entry["moves"]:
        return "; " + entry["note"]
    verdict = ("should move" if workload in entry["on"] else
               "predicted flat" if workload in entry["flat_on"] else
               "not predicted")
    return "; %s here (moves %s on %s)" % (
        verdict, ", ".join(entry["moves"]), ", ".join(entry["on"]))


def _subprocess_run(args, workload: str, seed: int, trace: int,
                    echo: bool) -> "dict | None":
    """One workload in a fresh process; its parsed result line."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(trace), "--trace-dir", str(args.trace_dir)]
    proc = subprocess.run(command, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    sys.stderr.write(proc.stderr)
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        print("[%s] seed %d: no result (exit %d)" % (workload, seed,
                                                     proc.returncode))
        return None


def run_all(args) -> int:
    """All three workloads, each in its own process; one combined line."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        result = _subprocess_run(args, workload, args.seed, args.trace,
                                 echo=True)
        if result is None:
            return 1
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            metrics["%s.%s" % (workload, metric)] = entry
    print(_result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


def repeat_report(args) -> int:
    """Spread of every end-to-end metric over K seeds, per workload."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    selected = [args.workload] if args.workload else list(WORKLOADS)
    over = []
    for workload in selected:
        runs = [_subprocess_run(args, workload, args.seed + k, 0,
                                echo=False) for k in range(args.repeat)]
        runs = [r for r in runs if r is not None]
        if len(runs) < 2:
            print("[%s] fewer than 2 runs finished" % workload)
            return 1
        print("[%s] %d runs, seeds %d..%d, failed ops %s"
              % (workload, len(runs), args.seed,
                 args.seed + args.repeat - 1,
                 [r["failed"] for r in runs]))
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs
                      if metric in r["metrics"]]
            if len(values) < len(runs):
                print("[%s] %-22s missing from %d runs"
                      % (workload, metric, len(runs) - len(values)))
                over.append((workload, metric))
                continue
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(median) if median else math.inf
            full = (max(values) - min(values)) / abs(median) \
                if median else math.inf
            flag = ("OVER BOUND" if spread > bound and metric != "setup_s"
                    else "over bound/3" if spread > bound / 3 else "ok")
            print("[%s] %-22s median %10.4f  q1 %10.4f  q3 %10.4f  "
                  "iqr/median %6.3f  max-min/median %6.3f  bound %.2f  %s"
                  % (workload, metric, median, q1, q3, spread, full, bound,
                     flag))
            if flag == "OVER BOUND":
                over.append((workload, metric))
    print("metrics over their bound: %s" % (over or "none"))
    return 1 if over else 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print("hcppbench: no HCPP sources at %s; run from a checkout of "
              "the repository" % SRC, file=sys.stderr)
        return 2
    if args.repeat:
        return repeat_report(args)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
