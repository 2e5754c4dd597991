"""spillreg benchmark: times the public CLI on fixed workloads.

    python3 benchmarks/run.py --workload train_main --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --pin     # re-pin the seed-0 output fingerprints

Run from the repository root. Each repetition of a workload runs its command
sequence through `spillreg.cli.main` in a fresh interpreter (worker.py),
repeated until --seconds have passed (at least MIN_REPS times).

--trace 0 reports the end-to-end metrics, with tracing off:
  setup_s      median time to import spillreg.cli, build the parser and
               resolve the first argv, over SETUP_SAMPLES set-up-only
               interpreters plus one per repetition
  wall_s       median time of the command sequence, cli.main call to return
  iter_ms_p50  median / 90th percentile of the PPO iteration latency, i.e. the
  iter_ms_p90  gap between consecutive on_iteration callbacks, pooled over the
               repetitions; tune_eval has no PPO iterations, so there an
               iteration is one whole repetition (its p50 is wall_s in ms)
  peak_rss_mb  median ru_maxrss of the worker process
--trace 1 alternates untraced and traced repetitions and reports the
per-module numbers of tracer.PER_LAYER (medians over traced repetitions) plus
trace.overhead_pct, the traced against the untraced median wall_s.

Every CLI command is one operation; a non-zero exit or a failed output check
(checks.py) counts it as failed. Lines before the last describe the
environment, the sample counts and any failures; the last line is the JSON
result. Without spillreg sources under ./src the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

import harness
import workloads

MIN_REPS = 3
MIN_TRACED = 2
SETUP_SAMPLES = 5
RUN_LIMIT_S = 165.0  # a run must end within 180 s
UNITS = {"setup_s": "s", "wall_s": "s", "iter_ms_p50": "ms", "iter_ms_p90": "ms", "peak_rss_mb": "MB"}


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="rewrite pinned.json from this checkout")
    args = parser.parse_args(argv)
    if not args.pin and args.workload is None:
        parser.error("--workload is required")
    return args


class Measurement:
    """Repetitions of one workload, their operation outcomes and samples."""

    def __init__(self, run: harness.Run, checker, iterations: int, started: float):
        self.run, self.checker, self.iterations = run, checker, iterations
        self.started = started
        self.pinned = checker.pinned_ops("full", run.workload, run.seed, iterations)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.plain: list[dict] = []
        self.traced: list[dict] = []

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def repetition(self, trace: bool) -> float:
        began = time.perf_counter()
        record = self.run.repetition(self.iterations, trace, timeout=max(self.remaining(), 1.0))
        n_ops = len(workloads.commands(self.run.workload, self.run.seed, self.iterations))
        self.attempted += n_ops
        if "error" in record:
            self.failed += n_ops
            self.problems.append(f"worker {self.run.count}: {record['error']}")
        else:
            for i, op in enumerate(record["ops"]):
                pinned = None if self.pinned is None else self.pinned[i]
                problems = self.checker.check_op(self.run.dir, op["argv"], op["exit"], pinned)
                if problems:
                    self.failed += 1
                    self.problems += [f"worker {self.run.count} {op['argv'][0]}: {p}" for p in problems]
            (self.traced if trace else self.plain).append(record)
        return time.perf_counter() - began


def _quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(m: Measurement, setup: list[float]) -> dict:
    reps = m.plain
    setup = setup + [r["setup_s"] for r in reps]
    if workloads.trains(m.run.workload):
        latencies = [gap * 1e3 for r in reps for gap in r["iteration_gaps"]]
    else:
        latencies = [r["wall_s"] * 1e3 for r in reps]
    samples = {
        "setup_s": setup,
        "wall_s": [r["wall_s"] for r in reps],
        "iter_ms_p50": latencies,
        "iter_ms_p90": latencies,
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    values = {name: statistics.median(v) for name, v in samples.items()}
    values["iter_ms_p90"] = _quantile(latencies, 90)
    return {name: (values[name], UNITS[name], len(samples[name])) for name in UNITS}


def per_layer(m: Measurement) -> tuple[dict, list]:
    import tracer

    out = {}
    for name, unit, *_ in tracer.PER_LAYER:
        if name == "trace.overhead_pct":
            plain = statistics.median(r["wall_s"] for r in m.plain)
            traced = statistics.median(r["wall_s"] for r in m.traced)
            value = 100.0 * (traced / plain - 1.0)
        else:
            value = statistics.median(r["layers"][name] for r in m.traced)
        out[name] = (value, unit, len(m.traced))
    return out, m.traced[-1]["absent"]


def measure(args, root: str, checks) -> int:
    started = time.perf_counter()
    run = harness.Run(root, args.workload, args.seed, f"trace{args.trace}")
    run.prepare(timeout=60.0)
    checker = checks.Checker(checks.load_pins())
    m = Measurement(run, checker, workloads.SIZES["full"][args.workload], started)

    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            record = run.repetition(m.iterations, False, timeout=60.0, setup_only=True)
            if "error" in record:
                raise harness.BenchError(f"set-up failed: {record['error']}")
            setup.append(record["setup_s"])

    deadline = time.perf_counter() + args.seconds
    longest = 0.0
    while True:
        longest = max(longest, m.repetition(False))
        if args.trace:
            longest = max(longest, m.repetition(True))
        enough = len(m.traced) >= MIN_TRACED if args.trace else len(m.plain) >= MIN_REPS
        out_of_time = m.remaining() < 1.5 * longest
        if (enough and time.perf_counter() >= deadline) or out_of_time:
            break

    shutil.rmtree(os.path.join(run.dir, "out"), ignore_errors=True)
    if not m.plain or (args.trace and not m.traced):
        print("\n".join(m.problems[:20]), file=sys.stderr)
        raise harness.BenchError("no repetition completed")
    if args.trace:
        metrics, absent = per_layer(m)
    else:
        metrics, absent = end_to_end(m, setup), []

    env = harness.environment(root, args.seed)
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "iterations": m.iterations, "environment": env, "absent": absent,
               "problems": m.problems, "attempted": m.attempted, "failed": m.failed,
               "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()}}
    with open(os.path.join(run.dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(m.plain)} untraced / {len(m.traced)} traced repetitions, "
          f"{m.iterations} iterations per training command")
    notes = {}
    if args.trace:
        import tracer

        notes = {name: f"  should move {moves} on {on}" for name, _, _, moves, on in tracer.PER_LAYER}
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<40} {value:>16.6f} {unit:<6} n={n:<4}"
              + (" (absent)" if name in absent else notes.get(name, "")))
    print(f"  operations failed {m.failed} of {m.attempted}")
    for problem in m.problems[:20]:
        print(f"  FAILED {problem}")
    print(json.dumps({"environment": env}, sort_keys=True))
    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


def pin(root: str, checks) -> int:
    """Rewrite pinned.json from one default-seed repetition per workload and size."""
    checker = checks.Checker(None)
    pins: dict = {"seed": workloads.DEFAULT_SEED}
    for size, iterations_of in workloads.SIZES.items():
        pins[size] = {}
        for workload in workloads.WORKLOADS:
            run = harness.Run(root, workload, workloads.DEFAULT_SEED, f"pin-{size}")
            run.prepare(timeout=60.0)
            iterations = iterations_of[workload]
            record = run.repetition(iterations, False, timeout=170.0)
            if "error" in record:
                raise harness.BenchError(f"{workload}: {record['error']}")
            ops = []
            for op in record["ops"]:
                problems = checker.check_op(run.dir, op["argv"], op["exit"], None)
                if problems:
                    raise harness.BenchError(f"{workload} {op['argv'][0]}: {problems[:5]}")
                ops.append(checks.fingerprint(run.dir, op["argv"]))
            pins[size][workload] = {"iterations": iterations, "ops": ops}
            shutil.rmtree(run.dir, ignore_errors=True)
            print(f"pinned {size} {workload}")
    with open(checks.PINNED_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    args = _args(argv)
    root = os.getcwd()
    try:
        sys.path.insert(0, harness.source_dir(root))
        import checks

        return pin(root, checks) if args.pin else measure(args, root, checks)
    except harness.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
