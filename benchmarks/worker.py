"""One benchmark repetition, in a fresh interpreter.

    python3 worker.py --workload NAME --seed N --iterations N --result FILE
                      [--trace] [--setup-only]

Run from a prepared run directory with the checkout's src/ on PYTHONPATH
(harness.py does both). The worker

1. times the set-up a user pays before any work: importing spillreg.cli,
   building the parser and resolving the first command's argv;
2. wraps `ppo.train` so that every `on_iteration` callback records a
   timestamp; this happens in traced and untraced repetitions alike, so the
   callback's cost stays out of the tracing overhead;
3. with --trace, installs the per-module tracer;
4. runs the workload's commands through `cli.main` and times each;
5. writes timings, exit codes, peak RSS and (traced) per-layer numbers and
   spans to the result file.

Command output goes to this process's stdout, which the harness discards.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
import traceback

import workloads


def _stamp_iterations(ppo, runs: list) -> None:
    train = ppo.train

    def train_with_stamps(*args, **kwargs):
        stamps = []
        runs.append(stamps)
        chained = kwargs.get("on_iteration")

        def on_iteration(it, row):
            stamps.append(time.perf_counter())
            if chained is not None:
                chained(it, row)

        kwargs["on_iteration"] = on_iteration
        return train(*args, **kwargs)

    ppo.train = train_with_stamps


def _peak_rss_mb() -> float:
    """Peak resident set of this process.

    Linux carries the spawning parent's high-water mark into ru_maxrss across
    exec, so the process's own VmHWM is read where /proc has it.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--iterations", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    argvs = workloads.commands(args.workload, args.seed, args.iterations)

    start = time.perf_counter()
    from spillreg import cli, ppo

    cli.resolve_run(cli.build_parser().parse_args(argvs[0]))
    result = {"setup_s": time.perf_counter() - start}
    if not args.setup_only:
        result.update(_run(args, argvs, cli, ppo))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _run(args, argvs: list, cli, ppo) -> dict:
    train_runs: list[list[float]] = []
    _stamp_iterations(ppo, train_runs)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    ops = []
    for argv in argvs:
        began = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad argv by exiting
            code = exc.code
        except Exception:  # a crash is a failed operation; keep measuring the rest
            code = traceback.format_exc(limit=3)
        ops.append({"argv": argv, "exit": code, "seconds": time.perf_counter() - began})
    rss_mb = _peak_rss_mb()

    out = {
        "ops": ops,
        "wall_s": sum(op["seconds"] for op in ops),
        "iteration_gaps": [b - a for stamps in train_runs for a, b in zip(stamps, stamps[1:])],
        "iterations_seen": sum(len(stamps) for stamps in train_runs),
        "peak_rss_mb": rss_mb,
    }
    if tracer is not None:
        out["layers"], out["absent"] = tracer.layer_metrics()
        out["spans"] = tracer.span_records()
    return out


if __name__ == "__main__":
    main()
