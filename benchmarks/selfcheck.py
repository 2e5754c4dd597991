"""Fast self-check of the benchmark (about fifteen seconds on two cores).

    python3 benchmarks/selfcheck.py

Run from the repository root. For every workload at the "tiny" size it runs
one untraced and one traced repetition and checks that

* every operation exits 0 and passes the output checks, including the pinned
  tiny-size fingerprints;
* tracing changes no output byte;
* the tracer finds every per-layer name and its counts agree with each
  other (steps = resets x steps per episode, one checkpoint per iteration, two
  baseline episodes per iteration, one callback per iteration, ...);
* every span's parent is a recorded span.

It also checks that BENCHMARK.json names exactly the metrics the benchmark
reports, and that run.py refuses to run, without a result line, in a
directory that holds only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import harness
import run as bench
import tracer
import workloads

STEPS_PER_EPISODE = 430


def _layer_problems(workload: str, iterations: int, record: dict) -> list[str]:
    layers = record["layers"]
    problems = [f"{name} is absent" for name in record["absent"]]
    if layers["spillsim.step.calls"] != layers["spillsim.reset.calls"] * STEPS_PER_EPISODE:
        problems.append("spillsim.step.calls != resets x steps per episode")
    resets = layers["spillsim.reset.calls"]
    if resets and layers["spillsim.raw_reuse_ratio"] != layers["spillsim.reset.distinct_seeds"] / resets:
        problems.append("spillsim.raw_reuse_ratio != distinct seeds / resets")
    for name, value in layers.items():
        if value < 0:
            problems.append(f"{name} is negative")
        if name.endswith(".self_s") and value > layers.get(name[:-6] + "total_s", value) + 1e-9:
            problems.append(f"{name} exceeds its total")
    if workloads.trains(workload):
        trains = 2 if workload == "ablate_nn_cdover" else 1
        total = trains * iterations
        expected = {
            "ppo.checkpoint_dict.calls": total + trains,
            "ppo.baselines.calls": 2 * total,
            "metrics.RewardAccumulator.push.calls": total * STEPS_PER_EPISODE,
        }
        if record["iterations_seen"] != total:
            problems.append(f"{record['iterations_seen']} on_iteration callbacks, expected {total}")
        if len(record["iteration_gaps"]) != total - trains:
            problems.append("iteration gaps do not pair consecutive callbacks of one train call")
    else:
        expected = {"spillsim.reset.distinct_seeds": workloads.EVAL_SEED_COUNT}
        if layers["controllers.tune_pid.total_s"] <= 0:
            problems.append("tune_pid was not timed")
    problems += [f"{name} = {layers[name]}, expected {want}"
                 for name, want in expected.items() if layers[name] != want]
    ids = {span["id"] for span in record["spans"]}
    problems += [f"span {span['name']} has unknown parent {span['parent']}"
                 for span in record["spans"] if span["parent"] is not None and span["parent"] not in ids]
    roots = {span["name"] for span in record["spans"] if span["parent"] is None}
    if roots != {"cli.main"}:
        problems.append(f"root spans are {sorted(roots)}, expected only cli.main")
    return problems


def check_workload(root: str, checks, workload: str) -> list[str]:
    iterations = workloads.SIZES["tiny"][workload]
    run = harness.Run(root, workload, workloads.DEFAULT_SEED, "selfcheck")
    run.prepare(timeout=60.0)
    checker = checks.Checker(checks.load_pins())
    pinned = checker.pinned_ops("tiny", workload, workloads.DEFAULT_SEED, iterations)
    problems, fingerprints = [], {}
    for trace in (False, True):
        record = run.repetition(iterations, trace, timeout=120.0)
        if "error" in record:
            problems.append(f"trace={trace}: {record['error']}")
            continue
        fingerprints[trace] = []
        for op, pin in zip(record["ops"], pinned):
            problems += [f"trace={trace} {op['argv'][0]}: {p}"
                         for p in checker.check_op(run.dir, op["argv"], op["exit"], pin)]
            if op["exit"] == 0:
                fingerprints[trace].append(checks.fingerprint(run.dir, op["argv"]))
        if trace:
            problems += _layer_problems(workload, iterations, record)
    if len(fingerprints) == 2 and fingerprints[False] != fingerprints[True]:
        problems.append("traced outputs differ from untraced outputs")
    shutil.rmtree(run.dir, ignore_errors=True)
    return problems


def check_manifest(root: str) -> list[str]:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(bench.UNITS.items()):
        problems.append("BENCHMARK.json end_to_end differs from run.UNITS")
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if declared != [row[:3] for row in tracer.PER_LAYER]:
        problems.append("BENCHMARK.json per_layer differs from tracer.PER_LAYER")
    return problems


def check_refuses_without_sources(root: str) -> list[str]:
    bare = os.path.join(root, harness.RUNS_DIR, f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(harness.BENCH_DIR, os.path.join(bare, os.path.basename(harness.BENCH_DIR)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, os.path.join(os.path.basename(harness.BENCH_DIR), "run.py"),
             "--workload", "train_main", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    problems = []
    if proc.returncode == 0:
        problems.append("run.py exited 0 without sources")
    if '"correct"' in proc.stdout:
        problems.append("run.py printed a result without sources")
    return problems


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, harness.source_dir(root))
    import checks

    sections = [("BENCHMARK.json", lambda: check_manifest(root)),
                ("no sources", lambda: check_refuses_without_sources(root))]
    sections += [(w, lambda w=w: check_workload(root, checks, w)) for w in workloads.WORKLOADS]
    failed = False
    for name, check in sections:
        problems = check()
        failed = failed or bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {name}")
        for problem in problems[:20]:
            print(f"     {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
