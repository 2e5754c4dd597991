"""Run directories, worker processes and the environment record.

A run directory lives under `.bench_runs/` in the checkout. It holds the
pinned gains, the rotation config and any untimed inputs (the tune_eval
checkpoint); every repetition runs there with its outputs under `out/`, which
is cleared before each repetition so a command that writes nothing cannot pass
on stale files.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import time

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUNS_DIR = ".bench_runs"
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark cannot run here (no sources, or an untimed step failed)."""


def source_dir(root: str) -> str:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "spillreg", "cli.py")):
        raise BenchError(f"no spillreg sources under {src}; run from the repository root")
    return src


def _child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Run:
    """One prepared run directory for one workload and seed."""

    def __init__(self, root: str, workload: str, seed: int, tag: str):
        if workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {workload!r}; choose from {workloads.WORKLOADS}")
        self.workload, self.seed = workload, seed
        self.src = source_dir(root)
        self.env = _child_env(self.src)
        self.dir = os.path.join(root, RUNS_DIR, f"{workload}-seed{seed}-{tag}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self._write(workloads.GAINS_FILE, workloads.PINNED_GAINS)
        self._write(workloads.ROTATION_FILE, workloads.ROTATION_CONFIG)
        self.count = 0

    def _write(self, name: str, data: dict) -> None:
        with open(os.path.join(self.dir, name), "w", encoding="utf-8") as fh:
            json.dump(data, fh)

    def prepare(self, timeout: float) -> None:
        for argv in workloads.prepare_commands(self.workload, self.seed):
            proc = subprocess.run(
                [sys.executable, "-m", "spillreg.cli", *argv], cwd=self.dir, env=self.env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=timeout,
            )
            if proc.returncode != 0:
                raise BenchError(f"preparing {argv} failed ({proc.returncode}): {proc.stderr[-2000:]}")

    def repetition(self, iterations: int, trace: bool, timeout: float, setup_only: bool = False) -> dict:
        """Run one repetition in a fresh worker; returns its result record."""
        self.count += 1
        out = os.path.join(self.dir, "out")
        shutil.rmtree(out, ignore_errors=True)
        result_path = os.path.join(self.dir, f"rep{self.count:03d}.json")
        cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--iterations", str(iterations), "--result", result_path]
        if trace:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        try:
            proc = subprocess.run(cmd, cwd=self.dir, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"error": f"worker exceeded {timeout:.0f} s"}
        if proc.returncode != 0 or not os.path.exists(result_path):
            return {"error": f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"}
        with open(result_path, encoding="utf-8") as fh:
            record = json.load(fh)
        record["stderr"] = proc.stderr[-2000:]
        return record


def environment(root: str, seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "thread_env": {var: os.environ.get(var) for var in (*BLAS_THREAD_VARS, "SPILLREG_THREADS")},
        "git_commit": _git_commit(root),
        "workload_seed": seed,
        "machine": platform.machine(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _git_commit(root: str) -> str | None:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None
