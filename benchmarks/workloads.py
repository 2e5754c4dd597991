"""Workload definitions: the CLI command sequences the benchmark times.

Every workload is a list of `spillreg` argv lists run through `cli.main` in one
fresh interpreter. Paths are relative to the run directory the worker runs
in, so recorded paths (e.g. the checkpoint path in an evaluate report) are the
same on every machine and the output fingerprints can be pinned.

Training uses pinned PID gains: the result of `tune_pid` on seeds 0-8 with the
default config. Tuning cost therefore lands only in `tune_eval`.

Module-level imports stay in the standard library: the worker imports this
module before it starts timing the import of spillreg.
"""

from __future__ import annotations

PINNED_GAINS = {
    "format_version": 1,
    "kp": 0.34375,
    "ki": 0.6,
    "kd": -8.750000000000001e-06,
    "dt": 1e-4,
}
GAINS_FILE = "gains.json"
ROTATION_FILE = "rotation.json"
ROTATION_CONFIG = {"train": {"seed_rotation_period": 1}}
CHECKPOINT = "prep/checkpoint.json"
PREP_ITERATIONS = 4
EVAL_SEED_COUNT = 9

# The seed whose outputs are compared against pinned sha256 fingerprints.
DEFAULT_SEED = 0

# Training iterations per `train` / per ablation row. "full" is what a timed
# run uses; "tiny" is what the self-check uses. Run time varies by +-15% from
# one process to the next on a shared host, so a repetition is kept short
# (about 1.5 s) and a run gets many of them to take the median over.
SIZES = {
    "full": {"train_main": 20, "ablate_nn_cdover": 8, "tune_eval": 0},
    "tiny": {"train_main": 3, "ablate_nn_cdover": 2, "tune_eval": 0},
}

WORKLOADS = ("train_main", "ablate_nn_cdover", "tune_eval")


def eval_seeds(seed: int) -> str:
    return ",".join(str(s) for s in range(seed, seed + EVAL_SEED_COUNT))


def commands(workload: str, seed: int, iterations: int) -> list[list[str]]:
    """The timed argv sequence of one workload repetition."""
    if workload == "train_main":
        return [["train", "--variant", "main", "--gains", GAINS_FILE,
                 "--iterations", str(iterations), "--seed", str(seed), "--out", "out/train"]]
    if workload == "ablate_nn_cdover":
        return [["ablate", "--rows", "nn,cd_over", "--gains", GAINS_FILE,
                 "--iterations", str(iterations), "--config", ROTATION_FILE,
                 "--seed", str(seed), "--out", "out/ablate"]]
    if workload == "tune_eval":
        seeds = eval_seeds(seed)
        return [
            ["tune-pid", "--seeds", seeds, "--out", "out/tune"],
            ["evaluate", "--checkpoint", CHECKPOINT, "--seeds", seeds, "--out", "out/evaluate"],
            ["simulate", "--gains", GAINS_FILE, "--seed", str(seed), "--out", "out/simulate"],
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def prepare_commands(workload: str, seed: int) -> list[list[str]]:
    """Untimed commands that build a workload's inputs (the evaluate checkpoint)."""
    if workload == "tune_eval":
        return [["train", "--gains", GAINS_FILE, "--iterations", str(PREP_ITERATIONS),
                 "--seed", str(seed), "--out", "prep"]]
    return []


def trains(workload: str) -> bool:
    """True where iterations are PPO iterations; tune_eval has none."""
    return workload != "tune_eval"
