"""Output checks, run on every operation outside the timed region.

* At the default workload seed, the sha256 of each data output and the
  `payload_sha256` of each run manifest must equal the values pinned in
  pinned.json (the manifest file itself holds a timestamp).
* At every seed, every SDF written must be finite and in (0, 1].
* Every `sdf_pid` / `sdf_noise` written (report.json, curve.csv, the simulate
  manifest, the tuned mean in gains.json) must match a recomputation with the
  scalar reference: `spillsim.reset`/`spillsim.step` driven by
  `controllers.pid_update`, scored as 1 / (1 + var).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

from spillreg import controllers, spillsim

import workloads

PINNED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")
DATA_FILES = {
    "train": ("curve.csv", "checkpoint.json", "report.json"),
    "ablate": ("ablation.csv",),
    "tune-pid": ("gains.json",),
    "evaluate": ("report.json",),
    "simulate": ("trace.csv",),
}
MANIFEST = "run_manifest.json"
# Recomputation uses the same arithmetic; the tolerance only admits a
# reordered final variance sum.
REL_TOL = 1e-12


def load_pins() -> dict:
    with open(PINNED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def out_dir(run_dir: str, argv: list[str]) -> str:
    return os.path.join(run_dir, argv[argv.index("--out") + 1])


def fingerprint(run_dir: str, argv: list[str]) -> dict:
    """sha256 of each data output plus the manifest's payload hash."""
    directory = out_dir(run_dir, argv)
    fp = {name: _sha256(os.path.join(directory, name)) for name in DATA_FILES[argv[0]]}
    fp[MANIFEST] = _read_json(os.path.join(directory, MANIFEST))["payload_sha256"]
    return fp


def _sdf(trace) -> float:
    return 1.0 / (1.0 + float(np.var(np.asarray(trace, dtype=np.float64))))


class Reference:
    """Scalar closed-loop recomputation of noise and PID SDFs, cached per input."""

    def __init__(self):
        self._cache: dict = {}

    def sdfs(self, env: dict, seed: int, gains: dict) -> tuple[float, float]:
        key = (json.dumps(env, sort_keys=True), seed, gains["kp"], gains["ki"], gains["kd"], gains["dt"])
        if key not in self._cache:
            self._cache[key] = self._compute(spillsim.EnvConfig.from_dict(env), seed,
                                             controllers.PidGains.from_dict(gains))
        return self._cache[key]

    @staticmethod
    def _compute(cfg, seed: int, gains) -> tuple[float, float]:
        state = spillsim.reset(cfg, seed)
        for _ in range(cfg.steps_per_episode):
            spillsim.step(state, cfg, 0.0)
        noise = _sdf(state.raw_trace)

        state = spillsim.reset(cfg, seed)
        pending, prev_error, error_sum = 0.0, 0.0, 0.0
        for t in range(cfg.steps_per_episode):
            obs, _ = spillsim.step(state, cfg, pending)
            error = obs - cfg.reference
            diff_rate = 0.0 if t == 0 else (error - prev_error) / cfg.dt
            error_sum += error
            control = controllers.pid_update(
                gains, controllers.ErrorState(error, error_sum, diff_rate, prev_error))
            prev_error = error
            pending = min(max(control, -cfg.action_bound), cfg.action_bound)
        return noise, _sdf(state.corrected_trace)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


class Checker:
    def __init__(self, pins: dict | None):
        self.reference = Reference()
        self.pins = pins

    def check_op(self, run_dir: str, argv: list[str], exit_code, pinned_fp: dict | None) -> list[str]:
        """Problems with one operation; empty when it passed."""
        if exit_code != 0:
            return [f"exit {exit_code}"]
        problems: list[str] = []
        try:
            if pinned_fp is not None and "error" in pinned_fp:
                problems.append(pinned_fp["error"])
            elif pinned_fp is not None:
                fp = fingerprint(run_dir, argv)
                problems += [f"{name} fingerprint {fp.get(name)} != pinned {want}"
                             for name, want in pinned_fp.items() if fp.get(name) != want]
            problems += getattr(self, "_" + argv[0].replace("-", "_"))(out_dir(run_dir, argv))
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        return problems

    def _sdf_ok(self, where: str, value) -> list[str]:
        if isinstance(value, (int, float)) and math.isfinite(value) and 0.0 < value <= 1.0:
            return []
        return [f"{where}: SDF {value!r} not finite in (0, 1]"]

    def _match(self, where: str, value: float, want: float) -> list[str]:
        return [] if _close(value, want) else [f"{where}: {value!r} != recomputed {want!r}"]

    def _report(self, directory: str, env: dict, gains: dict) -> list[str]:
        report = _read_json(os.path.join(directory, "report.json"))
        problems = []
        for row in report["per_seed"]:
            where = f"report.json seed {row['seed']}"
            for key in ("sdf_noise", "sdf_pid", "sdf_rl"):
                problems += self._sdf_ok(f"{where} {key}", row[key])
            noise, pid = self.reference.sdfs(env, row["seed"], gains)
            problems += self._match(f"{where} sdf_noise", row["sdf_noise"], noise)
            problems += self._match(f"{where} sdf_pid", row["sdf_pid"], pid)
        for key in ("mean_sdf_noise", "mean_sdf_pid", "mean_sdf_rl"):
            problems += self._sdf_ok(f"report.json {key}", report["aggregate"][key])
        return problems

    def _train(self, directory: str) -> list[str]:
        config = _read_json(os.path.join(directory, MANIFEST))["config"]
        env, gains = config["env"], config["gains"]
        problems = self._report(directory, env, gains)
        with open(os.path.join(directory, "curve.csv"), encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != config["train"]["iterations"]:
            problems.append(f"curve.csv has {len(rows)} rows, expected {config['train']['iterations']}")
        for row in rows:
            where = f"curve.csv iter {row['iter']}"
            for key in ("sdf_rl", "sdf_pid", "sdf_noise"):
                problems += self._sdf_ok(f"{where} {key}", float(row[key]))
            noise, pid = self.reference.sdfs(env, int(row["seed"]), gains)
            problems += self._match(f"{where} sdf_noise", float(row["sdf_noise"]), noise)
            problems += self._match(f"{where} sdf_pid", float(row["sdf_pid"]), pid)
        return problems

    def _evaluate(self, directory: str) -> list[str]:
        config = _read_json(os.path.join(directory, MANIFEST))["config"]
        return self._report(directory, config["env"], config["gains"])

    def _ablate(self, directory: str) -> list[str]:
        config = _read_json(os.path.join(directory, MANIFEST))["config"]
        with open(os.path.join(directory, "ablation.csv"), encoding="utf-8") as fh:
            lines = [line for line in fh if not line.startswith("#")]
        rows = list(csv.reader(lines))[1:]
        problems = []
        if len(rows) != len(config["rows"]) + 1:
            problems.append(f"ablation.csv has {len(rows)} rows, expected {len(config['rows'])} + MEAN")
        for row in rows:
            if not all(math.isfinite(float(v)) for v in row[:2]):
                problems.append(f"ablation.csv row {row} is not finite")
        return problems

    def _tune_pid(self, directory: str) -> list[str]:
        config = _read_json(os.path.join(directory, MANIFEST))["config"]
        tuned = _read_json(os.path.join(directory, "gains.json"))
        problems = self._sdf_ok("gains.json mean_sdf", tuned["mean_sdf"])
        pid = [self.reference.sdfs(config["env"], s, tuned)[1] for s in tuned["seeds"]]
        return problems + self._match("gains.json mean_sdf", tuned["mean_sdf"], sum(pid) / len(pid))

    def _simulate(self, directory: str) -> list[str]:
        manifest = _read_json(os.path.join(directory, MANIFEST))
        config = manifest["config"]
        noise, pid = self.reference.sdfs(config["env"], manifest["master_seed"], config["gains"])
        problems = self._sdf_ok("simulate sdf_raw", manifest["sdf_raw"])
        problems += self._sdf_ok("simulate sdf_corrected", manifest["sdf_corrected"])
        problems += self._match("simulate sdf_raw", manifest["sdf_raw"], noise)
        return problems + self._match("simulate sdf_corrected", manifest["sdf_corrected"], pid)

    def pinned_ops(self, size: str, workload: str, seed: int, iterations: int) -> list | None:
        """Pinned fingerprints for this repetition, or None when none apply (other seeds)."""
        if seed != workloads.DEFAULT_SEED:
            return None
        entry = (self.pins or {}).get(size, {}).get(workload)
        if entry is None or entry["iterations"] != iterations:
            n_ops = len(workloads.commands(workload, seed, iterations))
            return [{"error": f"pinned.json has no {workload} entry at {iterations} iterations"}] * n_ops
        return entry["ops"]
