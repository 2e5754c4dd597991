"""Command-line interface: simulate, tune-pid, train, evaluate, ablate, plot-script.

Every command resolves its configuration with the precedence
CLI flag > config file > built-in default, then records the fully resolved
values in a run manifest (run_manifest.json) next to the data outputs. A
manifest can itself be passed back via --config to rerun the command with
bit-identical data outputs (the manifest timestamp is excluded from the
hashed payload).

Config file schema (JSON, all sections optional):

    {
      "env":    { ...spillsim.EnvConfig fields... },
      "train":  { ...ppo.TrainConfig fields... },
      "reward": { "kind": one of metrics.REWARD_KINDS, "alpha": 0.5 },
      "variant": "main",
      "master_seed": 0,
      "gains":  { "format_version": 1, "kp": ..., "ki": ..., "kd": ..., "dt": ... }
    }

Exit codes: 0 success, 2 config error, 3 numeric divergence (in training, or a
non-finite control action in any closed loop), 4 I/O.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace

import numpy as np

from . import __version__, metrics, ppo
from .controllers import STATE_LABELS, PidGains, pid_episode_records, tune_pid
from .errors import (
    CheckpointError,
    ConfigError,
    DivergenceError,
    InputError,
    InvalidActionError,
    SpillRegError,
    UsageError,
)
from .metrics import RewardConfig
from .rng import check_seed
from .spillsim import EnvConfig, format_trace_csv, run_raw_episode

# CPython's built-in SHA-256. hashlib would load OpenSSL's libcrypto, about
# 3.5 MB resident, to hash one small manifest payload per command.
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4

MANIFEST_NAME = "run_manifest.json"


@dataclass(frozen=True)
class VariantSpec:
    """One row of the ablation grid: policy head, state features, reward."""

    name: str
    policy: str  # "pid" | "nn"
    state: str  # "pid_act" | "pid3" | "cd_over"
    reward: RewardConfig


VARIANTS: dict[str, VariantSpec] = {
    v.name: v
    for v in (
        VariantSpec("main", "pid", "pid_act", RewardConfig("neg_ema", 0.5)),
        VariantSpec("ema01", "pid", "pid_act", RewardConfig("neg_ema", 0.1)),
        VariantSpec("ema09", "pid", "pid_act", RewardConfig("neg_ema", 0.9)),
        VariantSpec("sum", "pid", "pid_act", RewardConfig("neg_sum", 0.5)),
        VariantSpec("nn", "nn", "pid_act", RewardConfig("neg_ema", 0.5)),
        VariantSpec("pid3", "pid", "pid3", RewardConfig("neg_ema", 0.5)),
        VariantSpec("cd_over", "pid", "cd_over", RewardConfig("neg_ema", 0.5)),
    )
}

# fixed report order, main configuration last
ABLATION_ROWS = ("ema01", "nn", "ema09", "sum", "pid3", "cd_over", "main")

CONFIG_SECTIONS = {"env", "train", "reward", "variant", "master_seed", "gains"}


@contextmanager
def reading(path, error=ConfigError):
    """Report malformed data read from file path as error, naming the file.

    Bad JSON, a value of the wrong type and a missing key surface as these
    builtin exceptions; error is a SpillRegError, so main exits 2.
    """
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise error(f"{path}: malformed data ({type(exc).__name__}: {exc})") from exc


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def json_default(obj) -> list:
    """json's hook for what it cannot encode: a numpy array as its list, anything else a TypeError.

    Checkpoint records hold their parameter and optimizer blocks as float64
    arrays (gradnet.net_to_dict, gradnet.adam_to_dict); tolist() gives the
    Python floats their list form held, so the bytes written are the same.
    """
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def write_output(out_dir: str, name: str, data: str | dict, indent: int | None = 2) -> str:
    """The one writer of output files: text as it is, a dict streamed as sorted-key JSON plus a newline.

    Numpy arrays in a dict are written as JSON lists (json_default).
    """
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(data, str):
            fh.write(data)
        else:
            # streamed: json.dumps is faster, but on Python 3.11 its C encoder keeps
            # a string per float until it joins them (+1.8 MB peak for a checkpoint)
            json.dump(data, fh, indent=indent, sort_keys=True, default=json_default)
            fh.write("\n")
    return path


def load_config_file(path: str) -> dict:
    data = load_json(path)
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path}: top level must be a JSON object")
    if "command" in data and "config" in data:
        # a run manifest was passed; rerun from its recorded resolved config
        data = data["config"]
    unknown = set(data) - CONFIG_SECTIONS
    if unknown:
        raise ConfigError(f"config file {path}: unknown section(s) {sorted(unknown)}")
    return data


def config_payload(run: ppo.Run, variant: VariantSpec) -> dict:
    """The resolved config a manifest records: rerunning it gives the same run."""
    payload = {
        "env": run.env.to_dict(),
        "train": run.train.to_dict(),
        "reward": run.reward.to_dict(),
        "variant": variant.name,
        "master_seed": run.master_seed,
    }
    if run.gains is not None:
        payload["gains"] = run.gains.to_dict()
    return payload


def resolve_run(args) -> tuple[ppo.Run, VariantSpec]:
    """The run that flags, config file and defaults describe (gains None if none given), and its variant."""
    config_path = getattr(args, "config", None)
    with reading(config_path) if config_path else nullcontext():
        file_cfg = load_config_file(config_path) if config_path else {}
        variant_name = getattr(args, "variant", None) or file_cfg.get("variant") or "main"
        if variant_name not in VARIANTS:
            raise ConfigError(f"unknown variant {variant_name!r}; choose from {sorted(VARIANTS)}")
        variant = VARIANTS[variant_name]

        env_cfg = EnvConfig.from_dict(file_cfg.get("env", {}))

        reward_cfg = RewardConfig.from_dict(file_cfg["reward"]) if "reward" in file_cfg else variant.reward

        train_over = dict(file_cfg.get("train", {}))
        iterations = getattr(args, "iterations", None)
        if iterations is not None:
            train_over["iterations"] = iterations
        train_over.setdefault("alpha", reward_cfg.alpha)
        train_cfg = ppo.TrainConfig.from_dict(train_over)
        if train_cfg.alpha != reward_cfg.alpha:  # training reads the reward's alpha only
            raise ConfigError(
                f"train.alpha {train_cfg.alpha} differs from the reward alpha {reward_cfg.alpha}; "
                "set the alpha in the reward section or choose a variant")

        if getattr(args, "seed", None) is not None:
            master_seed = args.seed
            check_seed(master_seed, "--seed")
        else:
            master_seed = file_cfg.get("master_seed", 0)
            check_seed(master_seed, "master_seed")

        gains = None
        gains_path = getattr(args, "gains", None)
        if gains_path:
            with reading(gains_path):
                gains = PidGains.from_dict(load_json(gains_path))
        elif "gains" in file_cfg:
            gains = PidGains.from_dict(file_cfg["gains"])
    return ppo.Run(env_cfg, train_cfg, gains, reward_cfg, variant.policy, variant.state, master_seed), variant


def payload_digest(data: bytes) -> str:
    """Hex SHA-256 of data, as hashlib.sha256(data).hexdigest() gives it."""
    return _sha256(data).hexdigest()


def write_manifest(out_dir: str, command: str, config_payload: dict, master_seed: int,
                   outputs: dict, extra: dict | None = None) -> str:
    payload = {"command": command, "master_seed": master_seed, "config": config_payload}
    manifest = dict(payload)
    manifest["tool_version"] = __version__
    manifest["created_utc"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    manifest["outputs"] = outputs
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    manifest["payload_sha256"] = payload_digest(canonical.encode("utf-8"))
    if extra:
        manifest.update(extra)
    return write_output(out_dir, MANIFEST_NAME, manifest)


def ensure_out_dir(args) -> str:
    out = getattr(args, "out", None) or "."
    os.makedirs(out, exist_ok=True)
    return out


def parse_seed_list(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise ConfigError(f"--seeds expects comma-separated integers, got {text!r}")
    if not seeds:
        raise ConfigError("--seeds must name at least one seed")
    for seed in seeds:
        check_seed(seed, "--seeds entry")
    return seeds


# --- subcommands -------------------------------------------------------------

def cmd_simulate(args) -> int:
    run, variant = resolve_run(args)
    out_dir = ensure_out_dir(args)
    seed = run.master_seed
    if run.gains is not None:
        raw, corrected, actions = pid_episode_records(run.env, seed, run.gains)
    else:
        raw = run_raw_episode(run.env, seed)
        corrected = list(raw)
        actions = [0.0] * len(raw)
    sdf_raw = metrics.sdf(raw)  # before any file is written: a trace can fail to score
    sdf_corr = metrics.sdf(corrected)
    trace_path = write_output(out_dir, "trace.csv", format_trace_csv(raw, corrected, actions))
    write_manifest(
        out_dir, "simulate", config_payload(run, variant), seed,
        outputs={"trace_csv": "trace.csv"},
        extra={"sdf_raw": sdf_raw, "sdf_corrected": sdf_corr},
    )
    print(f"wrote {trace_path}")
    print(f"sdf_raw={sdf_raw:.6f} sdf_corrected={sdf_corr:.6f} (seed {seed})")
    return EXIT_OK


def cmd_tune_pid(args) -> int:
    """Tune PID gains; gains.json's mean_sdf is the score tune_pid chose them by."""
    run, variant = resolve_run(args)
    out_dir = ensure_out_dir(args)
    seeds = parse_seed_list(args.seeds) if args.seeds is not None else run.train.seeds
    gains, mean_sdf = tune_pid(run.env, list(seeds))
    payload = config_payload(replace(run, gains=gains), variant)
    gains_out = dict(gains.to_dict(), manifest=MANIFEST_NAME, mean_sdf=mean_sdf, seeds=list(seeds))
    write_output(out_dir, "gains.json", gains_out)
    write_manifest(out_dir, "tune-pid", payload, run.master_seed,
                   outputs={"gains_json": "gains.json"})
    print(f"tuned gains: kp={gains.kp} ki={gains.ki} kd={gains.kd} (dt={gains.dt})")
    print(f"mean PID SDF over seeds {list(seeds)}: {mean_sdf:.6f}")
    return EXIT_OK


def cmd_train(args) -> int:
    run, variant = resolve_run(args)
    out_dir = ensure_out_dir(args)
    if run.gains is None:
        run = replace(run, gains=tune_pid(run.env, list(run.train.seeds))[0])
    try:
        result = ppo.train(run)
    except DivergenceError as exc:
        last_good = exc.diagnostics.get("last_good")
        if last_good is not None:
            write_output(out_dir, "checkpoint.json", dict(last_good, manifest=MANIFEST_NAME), indent=None)
            write_manifest(out_dir, "train", config_payload(run, variant), run.master_seed,
                           outputs={"checkpoint": "checkpoint.json"},
                           extra={"status": "diverged", "diverged_at": exc.diagnostics.get("iteration")})
            print(f"divergence at iteration {exc.diagnostics.get('iteration')}; "
                  f"last good checkpoint retained in {out_dir}", file=sys.stderr)
        raise

    write_output(out_dir, "curve.csv", ppo.format_curve_csv(result.curve_rows))
    write_output(out_dir, "checkpoint.json", dict(result.checkpoint, manifest=MANIFEST_NAME), indent=None)
    write_output(out_dir, "report.json", dict(result.report, manifest=MANIFEST_NAME))

    payload = config_payload(run, variant)  # gains resolved above, so reruns skip tuning
    write_manifest(out_dir, "train", payload, run.master_seed,
                   outputs={"curve_csv": "curve.csv", "checkpoint": "checkpoint.json",
                            "report_json": "report.json"})
    agg = result.report["aggregate"]
    print(f"trained variant {variant.name!r} for {run.train.iterations} iterations")
    print(
        "mean SDF: rl={rl:.4f} pid={pid:.4f} noise={noise:.4f} "
        "(vs_pid {vp:+.2f}% vs_noise {vn:+.2f}%)".format(
            rl=agg["mean_sdf_rl"], pid=agg["mean_sdf_pid"], noise=agg["mean_sdf_noise"],
            vp=agg["vs_pid_pct"], vn=agg["vs_noise_pct"],
        )
    )
    print(f"outputs in {out_dir}: curve.csv checkpoint.json report.json {MANIFEST_NAME}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    out_dir = ensure_out_dir(args)
    with reading(args.checkpoint, CheckpointError):
        data = load_json(args.checkpoint)
        run, actor, _critic = ppo.restore_from_checkpoint(data)
    seeds = parse_seed_list(args.seeds) if args.seeds is not None else run.train.seeds
    report = ppo.build_report(run.env, run.gains, actor, seeds)
    report_out = dict(report, manifest=MANIFEST_NAME, checkpoint=os.fspath(args.checkpoint))
    write_output(out_dir, "report.json", report_out)
    payload = {
        "env": run.env.to_dict(),
        "train": run.train.to_dict(),
        "gains": run.gains.to_dict(),
        "seeds": list(seeds),
        "checkpoint": os.fspath(args.checkpoint),
    }
    write_manifest(out_dir, "evaluate", payload, run.master_seed,
                   outputs={"report_json": "report.json"})
    for row in report_out["per_seed"]:
        print(
            "seed {seed}: noise={sdf_noise:.4f} pid={sdf_pid:.4f} rl={sdf_rl:.4f} "
            "(vs_pid {vs_pid_pct:+.2f}% vs_noise {vs_noise_pct:+.2f}%)".format(**row)
        )
    agg = report_out["aggregate"]
    print(
        "mean: noise={mean_sdf_noise:.4f} pid={mean_sdf_pid:.4f} rl={mean_sdf_rl:.4f} "
        "vs_pid {vs_pid_pct:+.2f}% vs_noise {vs_noise_pct:+.2f}%".format(**agg)
    )
    return EXIT_OK


def _csv_field(text: str) -> str:
    # state labels such as "P,I,D,Act" carry commas and need quoting
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def format_ablation_csv(rows: list[dict]) -> str:
    """Rows + aggregate footer. Comment header documents scope and semantics."""
    lines = [
        "# ablation grid over reward/policy/state variants; one training run per row",
        "# vs_pid / vs_noise: mean per-seed relative SDF improvement of RL, percent",
        "# rows cover the on-policy (PPO) grid only; a SAC comparison row is intentionally out of scope",
        "vs_pid,vs_noise,policy,reward,algo,state",
    ]
    ok = [r for r in rows if r["error"] is None]
    for r in rows:
        labels = ",".join(_csv_field(r[k]) for k in ("policy", "reward", "algo", "state"))
        if r["error"] is None:
            lines.append(f"{r['vs_pid']!r},{r['vs_noise']!r},{labels}")
        else:
            lines.append(f"nan,nan,{labels}")
    if ok:
        mean_vp = metrics.ordered_mean([r["vs_pid"] for r in ok])
        mean_vn = metrics.ordered_mean([r["vs_noise"] for r in ok])
        lines.append(f"{mean_vp!r},{mean_vn!r},MEAN({len(ok)} rows),,,")
    return "\n".join(lines) + "\n"


def cmd_ablate(args) -> int:
    run, variant = resolve_run(args)
    out_dir = ensure_out_dir(args)
    row_names = list(ABLATION_ROWS)
    if args.rows is not None:
        row_names = [name.strip() for name in args.rows.split(",") if name.strip()]
        if not row_names:
            raise ConfigError("--rows must name at least one row")
        unknown = [name for name in row_names if name not in VARIANTS]
        if unknown:
            raise ConfigError(f"unknown ablation row(s) {unknown}; choose from {sorted(VARIANTS)}")
    if run.gains is None:
        # one shared PID baseline for every row keeps the comparison honest
        run = replace(run, gains=tune_pid(run.env, list(run.train.seeds))[0])

    rows, first_error = [], None
    for name in row_names:
        spec = VARIANTS[name]
        row = {
            "name": name,
            "policy": spec.policy.upper(),
            "reward": spec.reward.label,
            "algo": "PPO",
            "state": STATE_LABELS[spec.state],
            "vs_pid": None,
            "vs_noise": None,
            "error": None,
        }
        try:
            # keep only the row's aggregate: its TrainResult is let go before the next row trains
            agg = ppo.train(replace(run, reward=spec.reward, policy_variant=spec.policy,
                                    state_variant=spec.state)).report["aggregate"]
        except SpillRegError as exc:
            if first_error is None:  # a traceback down its chain would keep the row's learners alive
                first_error = link = exc
                while link is not None:
                    link.__traceback__ = None
                    link = link.__cause__ or link.__context__
            row["error"] = f"{type(exc).__name__}: {exc}"
            print(f"row {name!r} failed: {row['error']}", file=sys.stderr)
        else:
            row["vs_pid"] = agg["vs_pid_pct"]
            row["vs_noise"] = agg["vs_noise_pct"]
            print(
                f"row {name}: vs_pid {row['vs_pid']:+.2f}% vs_noise {row['vs_noise']:+.2f}%"
            )
        rows.append(row)

    csv_path = write_output(out_dir, "ablation.csv", format_ablation_csv(rows))
    payload = config_payload(run, variant)
    payload["rows"] = row_names
    write_manifest(
        out_dir, "ablate", payload, run.master_seed,
        outputs={"ablation_csv": "ablation.csv"},
        extra={
            "seed_schedule": list(run.train.seeds),
            "shared_seed_schedule": True,
            "row_errors": {row["name"]: row["error"] for row in rows if row["error"] is not None},
        },
    )
    print(f"wrote {csv_path}")
    if all(row["error"] is not None for row in rows):
        raise first_error  # no row trained: exit as the first row's error would
    return EXIT_OK


PLOT_SCRIPT = """\
# gnuplot script: renders the data outputs of this tool
# usage: gnuplot -e "outdir='runs/main'" plot.gp
if (!exists("outdir")) outdir = "."

set datafile separator ","
set terminal pngcairo size 1000,600
set grid

set output outdir . "/curve.png"
set title "Training progress"
set xlabel "iteration"
set ylabel "SDF"
plot outdir . "/curve.csv" using 1:4 with lines title "RL", \\
     outdir . "/curve.csv" using 1:5 with lines title "PID", \\
     outdir . "/curve.csv" using 1:6 with lines title "unregulated"

set output outdir . "/trace.png"
set title "Spill trace"
set xlabel "step"
set ylabel "intensity"
plot outdir . "/trace.csv" using 1:2 with lines title "raw", \\
     outdir . "/trace.csv" using 1:3 with lines title "corrected"
"""


def cmd_plot_script(args) -> int:
    out_dir = ensure_out_dir(args)
    path = write_output(out_dir, "plot.gp", PLOT_SCRIPT)
    print(f"wrote {path}")
    return EXIT_OK


# --- parser / entry ----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spillreg",
        description="Spill-regulation testbed: surrogate simulator, PID baseline, PPO training.",
    )
    parser.add_argument("--version", action="version", version=f"spillreg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, variant=True, iterations=False, gains=False, seeds=False, rows=False):
        p.add_argument("--config", help="JSON config file (or a run manifest to rerun)")
        p.add_argument("--seed", type=int, help="master seed (default 0)")
        p.add_argument("--out", help="output directory (default .)")
        if variant:
            p.add_argument("--variant", choices=sorted(VARIANTS), help="variant name (default main)")
        if iterations:
            p.add_argument("--iterations", type=int, help="override training iterations")
        if gains:
            p.add_argument("--gains", help="JSON file with tuned PID gains")
        if seeds:
            p.add_argument("--seeds", help="comma-separated evaluation seeds")
        if rows:
            p.add_argument("--rows", help="comma-separated subset of ablation rows")

    p = sub.add_parser("simulate", help="emit one episode trace CSV (raw, or PID-corrected with --gains)")
    common(p, gains=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("tune-pid", help="grid-tune PID gains on the surrogate")
    common(p, seeds=True)
    p.set_defaults(func=cmd_tune_pid)

    p = sub.add_parser("train", help="run PPO training, write curve/checkpoint/report")
    common(p, iterations=True, gains=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint with mean-action rollouts")
    p.add_argument("--checkpoint", required=True, help="checkpoint JSON from train")
    p.add_argument("--seeds", help="comma-separated evaluation seeds (default: training seeds)")
    p.add_argument("--out", help="output directory (default .)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="run the variant grid and emit the comparison table")
    common(p, iterations=True, gains=True, rows=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("plot-script", help="emit a gnuplot script for the CSV outputs")
    p.add_argument("--out", help="output directory (default .)")
    p.set_defaults(func=cmd_plot_script)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DivergenceError, InvalidActionError) as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ConfigError, InputError, UsageError, CheckpointError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
