"""End-to-end CLI behavior through main(argv).

One test runs a command in a fresh interpreter, to see which modules a
command loads; pytest itself has already loaded hashlib in this one.
"""

from __future__ import annotations

import calendar
import csv
import gc
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_fingerprints import LINEAR_CHECKPOINT
import spillreg
from spillreg import cli, gradnet, ppo
from spillreg.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_IO, EXIT_OK, MANIFEST_NAME, main, payload_digest
from spillreg.controllers import NnActor
from spillreg.rng import Xoshiro256StarStar


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run(*argv):
    return main([str(a) for a in argv])


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, default=cli.json_default), encoding="utf-8")
    return path


@pytest.fixture()
def gains_file(tmp_path, tuned_gains):
    path = tmp_path / "gains.json"
    path.write_text(json.dumps(tuned_gains.to_dict()), encoding="utf-8")
    return path


def with_gains_at_its_dt(config, gains):
    """config with a gains section at its env dt (default 1e-4): train and ablate refuse gains of another dt."""
    return dict(config, gains=dict(gains.to_dict(), dt=config.get("env", {}).get("dt", 1e-4)))


def test_version_flag(capsys):
    # argparse's version action exits rather than returning
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert "spillreg" in capsys.readouterr().out


def test_simulate_unregulated(tmp_path):
    out = tmp_path / "sim"
    assert run("simulate", "--out", out, "--seed", "3") == EXIT_OK
    lines = (out / "trace.csv").read_text().strip().splitlines()
    assert lines[0] == "t,raw,corrected,action"
    assert len(lines) == 1 + 430
    for line in lines[1:4]:
        _, raw, corrected, action = line.split(",")
        assert action == "0"
        assert raw == corrected
    manifest = read_json(out / MANIFEST_NAME)
    assert manifest["command"] == "simulate"
    assert manifest["outputs"]["trace_csv"] == "trace.csv"
    assert manifest["sdf_raw"] == manifest["sdf_corrected"]
    assert len(manifest["payload_sha256"]) == 64


def test_manifest_created_utc_is_the_current_utc_second(tmp_path):
    before = time.time()
    assert run("simulate", "--out", tmp_path, "--seed", "1") == EXIT_OK
    after = time.time()
    stamp = read_json(tmp_path / MANIFEST_NAME)["created_utc"]
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", stamp)
    seconds = calendar.timegm(time.strptime(stamp, "%Y-%m-%dT%H:%M:%SZ"))
    assert before - 2 <= seconds <= after + 2


@pytest.mark.other_pythons
@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=300))
def test_manifest_digest_matches_hashlib(data):
    assert payload_digest(data) == hashlib.sha256(data).hexdigest()


# signed zeros, the smallest subnormal and normal, the largest finite, NaN, infinities, inexact decimals
EDGE_FLOATS = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308,
               math.nan, math.inf, -math.inf, 0.1, 1.0 / 3.0, -8.750000000000001e-06]


@pytest.mark.other_pythons
@pytest.mark.parametrize("indent", [None, 2])
def test_write_output_writes_arrays_as_their_lists(tmp_path, indent):
    """A record that holds float64 arrays is written byte for byte as the same record holding lists."""
    values = np.array(EDGE_FLOATS)
    as_arrays = {"params": [values, values[2:5].copy(), values[:0]], "nested": {"m": [values[::-1].copy()]},
                 "lr": 1e-4, "step": 7}
    as_lists = {"params": [values.tolist(), values[2:5].tolist(), []], "nested": {"m": [values[::-1].tolist()]},
                "lr": 1e-4, "step": 7}
    written = cli.write_output(tmp_path, "arrays.json", as_arrays, indent=indent)
    expected = cli.write_output(tmp_path, "lists.json", as_lists, indent=indent)
    with open(written, "rb") as a, open(expected, "rb") as b:
        data = a.read()
        assert data == b.read()
    for text in (b"-0.0", b"5e-324", b"2.2250738585072014e-308", b"1e+308", b"-1.7976931348623157e+308",
                 b"NaN", b"-Infinity", b"0.3333333333333333"):
        assert text in data
    # the text reads back as the array's bits
    assert np.array(json.loads(data)["params"][0]).tobytes() == values.tobytes()


@pytest.mark.other_pythons
@pytest.mark.parametrize("value", [object(), {1.0}, b"bytes", 1j, np.int64(3), np.float32(0.5), np.bool_(True)])
def test_write_output_refuses_objects_json_cannot_write(tmp_path, value):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        cli.write_output(tmp_path, "x.json", {"params": [np.zeros(2), value]}, indent=None)


@pytest.mark.other_pythons
def test_commands_load_no_openssl(tmp_path):
    # import hashlib loads OpenSSL's libcrypto (~3.5 MB resident) through
    # _hashlib; numpy imports datetime itself, so _datetime is not checked.
    script = (
        "import sys\n"
        "import spillreg.cli\n"
        "code = spillreg.cli.main(['simulate', '--out', sys.argv[1]])\n"
        "print(code, sorted(m for m in ('hashlib', '_hashlib') if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(spillreg.__file__)))
    path = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"{EXIT_OK} []"
    assert (tmp_path / MANIFEST_NAME).exists()


def test_simulate_with_gains_regulates(tmp_path, gains_file):
    out = tmp_path / "sim"
    assert run("simulate", "--out", out, "--seed", "0", "--gains", gains_file) == EXIT_OK
    manifest = read_json(out / MANIFEST_NAME)
    assert manifest["sdf_corrected"] > manifest["sdf_raw"]


def test_simulate_env_override(tmp_path):
    cfg = write_config(tmp_path, {"env": {"steps_per_episode": 25}})
    out = tmp_path / "sim"
    assert run("simulate", "--out", out, "--config", cfg) == EXIT_OK
    lines = (out / "trace.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 25


def test_tune_pid_writes_gains(tmp_path):
    out = tmp_path / "tuned"
    assert run("tune-pid", "--out", out, "--seeds", "0") == EXIT_OK
    gains = read_json(out / "gains.json")
    assert gains["format_version"] == 1
    assert {"kp", "ki", "kd", "dt", "mean_sdf", "seeds", "manifest"} <= set(gains)
    assert gains["seeds"] == [0]
    assert gains["manifest"] == MANIFEST_NAME


def test_train_outputs_and_manifest_rerun(tmp_path, gains_file):
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert run("train", "--out", first, "--iterations", "2", "--gains", gains_file) == EXIT_OK
    for name in ("curve.csv", "checkpoint.json", "report.json", MANIFEST_NAME):
        assert (first / name).exists()
    assert run("train", "--out", second, "--config", first / MANIFEST_NAME) == EXIT_OK
    assert (first / "curve.csv").read_bytes() == (second / "curve.csv").read_bytes()
    assert (first / "checkpoint.json").read_bytes() == (second / "checkpoint.json").read_bytes()


def test_train_iterations_flag_overrides_config(tmp_path, gains_file):
    cfg = write_config(tmp_path, {"train": {"iterations": 9, "seeds": [0]}})
    out = tmp_path / "t"
    assert run(
        "train", "--out", out, "--config", cfg, "--iterations", "3", "--gains", gains_file
    ) == EXIT_OK
    rows = (out / "curve.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 3


# training reads the reward's alpha, so a train.alpha that differs would be
# recorded in the manifest and checkpoint without being used
@pytest.mark.parametrize("payload, argv, text", [
    ({"train": {"alpha": 0.9}}, ["train", "--iterations", "0"], "train.alpha 0.9 differs from the reward alpha 0.5"),
    ({"train": {"alpha": 0.9}, "variant": "ema01"}, ["simulate"], "train.alpha 0.9 differs from the reward alpha 0.1"),
    ({"train": {"alpha": 0.9}, "reward": {"alpha": 0.3}}, ["ablate", "--iterations", "0", "--rows", "main"],
     "train.alpha 0.9 differs from the reward alpha 0.3"),
])
def test_train_alpha_that_differs_from_the_reward_alpha_is_config_error(tmp_path, gains_file, capsys,
                                                                         payload, argv, text):
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "o"
    assert run(*argv, "--config", cfg, "--gains", gains_file, "--out", out) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert text in err
    assert "Traceback" not in err
    assert not out.exists()
    agreeing = write_config(tmp_path, {"train": {"alpha": 0.9}, "variant": "ema09"}, name="agreeing.json")
    assert run("simulate", "--config", agreeing, "--out", out) == EXIT_OK


def test_train_variant_selects_reward(tmp_path, gains_file):
    out = tmp_path / "t"
    assert run(
        "train", "--out", out, "--iterations", "1", "--variant", "sum",
        "--gains", gains_file,
    ) == EXIT_OK
    ck = read_json(out / "checkpoint.json")
    assert ck["reward"]["kind"] == "neg_sum"
    report = read_json(out / "report.json")
    assert len(report["per_seed"]) == 9


def test_evaluate_reads_checkpoint(tmp_path, gains_file):
    train_dir = tmp_path / "t"
    run("train", "--out", train_dir, "--iterations", "1", "--gains", gains_file)
    out = tmp_path / "e"
    assert run(
        "evaluate", "--checkpoint", train_dir / "checkpoint.json",
        "--out", out, "--seeds", "0,2",
    ) == EXIT_OK
    report = read_json(out / "report.json")
    assert [row["seed"] for row in report["per_seed"]] == [0, 2]
    assert report["checkpoint"].endswith("checkpoint.json")


def test_ablate_subset_csv_parses(tmp_path, gains_file):
    out = tmp_path / "ab"
    assert run(
        "ablate", "--out", out, "--rows", "main,pid3", "--iterations", "1",
        "--gains", gains_file,
    ) == EXIT_OK
    text = (out / "ablation.csv").read_text()
    body = "\n".join(l for l in text.splitlines() if not l.startswith("#"))
    rows = list(csv.reader(io.StringIO(body)))
    assert rows[0] == ["vs_pid", "vs_noise", "policy", "reward", "algo", "state"]
    assert all(len(r) == 6 for r in rows)
    assert rows[1][5] == "P,I,D,Act"
    assert rows[2][5] == "P,I,D"
    assert rows[3][2].startswith("MEAN(2")
    manifest = read_json(out / MANIFEST_NAME)
    assert manifest["shared_seed_schedule"] is True


def test_ablate_row_labels(tmp_path, gains_file):
    out = tmp_path / "ab"
    assert run("ablate", "--out", out, "--iterations", "0", "--gains", gains_file) == EXIT_OK
    text = (out / "ablation.csv").read_text()
    rows = list(csv.reader(io.StringIO("\n".join(l for l in text.splitlines() if not l.startswith("#")))))
    assert [r[2:] for r in rows[1:8]] == [
        ["PID", "EMA a=0.1", "PPO", "P,I,D,Act"],
        ["NN", "EMA a=0.5", "PPO", "P,I,D,Act"],
        ["PID", "EMA a=0.9", "PPO", "P,I,D,Act"],
        ["PID", "-SUM", "PPO", "P,I,D,Act"],
        ["PID", "EMA a=0.5", "PPO", "P,I,D"],
        ["PID", "EMA a=0.5", "PPO", "CD,Over-1,P,Act"],
        ["PID", "EMA a=0.5", "PPO", "P,I,D,Act"],
    ]
    assert rows[8][2] == "MEAN(7 rows)"


def test_ablate_rejects_unknown_row(tmp_path):
    assert run("ablate", "--out", tmp_path / "x", "--rows", "main,sac") == EXIT_CONFIG


def test_ablate_rejects_an_empty_row_list_before_tuning(tmp_path, capsys, monkeypatch):
    def no_tuning(*args, **kwargs):
        raise AssertionError("tune_pid called")

    monkeypatch.setattr(cli, "tune_pid", no_tuning)
    for rows in (",", ""):  # an empty --rows is a flag given, not a flag left out
        assert run("ablate", "--out", tmp_path / "x", "--rows", rows) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--rows must name at least one row" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x" / "ablation.csv").exists()


@pytest.mark.parametrize("command", ["tune-pid", "evaluate"])
def test_an_empty_seed_list_is_config_error(tmp_path, capsys, monkeypatch, command):
    def no_tuning(*args, **kwargs):
        raise AssertionError("tune_pid called")

    monkeypatch.setattr(cli, "tune_pid", no_tuning)
    checkpoint = write_config(tmp_path, LINEAR_CHECKPOINT, name="checkpoint.json")
    argv = [command, "--seeds", ""] + (["--checkpoint", checkpoint] if command == "evaluate" else [])
    assert run(*argv, "--out", tmp_path / "o") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "--seeds must name at least one seed" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o" / MANIFEST_NAME).exists()


@pytest.mark.parametrize("overrides, code, text", [
    # a dt near the smallest double makes D infinite at step 1 of each row's rollout
    ({"env": {"dt": 1e-310}}, EXIT_CONFIG, "config error: rollout step 1: "),
    ({"train": {"lr": 1e300}}, EXIT_DIVERGED, "divergence: non-finite loss in ppo update"),
])
def test_ablate_exits_with_the_first_row_error_when_no_row_trains(tmp_path, tuned_gains, capsys, overrides, code, text):
    cfg = write_config(tmp_path, with_gains_at_its_dt(overrides, tuned_gains))
    out = tmp_path / "o"
    argv = ("ablate", "--rows", "main,sum", "--iterations", "1", "--config", cfg)
    assert run(*argv, "--out", out) == code
    err = capsys.readouterr().err
    assert err.count("failed: ") == 2 and text in err
    assert "Traceback" not in err
    assert (out / "ablation.csv").exists()
    assert sorted(read_json(out / MANIFEST_NAME)["row_errors"]) == ["main", "sum"]


@pytest.mark.parametrize("command", [("train", "--iterations", "0"), ("ablate", "--rows", "main,sum")])
@pytest.mark.parametrize("with_gains", [True, False])
def test_a_minibatch_longer_than_an_episode_is_refused_before_any_file(
        tmp_path, gains_file, capsys, monkeypatch, command, with_gains):
    def no_tuning(*args, **kwargs):
        raise AssertionError("tune_pid called")

    monkeypatch.setattr(cli, "tune_pid", no_tuning)
    cfg = write_config(tmp_path, {"train": {"minibatch": 1000}})
    out = tmp_path / "o"
    gains = ("--gains", gains_file) if with_gains else ()
    assert run(*command, *gains, "--config", cfg, "--out", out) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: minibatch 1000 exceeds rollout length 430" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", [("train", "--iterations", "1"), ("ablate", "--rows", "main,sum")])
@pytest.mark.parametrize("in_config", [False, True])
def test_gains_of_another_dt_are_refused_before_any_file(tmp_path, tuned_gains, capsys, command, in_config):
    gains = dict(tuned_gains.to_dict(), dt=2e-4)
    if in_config:
        source = ("--config", write_config(tmp_path, {"gains": gains}))
    else:
        source = ("--gains", write_config(tmp_path, gains, name="gains.json"))
    out = tmp_path / "o"
    assert run(*command, *source, "--out", out) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: gains.dt=0.0002 does not match config.dt=0.0001" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "tune-pid", "train", "ablate"])
def test_a_one_step_episode_is_refused_before_any_file(tmp_path, capsys, command):
    # metrics.sdf needs two samples: no command could score such an episode
    cfg = write_config(tmp_path, {"env": {"steps_per_episode": 1}})
    out = tmp_path / "o"
    assert run(command, "--config", cfg, "--out", out) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "steps_per_episode must be an integer >= 2, got 1" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "train", "evaluate"])
def test_an_optimizer_other_than_adam_is_config_error(tmp_path, capsys, command):
    train_section = {"optimizer": "sgd", "iterations": 1}
    if command == "evaluate":
        checkpoint = write_config(tmp_path, dict(LINEAR_CHECKPOINT, train=train_section), name="checkpoint.json")
        argv = ("evaluate", "--checkpoint", checkpoint)
    else:
        argv = (command, "--config", write_config(tmp_path, {"train": train_section}))
    assert run(*argv, "--out", tmp_path / "o") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: optimizer must be 'adam', got 'sgd'" in err and "Traceback" not in err
    assert not (tmp_path / "o" / MANIFEST_NAME).exists()


def test_ablate_exits_ok_when_some_row_trains(tmp_path, gains_file, capsys, monkeypatch):
    real_train = ppo.train

    def nn_fails(*args, **kwargs):
        if args[0].policy_variant == "nn":
            raise cli.ConfigError("no nn today")
        return real_train(*args, **kwargs)

    monkeypatch.setattr(ppo, "train", nn_fails)
    out = tmp_path / "o"
    assert run("ablate", "--rows", "nn,main", "--iterations", "0", "--gains", gains_file, "--out", out) == EXIT_OK
    assert "row 'nn' failed: ConfigError: no nn today" in capsys.readouterr().err
    assert read_json(out / MANIFEST_NAME)["row_errors"] == {"nn": "ConfigError: no nn today"}


def test_ablate_lets_go_of_a_row_result_before_the_next_row_trains(tmp_path, gains_file, monkeypatch):
    # the nn row's TrainResult (actor, report, curve, checkpoint) is dead when the cd_over row starts
    real_train = ppo.train
    results, alive_at_start = [], []

    def tracking_train(*args, **kwargs):
        alive_at_start.append([ref() is not None for ref in results])
        result = real_train(*args, **kwargs)
        results.append(weakref.ref(result))
        return result

    monkeypatch.setattr(ppo, "train", tracking_train)
    out = tmp_path / "o"
    assert run("ablate", "--rows", "nn,cd_over", "--iterations", "1", "--gains", gains_file, "--out", out) == EXIT_OK
    assert alive_at_start == [[], [False]]
    assert results[1]() is None


def test_ablate_keeps_no_failed_row_alive(tmp_path, tuned_gains, capsys, monkeypatch):
    # a failed row's traceback holds its train frame: actor, critic and their joined parameters
    real_train = ppo.train

    def live_nets():
        gc.collect()
        return sum(isinstance(obj, gradnet.DenseNet) for obj in gc.get_objects())

    def counting_train(*args, **kwargs):
        nets_at_start.append(live_nets() - before)
        return real_train(*args, **kwargs)

    monkeypatch.setattr(ppo, "train", counting_train)
    # a dt near the smallest double makes D infinite at step 1: the rollout
    # raises an InputError whose cause's traceback holds the row's frames too
    for i, (config, rows, code, error) in enumerate([
        ({"train": {"lr": 1e300}}, "main,sum,pid3,ema01", EXIT_DIVERGED, "DivergenceError: non-finite loss"),
        ({"train": {"lr": 1e300}}, "main,main", EXIT_DIVERGED, "DivergenceError: non-finite loss"),
        ({"env": {"dt": 1e-310}}, "main,sum,pid3", EXIT_CONFIG, "InputError: rollout step 1: "),
    ]):
        nets_at_start, before = [], live_nets()
        out, cfg = tmp_path / f"o{i}", write_config(tmp_path, with_gains_at_its_dt(config, tuned_gains), f"c{i}.json")
        argv = ("ablate", "--rows", rows, "--iterations", "2", "--config", cfg, "--out", out)
        assert run(*argv) == code
        names = rows.split(",")
        assert nets_at_start == [0] * len(names)
        err = capsys.readouterr().err
        assert err.count(f"failed: {error}") == len(names) and "Traceback" not in err
        # a repeated row is one entry of row_errors, and still no row trained
        assert sorted(read_json(out / MANIFEST_NAME)["row_errors"]) == sorted(set(names))


@pytest.mark.other_pythons
def test_train_and_ablate_call_ppo_train_through_the_module(tmp_path, gains_file, monkeypatch):
    # the benchmark worker times iterations by replacing ppo.train
    calls = []
    real_train = ppo.train

    def recording_train(*args, **kwargs):
        calls.append(args[0].policy_variant)
        return real_train(*args, **kwargs)

    monkeypatch.setattr(ppo, "train", recording_train)
    assert run("train", "--iterations", "0", "--gains", gains_file, "--out", tmp_path / "t") == EXIT_OK
    assert run("ablate", "--rows", "main,nn", "--iterations", "0", "--gains", gains_file,
               "--out", tmp_path / "a") == EXIT_OK
    assert calls == ["pid", "pid", "nn"]


def test_plot_script_written(tmp_path):
    out = tmp_path / "p"
    assert run("plot-script", "--out", out) == EXIT_OK
    text = (out / "plot.gp").read_text()
    assert "curve.csv" in text and "trace.csv" in text


def test_missing_config_is_io_error(tmp_path):
    assert run("simulate", "--config", tmp_path / "nope.json", "--out", tmp_path / "o") == EXIT_IO


def test_invalid_json_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json", encoding="utf-8")
    assert run("simulate", "--config", bad, "--out", tmp_path / "o") == EXIT_CONFIG


def test_unknown_config_section_rejected(tmp_path):
    cfg = write_config(tmp_path, {"environment": {}})
    assert run("simulate", "--config", cfg, "--out", tmp_path / "o") == EXIT_CONFIG


def test_unknown_env_field_rejected(tmp_path):
    cfg = write_config(tmp_path, {"env": {"stepss": 3}})
    assert run("simulate", "--config", cfg, "--out", tmp_path / "o") == EXIT_CONFIG


def test_unknown_reward_field_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"reward": {"kind": "neg_ema", "alfa": 0.5}})
    assert run("simulate", "--config", cfg, "--out", tmp_path / "o") == EXIT_CONFIG
    assert "unknown reward config field(s): ['alfa']" in capsys.readouterr().err


def test_unknown_variant_rejected(tmp_path):
    # argparse enforces the variant choices and exits with the config code
    with pytest.raises(SystemExit) as exc:
        run("train", "--out", tmp_path / "o", "--variant", "sac")
    assert exc.value.code == EXIT_CONFIG


def test_nonfinite_entropy_coef_is_config_error(tmp_path, gains_file):
    # json accepts NaN; it must be refused as config, not diverge in training
    cfg = tmp_path / "config.json"
    cfg.write_text('{"train": {"entropy_coef": NaN}}', encoding="utf-8")
    argv = ("train", "--gains", gains_file, "--config", cfg, "--iterations", "1", "--out", tmp_path / "o")
    assert run(*argv) == EXIT_CONFIG
    assert not (tmp_path / "o" / "checkpoint.json").exists()


@pytest.mark.parametrize(
    "field, value",
    [("iterations", 1.5), ("minibatch", 64.0), ("epochs_per_iter", 2.5), ("seed_rotation_period", 1.5)],
)
def test_float_count_in_config_is_config_error(tmp_path, gains_file, capsys, field, value):
    cfg = write_config(tmp_path, {"train": {field: value}})
    assert run("train", "--gains", gains_file, "--config", cfg, "--out", tmp_path / "o") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "checkpoint.json").exists()


@pytest.mark.parametrize(
    "payload, field",
    [
        ({"train": {"seeds": [1.5]}}, "seeds"),
        ({"train": {"seeds": [0, "2"]}}, "seeds"),
        ({"train": {"seeds": [True]}}, "seeds"),
        ({"train": {"iterations": True}}, "iterations"),
        ({"env": {"steps_per_episode": True}}, "steps_per_episode"),
        ({"env": {"steps_per_episode": 40.0}}, "steps_per_episode"),
        ({"master_seed": 1.5}, "master_seed"),
        ({"master_seed": False}, "master_seed"),
    ],
)
def test_non_integer_in_config_is_config_error(tmp_path, capsys, payload, field):
    cfg = write_config(tmp_path, payload)
    assert run("tune-pid", "--config", cfg, "--out", tmp_path / "o") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "gains.json").exists()


# a JSON bool or string where a float belongs; float() would have taken both
@pytest.mark.parametrize(
    "payload, field",
    [
        ({"env": {"ou_sigma": True}}, "ou_sigma"),
        ({"env": {"ripple_amps": ["0.1", True]}}, "ripple_amps"),
        ({"env": {"ripple_amps": "01"}}, "ripple_amps"),
        ({"reward": {"alpha": True}}, "alpha"),
        ({"train": {"lr": "1e-4"}}, "lr"),
        ({"train": {"lr": True}}, "lr"),
        ({"gains": {"format_version": 1, "kp": 0.34375, "ki": True, "kd": 0.0, "dt": 1e-4}}, "ki"),
        ({"gains": {"format_version": 1, "kp": "0.34375", "ki": 0.6, "kd": 0.0, "dt": 1e-4}}, "kp"),
        # null, a list and an object: no number either
        ({"env": {"ou_sigma": None}}, "ou_sigma"),
        ({"env": {"ripple_amps": None}}, "ripple_amps"),
        ({"env": {"ripple_freqs": [60.0, None]}}, "ripple_freqs"),
        ({"reward": {"alpha": {}}}, "alpha"),
        ({"train": {"lr": [1e-4]}}, "lr"),
        ({"gains": {"format_version": 1, "kp": 0.34375, "ki": 0.6, "kd": None, "dt": 1e-4}}, "kd"),
    ],
)
def test_non_number_in_float_field_is_config_error(tmp_path, capsys, payload, field):
    cfg = write_config(tmp_path, payload)
    assert run("tune-pid", "--config", cfg, "--out", tmp_path / "o") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{field} " in err and "must be a number" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "gains.json").exists()


def test_json_integers_in_float_fields_keep_their_bytes(tmp_path):
    cfg = write_config(tmp_path, {"env": {"ou_sigma": 0, "ripple_amps": [0, 1]}})
    assert run("simulate", "--config", cfg, "--out", tmp_path / "o") == EXIT_OK
    text = (tmp_path / "o" / MANIFEST_NAME).read_text(encoding="utf-8")
    assert '"ou_sigma": 0,' in text
    assert read_json(tmp_path / "o" / MANIFEST_NAME)["config"]["env"]["ripple_amps"] == [0.0, 1.0]


# every entry point of a seed: the generators would reduce it mod 2**64
@pytest.mark.parametrize("argv, payload, text", [
    (["simulate", "--seed=-1"], None, "--seed must lie in [0, 2**64), got -1"),
    (["simulate", f"--seed={2**64}"], None, f"--seed must lie in [0, 2**64), got {2**64}"),
    (["tune-pid", "--seeds=0,-1"], None, "--seeds entry must lie in [0, 2**64), got -1"),
    (["simulate"], {"master_seed": 2**64}, f"master_seed must lie in [0, 2**64), got {2**64}"),
    (["tune-pid"], {"master_seed": -1}, "master_seed must lie in [0, 2**64), got -1"),
    (["tune-pid"], {"train": {"seeds": [0, 2**64 + 3]}}, f"seeds entry must lie in [0, 2**64), got {2**64 + 3}"),
])
def test_seed_outside_64_bits_is_config_error(tmp_path, capsys, argv, payload, text):
    if payload is not None:
        argv = argv + ["--config", str(write_config(tmp_path, payload))]
    assert run(*argv, "--out", tmp_path / "o") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert text in err
    assert "Traceback" not in err
    assert not (tmp_path / "o" / MANIFEST_NAME).exists()


@pytest.mark.parametrize("env", [{"dt": 1e306}, {"ripple_freqs": [1e308, 180.0]}])
@pytest.mark.parametrize("command", ["simulate", "tune-pid", "train"])
def test_overflowing_ripple_phase_is_config_error(tmp_path, capsys, command, env):
    cfg = write_config(tmp_path, {"env": env, "train": {"iterations": 1}})
    assert run(command, "--config", cfg, "--out", tmp_path / "o") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "ripple_freqs" in err and "with dt" in err and "overflow the ripple phase" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o" / MANIFEST_NAME).exists()


# finite ripple samples whose variance overflows float64: their SDF would be NaN
@pytest.mark.parametrize("command", ["simulate", "train"])
def test_a_trace_whose_variance_overflows_is_config_error(tmp_path, capsys, command):
    cfg = write_config(tmp_path, {"env": {"ripple_amps": [1e308, 1e308]}, "train": {"iterations": 1}})
    out = tmp_path / "o"
    assert run(command, "--config", cfg, "--out", out) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "sdf trace variance is non-finite (nan)" in err
    assert "Traceback" not in err
    assert not any("NaN" in path.read_text() for path in out.iterdir())
    assert not (out / "trace.csv").exists() and not (out / MANIFEST_NAME).exists()


def test_largest_seed_is_accepted(tmp_path):
    assert run("simulate", f"--seed={2**64 - 1}", "--out", tmp_path) == EXIT_OK
    assert read_json(tmp_path / MANIFEST_NAME)["master_seed"] == 2**64 - 1


def test_tune_pid_command_takes_five_kernel_passes(tmp_path, kernel_passes):
    assert run("tune-pid", "--seeds", "0,1,2,3,4,5,6,7,8", "--out", tmp_path) == EXIT_OK
    # the grid as 38 + 37, then the three refinement rounds; mean_sdf is not scored again
    assert kernel_passes == [38, 37, 26, 35, 26]


def test_evaluate_of_a_linear_policy_takes_one_kernel_pass(tmp_path, kernel_passes):
    checkpoint = write_config(tmp_path, LINEAR_CHECKPOINT, name="checkpoint.json")
    assert run("evaluate", "--checkpoint", checkpoint, "--out", tmp_path / "e") == EXIT_OK
    # the PID baseline and the policy, each on all nine seeds
    assert kernel_passes == [2]


def test_nonfinite_action_exits_diverged_without_traceback(tmp_path, capsys):
    # ki*I and kd*D overflow to opposite infinities: the PID action is NaN
    gains = write_config(tmp_path, {"format_version": 1, "kp": 0, "ki": 1e308, "kd": -1e308, "dt": 1e-4},
                         name="gains.json")
    assert run("simulate", "--gains", gains, "--out", tmp_path / "o") == EXIT_DIVERGED
    err = capsys.readouterr().err
    assert "action must be a finite number" in err
    assert "Traceback" not in err


def test_nonfinite_env_value_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text('{"env": {"dt": Infinity}}', encoding="utf-8")
    assert run("simulate", "--config", cfg, "--out", tmp_path / "o") == EXIT_CONFIG
    assert "dt must be finite" in capsys.readouterr().err


# JSON's 1e400 parses to inf; before this check, lr inf diverged in iteration 0 (exit 3)
@pytest.mark.parametrize("field", ["lr", "value_coef", "clip_eps"])
def test_nonfinite_train_value_is_config_error(tmp_path, gains_file, capsys, field):
    cfg = tmp_path / "config.json"
    cfg.write_text('{"train": {"%s": 1e400}}' % field, encoding="utf-8")
    argv = ("train", "--gains", gains_file, "--config", cfg, "--iterations", "1", "--out", tmp_path / "o")
    assert run(*argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{field} must be finite" in err
    assert "Traceback" not in err and "Warning" not in err
    assert not (tmp_path / "o" / MANIFEST_NAME).exists()


@pytest.mark.parametrize("seed, text", [
    ("x", "must be an integer, got 'x'"),
    (1.5, "must be an integer, got 1.5"),
    (True, "must be an integer, got True"),
    (-1, "must lie in [0, 2**64), got -1"),
    (2**64, f"must lie in [0, 2**64), got {2**64}"),
])
def test_evaluate_refuses_a_checkpoint_master_seed_outside_64_bits(tmp_path, capsys, seed, text):
    path = write_config(tmp_path, dict(LINEAR_CHECKPOINT, master_seed=seed), name="checkpoint.json")
    assert run("evaluate", "--checkpoint", path, "--out", tmp_path / "o") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"checkpoint master_seed {text}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o" / MANIFEST_NAME).exists()


# finite weights whose trainable form (times the feature scales 8 and 4096) overflows
@pytest.mark.parametrize("weights", [[0.0, 0.0, 1e308], [0.0, 3e307, 0.0]])
def test_evaluate_refuses_a_policy_whose_scaled_weights_overflow(tmp_path, capsys, weights):
    actor = dict(LINEAR_CHECKPOINT["actor"], pid_weights=weights, action_weight=0.0)
    path = write_config(tmp_path, dict(LINEAR_CHECKPOINT, actor=actor), name="checkpoint.json")
    assert run("evaluate", "--checkpoint", path, "--out", tmp_path / "o") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "policy parameters must be finite" in err
    assert "Traceback" not in err


def nn_checkpoint(tmp_path, scales):
    """LINEAR_CHECKPOINT with a fresh pid_act NN actor whose feature_scales entry is scales (None: absent)."""
    actor = NnActor.fresh("pid_act", Xoshiro256StarStar(0)).to_dict()
    del actor["feature_scales"]
    if scales is not None:
        actor["feature_scales"] = scales
    return write_config(tmp_path, dict(LINEAR_CHECKPOINT, policy_variant="nn", actor=actor), name="checkpoint.json")


@pytest.mark.parametrize("entry, value", [("weight", math.nan), ("weight", math.inf), ("log_std", math.nan),
                                          ("log_std", -math.inf)])
def test_evaluate_refuses_an_nn_checkpoint_with_a_nonfinite_parameter(tmp_path, capsys, entry, value):
    # as a linear checkpoint's: log_std is checked before its clamp, which would turn -inf into -5
    data = read_json(nn_checkpoint(tmp_path, None))
    if entry == "weight":
        data["actor"]["net"]["params"][2][7] = value
    else:
        data["actor"]["log_std"] = value
    path = write_config(tmp_path, data, name="checkpoint.json")
    assert run("evaluate", "--checkpoint", path, "--out", tmp_path / "o") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: policy parameters must be finite" in err and "Traceback" not in err
    assert not (tmp_path / "o" / "report.json").exists()


# the net is defined over the variant's scales, the only ones the package writes
@pytest.mark.parametrize("scales", [[1.0, 8.0, 4096.0], [1.0, 0.0, 4096.0, 1.0], [True, 8.0, 4096.0, True]])
def test_evaluate_refuses_an_nn_checkpoint_with_other_feature_scales(tmp_path, capsys, scales):
    assert run("evaluate", "--checkpoint", nn_checkpoint(tmp_path, scales), "--out", tmp_path / "o") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "feature_scales must be the pid_act variant's [1.0, 8.0, 4096.0, 1.0]" in err
    assert "Traceback" not in err


def test_evaluate_accepts_an_nn_checkpoint_without_feature_scales(tmp_path):
    with_scales, without = tmp_path / "a", tmp_path / "b"
    with_scales.mkdir(), without.mkdir()
    assert run("evaluate", "--checkpoint", nn_checkpoint(with_scales, [1, 8, 4096, 1]), "--out", with_scales) == EXIT_OK
    assert run("evaluate", "--checkpoint", nn_checkpoint(without, None), "--out", without) == EXIT_OK
    assert read_json(with_scales / "report.json")["per_seed"] == read_json(without / "report.json")["per_seed"]


@pytest.mark.parametrize("command,flag,text", [
    ("evaluate", "--checkpoint", "{bad"),
    ("evaluate", "--checkpoint", "[1,2]"),
    ("evaluate", "--checkpoint", '{"format_version": 1}'),
    ("simulate", "--gains", "[1,2]"),
    ("simulate", "--gains", '{"format_version":1,"kp":0.3}'),
    ("simulate", "--config", '{"env": {"ou_rho": "x"}}'),
])
def test_malformed_file_is_config_error(tmp_path, capsys, command, flag, text):
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    assert run(command, flag, path, "--out", tmp_path / "o") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(path) in err
    assert "Traceback" not in err


@pytest.mark.other_pythons
def test_train_divergence_keeps_the_initial_checkpoint(tmp_path, capsys):
    # lr 1e300 overflows the first Adam step of iteration 0, so the last good
    # checkpoint is the initial state: its bytes involve no BLAS product
    gains = write_config(tmp_path, {"format_version": 1, "kp": 0.34375, "ki": 0.6,
                                    "kd": -8.750000000000001e-06, "dt": 1e-4}, name="gains.json")
    cfg = write_config(tmp_path, {"train": {"lr": 1e300}})
    out = tmp_path / "o"
    argv = ("train", "--gains", gains, "--config", cfg, "--iterations", "3", "--out", out)
    assert run(*argv) == EXIT_DIVERGED
    err = capsys.readouterr().err
    assert "non-finite loss in ppo update" in err
    assert "Traceback" not in err
    data = (out / "checkpoint.json").read_bytes()
    assert json.loads(data)["iterations_done"] == 0
    assert hashlib.sha256(data).hexdigest() == (
        "944b6bfd5766c5e9e7adfea48c4fa0dd53ba77a6e50a76485093fdb2a401e7eb")


@pytest.mark.parametrize("change,text", [
    ({"policy_variant": "nn"}, "policy_variant"),
    ({"state_variant": "cd_over"}, "state_variant"),
    ({"critic": {"layer_dims": [[1, 2]], "activations": ["identity"], "params": [[0.0, 0.0], [0.0]]}},
     "critic maps 2 -> 1"),
    ({"critic": {"layer_dims": [[2, 5]], "activations": ["identity"], "params": [[0.0] * 10, [0.0, 0.0]]}},
     "critic maps 5 -> 2"),
    ({"format_version": 99}, "format_version 99 unsupported"),
    # a zero-width hidden layer would make a 5 -> 1 critic that outputs its bias
    ({"critic": {"layer_dims": [[0, 5], [1, 0]], "activations": ["tanh", "identity"], "params": [[], [], [], [0.0]]}},
     "every layer dim must be >= 1"),
])
def test_evaluate_refuses_a_checkpoint_whose_parts_disagree(tmp_path, capsys, change, text):
    path = write_config(tmp_path, dict(LINEAR_CHECKPOINT, **change), name="checkpoint.json")
    assert run("evaluate", "--checkpoint", path, "--out", tmp_path / "o") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert text in err
    assert "Traceback" not in err
