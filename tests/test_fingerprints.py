"""Pinned sha256 fingerprints of outputs that never pass through BLAS.

Every value in these files comes from the package's own xoshiro256** stream,
scalar Python float arithmetic (spillsim.closed_loop, used by simulate and
the training curve) and elementwise numpy float64 operations without BLAS
(the batched kernel pidbatch.batch_sdfs, used by tune-pid and, for the PID
baseline and a linear policy, by evaluate). IEEE 754
fixes each of those results, so the bytes are the same on any platform and
any numpy/BLAS build; CI reruns this file with numpy's dispatched SIMD
loops turned off to check it. A change that alters one of these hashes
changes the program's output and must say so.

Outputs that depend on BLAS kernels (checkpoint.json, report.json and
ablation.csv after a PPO update, and anything an NN policy computes) are not
pinned here: their last bits can differ between CPU kernels of one OpenBLAS
build. evaluate of a linear policy never calls its critic, so the reports of
hand-written linear checkpoints, one per state variant, are pinned. A fresh
net's record is pinned too: init_dense only scales the stream's uniforms,
elementwise, so the critic's and the NN actor's initial JSON are BLAS-free,
and so are their round trips through net_from_dict and actor_from_dict.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from spillreg import gradnet, ppo
from spillreg.cli import EXIT_OK, MANIFEST_NAME, json_default, main
from spillreg.controllers import NnActor, actor_from_dict
from spillreg.rng import Xoshiro256StarStar

# every test here runs again on numpy's scalar loops (see scalar_loops in pyproject.toml)
pytestmark = pytest.mark.scalar_loops

# tune_pid on seeds 0-8 with the default config
PINNED_GAINS = {"format_version": 1, "kp": 0.34375, "ki": 0.6, "kd": -8.750000000000001e-06, "dt": 1e-4}

# a pid_act linear policy with a nonzero action weight and bias; evaluate
# restores but never runs the (all-zero) critic
LINEAR_CHECKPOINT = {
    "format_version": 1,
    "master_seed": 0,
    "policy_variant": "pid",
    "state_variant": "pid_act",
    "actor": {
        "format_version": 1, "kind": "linear", "variant": "pid_act",
        "pid_weights": [0.5, 0.45, -6e-06], "action_weight": 0.25, "bias": 0.015, "log_std": -1.0,
    },
    "critic": {"layer_dims": [[1, 5]], "activations": ["identity"], "params": [[0.0] * 5, [0.0]]},
    "gains": PINNED_GAINS,
    "env": {},
    "train": {},
    "reward": {},
}


def linear_checkpoint(variant, weights, action_weight, bias, critic_inputs):
    """LINEAR_CHECKPOINT with another state variant's linear actor."""
    actor = {"format_version": 1, "kind": "linear", "variant": variant, "pid_weights": weights,
             "action_weight": action_weight, "bias": bias, "log_std": -1.0}
    critic = {"layer_dims": [[1, critic_inputs]], "activations": ["identity"],
              "params": [[0.0] * critic_inputs, [0.0]]}
    return dict(LINEAR_CHECKPOINT, state_variant=variant, actor=actor, critic=critic)


CHECKPOINTS = {
    "checkpoint.json": LINEAR_CHECKPOINT,
    # pid3 has no Act feature: the nonzero action_weight is read and ignored
    "checkpoint_pid3.json": linear_checkpoint("pid3", [0.5, 0.45, -6e-06], 0.25, 0.015, 4),
    # cd_over weights (CD, Over-1, P, Act) run on the scalar closed loop
    "checkpoint_cd_over.json": linear_checkpoint("cd_over", [0.1, -0.2, 0.4], 0.25, 0.015, 5),
}

# (argv after the command's --out, data file, data sha256, manifest payload_sha256)
CASES = {
    "train": (
        ["train", "--gains", "{gains}", "--iterations", "1", "--seed", "0"],
        "curve.csv",
        "1a5767d9635b2b62fc98f359b4964bb63a9569c2a06e30bbd86a5b0564676a1d",
        "f3ad6767707b9c4c21c64cc01f87f7a15c567e129997bc96950814e2c5895bd1",
    ),
    "tune-pid": (
        ["tune-pid", "--seeds", "0,1"],
        "gains.json",
        "3f5938615875f2395e919364ea12e9252af2e17cb49a05d3a2441cb4f442a512",
        "7395d30e290251aa5db090539c7b8a3dda34b07ae4bc0a26998ec98e6bc244d0",
    ),
    # nine seeds: here a compensated sum would change mean_sdf in the last bit
    "tune-pid-9": (
        ["tune-pid", "--seeds", "1,2,3,4,5,6,7,8,9"],
        "gains.json",
        "af9dddb11aee2045553eb006a39bca809d26b63226df41f3f467cb0e03d4b0d4",
        "ef7947e7d588ca11d15455d55dd84583b995fb59191745c97a3ba56e62428ee2",
    ),
    # relative paths: report.json and the manifest record the checkpoint path
    "evaluate": (
        ["evaluate", "--checkpoint", "checkpoint.json"],
        "report.json",
        "203b50def45d896fc55e21a07047ba1c34babaf094d535246a8c93ced6a94353",
        "ae1b2b4f98ca47026517e0d86b97db77e93930d633adee9852f3ac108fa278b9",
    ),
    "evaluate-pid3": (
        ["evaluate", "--checkpoint", "checkpoint_pid3.json"],
        "report.json",
        "4896cba9d0ef7a60a4fff2cfb73080b1e3989569790ad29a21c67a850db90847",
        "7c90edfde3a2e48429d6b9e0db68a9d3441b068f96a6a7494ab7089601e30541",
    ),
    "evaluate-cd_over": (
        ["evaluate", "--checkpoint", "checkpoint_cd_over.json"],
        "report.json",
        "b322bb078769d983771e6831c06d07f95a930fa7ffc89720c33451c5843c7898",
        "fee8c2c8aa2a0146b93cadb03cc53533270cbe2dbd2706196b16dcf563cbf872",
    ),
    "simulate": (
        ["simulate", "--gains", "{gains}", "--seed", "0"],
        "trace.csv",
        "b791d2387a0003718c1791de39a6debf9c271ecee9336091f2e0821624cbe325",
        "c73ef97c45e5c1f6fc11d6d55c1f9341ebce3cbc0c35e1ed26ec717a3ed7c684",
    ),
}


@pytest.mark.parametrize("command", sorted(CASES))
def test_output_fingerprint(tmp_path, monkeypatch, command):
    argv, data_file, data_sha, payload_sha = CASES[command]
    monkeypatch.chdir(tmp_path)
    gains = tmp_path / "gains.json"
    gains.write_text(json.dumps(PINNED_GAINS), encoding="utf-8")
    for name, checkpoint in CHECKPOINTS.items():
        (tmp_path / name).write_text(json.dumps(checkpoint), encoding="utf-8")
    out = tmp_path / "out"
    argv = [a.format(gains=gains) for a in argv] + ["--out", str(out)]
    assert main(argv) == EXIT_OK
    assert hashlib.sha256((out / data_file).read_bytes()).hexdigest() == data_sha
    manifest = json.loads((out / MANIFEST_NAME).read_text(encoding="utf-8"))
    assert manifest["payload_sha256"] == payload_sha


# seed -> sha256 of the sorted-key JSON of (critic record, NN actor record)
NET_RECORDS = {
    0: ("536f6360ee24375698e0cea60178cee2f25be573ad60eefde9b8c3d92db62640",
        "90c5588536fca49a798b20b1fa968a20e78414b2cdbaad9e467aa7ae2d6c5e5b"),
    7: ("7fde6c35e593dc3fa119450e4ea569c1f3be6427ce1d6f1b24d0160568a7a13a",
        "20db621e9a35dbd9fb687fbef7eb98ae8764d60cf069321e44aeacbeb3c0e4d5"),
}


def record_text(data: dict) -> str:
    """A record's sorted-key JSON in cli.write_output's encoding: numpy arrays as lists."""
    return json.dumps(data, sort_keys=True, default=json_default)


def record_sha(data: dict) -> str:
    return hashlib.sha256(record_text(data).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("seed", sorted(NET_RECORDS))
def test_fresh_net_record_fingerprint(seed):
    critic_sha, actor_sha = NET_RECORDS[seed]
    critic = gradnet.net_to_dict(ppo.make_critic(4, Xoshiro256StarStar(seed)))
    actor = NnActor.fresh("pid_act", Xoshiro256StarStar(seed)).to_dict()
    assert record_sha(critic) == critic_sha
    assert record_sha(actor) == actor_sha
    assert record_sha(gradnet.net_to_dict(gradnet.net_from_dict(critic))) == critic_sha
    assert record_sha(actor_from_dict(actor).to_dict()) == actor_sha
