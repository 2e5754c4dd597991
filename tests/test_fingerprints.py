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
build. evaluate of a linear policy never calls its critic, so the report of
a hand-written linear checkpoint is pinned.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from spillreg.cli import EXIT_OK, MANIFEST_NAME, main

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
    (tmp_path / "checkpoint.json").write_text(json.dumps(LINEAR_CHECKPOINT), encoding="utf-8")
    out = tmp_path / "out"
    argv = [a.format(gains=gains) for a in argv] + ["--out", str(out)]
    assert main(argv) == EXIT_OK
    assert hashlib.sha256((out / data_file).read_bytes()).hexdigest() == data_sha
    manifest = json.loads((out / MANIFEST_NAME).read_text(encoding="utf-8"))
    assert manifest["payload_sha256"] == payload_sha
