"""The benchmark's hold on the package, checked on the benchmark files as they are.

benchmarks/tracer.py wraps package functions and methods by name; a layer
whose names are all gone is reported as absent, and its per-layer metrics
then read 0 without an error. benchmarks/checks.py recomputes every written
SDF with the scalar PID pieces (spillsim.reset/step, controllers.ErrorState,
pid_update, PidGains.from_dict). Both files are loaded by path here, so a
change to the package that breaks either shows up in this suite.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import subprocess
import sys

import pytest

import spillreg
from spillreg import metrics, ppo
from spillreg.controllers import LinearActor, PidGains
from spillreg.spillsim import EnvConfig, run_raw_episode

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")


def load_bench(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def checks():
    # checks.py imports its sibling workloads.py by its plain name
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, "workloads", load_bench("workloads"))
        yield load_bench("checks")


def test_every_tracer_layer_keeps_a_binding():
    # install() rewires the package, so it runs in a fresh interpreter
    script = (
        "import json, sys\n"
        "import spillreg.cli\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import tracer\n"
        "t = tracer.Tracer()\n"
        "tracer.install(t)\n"
        "layers = {f[2] for f in tracer._FUNCTIONS} | {m[3] for m in tracer._METHODS}\n"
        "print(json.dumps({'unbound': sorted(layers - t.present), 'absent': t.layer_metrics()[1]}))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(spillreg.__file__)))
    path = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", script, BENCH], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {"unbound": [], "absent": []}


def test_ppo_binds_both_baseline_episodes():
    tracer = load_bench("tracer")
    assert tracer._BASELINES == ("run_pid_episode", "run_raw_episode")
    for name in tracer._BASELINES:
        assert callable(getattr(ppo, name, None)), name


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_checks_reference_agrees_with_the_package(checks, seed):
    pinned = checks.workloads.PINNED_GAINS
    env = EnvConfig()
    noise, pid = checks.Reference().sdfs(env.to_dict(), seed, pinned)
    gains = PidGains.from_dict(pinned)
    assert math.isclose(noise, metrics.sdf(run_raw_episode(env, seed)), rel_tol=checks.REL_TOL, abs_tol=0.0)
    # report.json's sdf_pid, the value checks.py verifies
    report = ppo.build_report(env, gains, LinearActor.from_gains(gains, "pid_act"), (seed,))
    assert math.isclose(pid, report["per_seed"][0]["sdf_pid"], rel_tol=checks.REL_TOL, abs_tol=0.0)
