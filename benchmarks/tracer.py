"""Per-module tracing of spillreg, installed from outside the package.

`install()` wraps the public functions of rng, spillsim, controllers, metrics,
gradnet, ppo and cli in every module namespace that binds them (e.g.
`tune_pid` is bound in controllers, ppo and cli), so calls are seen whichever
module makes them. Nothing inside src/ is edited.

Two kinds of wrapper exist:

* per-step calls (env step, tracker/reward pushes, actor steps, rng draws,
  gradnet calls) only add to a counter and to summed time;
* coarse calls (train, rollout, update, tuning, I/O, ...) are also recorded
  as spans `(id, parent, name, start, end)`, kept in memory and written out
  by the worker when the repetition ends.

Self time is a call's duration minus the time of the traced calls nested in
it. A nested call of the same layer (NnActor.sample calling NnActor.mean) is
timed once, as the outer call. Counts assume one thread: with
SPILLREG_THREADS > 1 `build_report` runs seeds in a thread pool and nested-call
folding can then cross threads (the environment record shows the setting).

A name that the package no longer has is reported as absent, not as an error.
"""

from __future__ import annotations

import builtins
import itertools
import os
import sys
import threading
import time
from collections import Counter

_now = time.perf_counter

# Per-layer metrics: (name, unit, better, end-to-end metric it should move, on which workloads).
PER_LAYER = (
    ("rng.next_u64.calls", "count", "lower", "iter_ms_p50 / wall_s", "train_main (shuffle keys), tune_eval"),
    ("rng.normal.calls", "count", "lower", "iter_ms_p50 / wall_s", "train_main, tune_eval"),
    ("spillsim.step.calls", "count", "lower", "wall_s / iter_ms_p50", "tune_eval, train_main"),
    ("spillsim.step.self_s", "s", "lower", "wall_s / iter_ms_p50", "tune_eval, train_main"),
    ("spillsim.reset.calls", "count", "lower", "wall_s / iter_ms_p50", "tune_eval, train_main"),
    ("spillsim.reset.distinct_seeds", "count", "higher", "wall_s / iter_ms_p50", "tune_eval, train_main"),
    ("spillsim.raw_reuse_ratio", "ratio", "higher", "wall_s / iter_ms_p50", "tune_eval (~9/828), train_main"),
    ("controllers.tune_pid.total_s", "s", "lower", "wall_s", "tune_eval"),
    ("controllers.pid_episode_records.calls", "count", "lower", "wall_s", "tune_eval"),
    ("controllers.pid_episode_records.total_s", "s", "lower", "wall_s", "tune_eval"),
    ("controllers.StateTracker.push.calls", "count", "lower", "iter_ms_p50", "train_main, ablate_nn_cdover"),
    ("controllers.StateTracker.push.self_s", "s", "lower", "iter_ms_p50", "train_main, ablate_nn_cdover"),
    ("controllers.actor_step.calls", "count", "lower", "iter_ms_p50", "train_main, ablate_nn_cdover"),
    ("controllers.actor_step.self_s", "s", "lower", "iter_ms_p50", "train_main, ablate_nn_cdover"),
    ("controllers.LinearActor.params.calls", "count", "lower", "iter_ms_p50", "train_main, ablate_nn_cdover"),
    ("metrics.sdf.calls", "count", "lower", "iter_ms_p50", "train_main"),
    ("metrics.sdf.self_s", "s", "lower", "iter_ms_p50", "train_main"),
    ("metrics.RewardAccumulator.push.calls", "count", "lower", "iter_ms_p50", "train_main"),
    ("metrics.RewardAccumulator.push.self_s", "s", "lower", "iter_ms_p50", "train_main"),
    ("gradnet.forward.calls", "count", "lower", "iter_ms_p50", "ablate_nn_cdover (rows/call ~1), train_main (64 rows)"),
    ("gradnet.forward.rows", "count", "lower", "iter_ms_p50", "ablate_nn_cdover, train_main"),
    ("gradnet.forward.self_s", "s", "lower", "iter_ms_p50", "ablate_nn_cdover, train_main"),
    ("gradnet.backward.calls", "count", "lower", "iter_ms_p50", "train_main, ablate_nn_cdover"),
    ("gradnet.backward.self_s", "s", "lower", "iter_ms_p50", "train_main, ablate_nn_cdover"),
    ("gradnet.adam_step.calls", "count", "lower", "iter_ms_p50", "train_main, ablate_nn_cdover"),
    ("gradnet.adam_step.self_s", "s", "lower", "iter_ms_p50", "train_main, ablate_nn_cdover"),
    ("ppo.train.total_s", "s", "lower", "iter_ms_p50 / wall_s", "train_main, ablate_nn_cdover"),
    ("ppo.collect_rollout.total_s", "s", "lower", "iter_ms_p50 / wall_s", "train_main, ablate_nn_cdover"),
    ("ppo.collect_rollout.self_s", "s", "lower", "iter_ms_p50 / wall_s", "train_main, ablate_nn_cdover"),
    ("ppo.compute_gae.total_s", "s", "lower", "iter_ms_p50 / wall_s", "train_main, ablate_nn_cdover"),
    ("ppo.ppo_update.total_s", "s", "lower", "iter_ms_p50 / wall_s", "train_main, ablate_nn_cdover"),
    ("ppo.ppo_update.self_s", "s", "lower", "iter_ms_p50 / wall_s", "train_main, ablate_nn_cdover"),
    ("ppo.baselines.calls", "count", "lower", "iter_ms_p50 / wall_s", "train_main, ablate_nn_cdover"),
    ("ppo.baselines.total_s", "s", "lower", "iter_ms_p50 / wall_s", "train_main, ablate_nn_cdover"),
    ("ppo.checkpoint_dict.calls", "count", "lower", "iter_ms_p50 / wall_s", "train_main, ablate_nn_cdover"),
    ("ppo.checkpoint_dict.total_s", "s", "lower", "iter_ms_p50 / wall_s", "train_main, ablate_nn_cdover"),
    ("ppo.build_report.total_s", "s", "lower", "wall_s", "train_main, ablate_nn_cdover, tune_eval"),
    ("cli.resolve_run.total_s", "s", "lower", "wall_s", "all"),
    ("cli.io.total_s", "s", "lower", "wall_s", "all"),
    ("cli.io.bytes", "bytes", "lower", "wall_s", "all (checkpoint.json ~313 KB)"),
    ("trace.overhead_pct", "%", "lower", "none", "all"),
)

# (module, attribute, layer, span?) for module-level functions.
_FUNCTIONS = (
    ("spillsim", "step", "spillsim.step", False),
    ("spillsim", "reset", "spillsim.reset", False),
    ("controllers", "tune_pid", "controllers.tune_pid", True),
    ("controllers", "pid_episode_records", "controllers.pid_episode_records", True),
    ("metrics", "sdf", "metrics.sdf", False),
    ("gradnet", "forward", "gradnet.forward", False),
    ("gradnet", "backward", "gradnet.backward", False),
    ("gradnet", "adam_step", "gradnet.adam_step", False),
    ("ppo", "train", "ppo.train", True),
    ("ppo", "collect_rollout", "ppo.collect_rollout", True),
    ("ppo", "compute_gae", "ppo.compute_gae", True),
    ("ppo", "ppo_update", "ppo.ppo_update", True),
    ("ppo", "checkpoint_dict", "ppo.checkpoint_dict", True),
    ("ppo", "build_report", "ppo.build_report", True),
    ("cli", "resolve_run", "cli.resolve_run", True),
    ("cli", "main", "cli.main", True),
)

# (module, class, attribute, layer, timed?) for methods; untimed ones only count.
_METHODS = (
    ("rng", "Xoshiro256StarStar", "next_u64", "rng.next_u64", False),
    ("rng", "Xoshiro256StarStar", "normal", "rng.normal", False),
    ("controllers", "StateTracker", "push", "controllers.StateTracker.push", True),
    ("controllers", "LinearActor", "mean", "controllers.actor_step", True),
    ("controllers", "LinearActor", "sample", "controllers.actor_step", True),
    ("controllers", "NnActor", "mean", "controllers.actor_step", True),
    ("controllers", "NnActor", "sample", "controllers.actor_step", True),
    ("controllers", "LinearActor", "params", "controllers.LinearActor.params", False),
    ("metrics", "RewardAccumulator", "push", "metrics.RewardAccumulator.push", True),
)

# Episodes `ppo.train` runs for its per-iteration curve baselines, bound in ppo.
_BASELINES = ("run_pid_episode", "run_raw_episode")

# Modules whose file I/O (`with open(...)`) counts as cli.io.
_IO_MODULES = ("cli", "ppo", "spillsim")

_FIELDS = {
    "calls": lambda s: s.calls,
    "total_s": lambda s: s.total,
    "self_s": lambda s: s.self_s,
    "rows": lambda s: s.amount,
    "bytes": lambda s: s.amount,
    "distinct_seeds": lambda s: len(s.keys),
}


class Stat:
    __slots__ = ("calls", "total", "self_s", "amount", "keys")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.amount = 0  # rows for gradnet.forward, bytes for cli.io
        self.keys: set = set()


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.present: set[str] = set()
        self.active: Counter = Counter()
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def stat(self, layer: str) -> Stat:
        return self.stats.setdefault(layer, Stat())

    def _thread(self):
        local = self._local
        if not hasattr(local, "children"):
            local.children = []  # time of traced calls nested in each open call
            local.open_spans = []
        return local

    def enter(self, layer: str, span: bool):
        local = self._thread()
        parent = local.open_spans[-1] if local.open_spans else None
        sid = None
        if span:
            sid = next(self._ids)
            local.open_spans.append(sid)
        local.children.append(0.0)
        self.active[layer] += 1
        return sid, parent, _now()

    def exit(self, layer: str, stat: Stat, frame) -> None:
        end = _now()
        sid, parent, start = frame
        local = self._thread()
        elapsed = end - start
        child = local.children.pop()
        stat.calls += 1
        stat.total += elapsed
        stat.self_s += elapsed - child
        if local.children:
            local.children[-1] += elapsed
        self.active[layer] -= 1
        if sid is not None:
            local.open_spans.pop()
            self.spans.append((sid, parent, layer, start, end))

    def timed(self, layer: str, fn, span: bool = False, after=None):
        stat = self.stat(layer)
        active = self.active

        def wrapper(*args, **kwargs):
            if active[layer]:
                return fn(*args, **kwargs)
            frame = self.enter(layer, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(layer, stat, frame)
            if after is not None:
                after(stat, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, layer: str, fn):
        stat = self.stat(layer)

        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def layer_metrics(self) -> tuple[dict, list]:
        """Values of every PER_LAYER metric except trace.overhead_pct, and the absent ones."""
        values, absent = {}, []
        for name, *_ in PER_LAYER:
            if name == "trace.overhead_pct":
                continue
            if name == "spillsim.raw_reuse_ratio":
                layer = "spillsim.reset"
                resets = self.stat(layer)
                value = len(resets.keys) / resets.calls if resets.calls else 0.0
            else:
                layer, field = name.rsplit(".", 1)
                value = _FIELDS[field](self.stat(layer))
            if layer not in self.present:
                absent.append(name)
            values[name] = value
        return values, absent

    def span_records(self) -> list[dict]:
        return [{"id": sid, "parent": parent, "name": name, "start": start, "end": end}
                for sid, parent, name, start, end in sorted(self.spans)]


class _TracedFile:
    """File proxy: the time from open() to close, and the file's size, count as cli.io."""

    def __init__(self, tracer: Tracer, path, fh):
        self._tracer, self._path, self._fh = tracer, path, fh
        self._frame = tracer.enter("cli.io", True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        try:
            self._fh.close()
        finally:
            stat = self._tracer.stat("cli.io")
            stat.amount += os.path.getsize(self._path)
            self._tracer.exit("cli.io", stat, self._frame)

    def __getattr__(self, name):
        return getattr(self._fh, name)


def _count_rows(stat: Stat, args) -> None:
    x = args[1]
    stat.amount += len(x) if getattr(x, "ndim", 1) == 2 else 1


def _record_reset(stat: Stat, args) -> None:
    stat.keys.add((args[0], args[1]))


_AFTER = {"gradnet.forward": _count_rows, "spillsim.reset": _record_reset}


def _rebind(modules: dict, original, replacement) -> None:
    for module in modules.values():
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every traced name in the already-imported spillreg modules."""
    modules = {name.split(".", 1)[1]: mod for name, mod in list(sys.modules.items())
               if name.startswith("spillreg.")}

    for mod_name, attr, layer, span in _FUNCTIONS:
        original = getattr(modules.get(mod_name), attr, None)
        if original is None:
            continue
        tracer.present.add(layer)
        _rebind(modules, original, tracer.timed(layer, original, span, _AFTER.get(layer)))

    for mod_name, cls_name, attr, layer, timed in _METHODS:
        cls = getattr(modules.get(mod_name), cls_name, None)
        original = None if cls is None else cls.__dict__.get(attr)
        if original is None:
            continue
        tracer.present.add(layer)
        if isinstance(original, property):
            wrapped = property(tracer.counted(layer, original.fget))
        elif timed:
            wrapped = tracer.timed(layer, original)
        else:
            wrapped = tracer.counted(layer, original)
        setattr(cls, attr, wrapped)

    ppo = modules.get("ppo")
    for attr in _BASELINES:
        original = getattr(ppo, attr, None)
        if original is None:
            continue
        tracer.present.add("ppo.baselines")
        setattr(ppo, attr, _baseline(tracer, original))

    def traced_open(file, mode="r", *args, **kwargs):
        return _TracedFile(tracer, file, builtins.open(file, mode, *args, **kwargs))

    for mod_name in _IO_MODULES:
        if mod_name in modules:
            tracer.present.add("cli.io")
            modules[mod_name].open = traced_open


def _baseline(tracer: Tracer, fn):
    """Time the episode as ppo.baselines unless build_report called it."""
    timed = tracer.timed("ppo.baselines", fn, span=True)

    def wrapper(*args, **kwargs):
        if tracer.active["ppo.build_report"]:
            return fn(*args, **kwargs)
        return timed(*args, **kwargs)

    return wrapper
