"""Traced in-process run: per-layer self times and counters, from outside the package.

Each public function named in ``SPANS`` is wrapped with a span recorder and
rebound in every ``msflow.*`` namespace that holds it (``cli`` binds its
imports at import time).  A span's self time is its duration minus the
durations of its direct child spans, so the self times of all layers plus
``trace.unattributed_s`` (the self time of ``cli.run``) add up to
``cli.run_s``.  Every ``*_s`` layer metric is a self time except
``cli.run_s`` and the four ``flowlab.verify_s.<model>`` times, which are
inclusive (a verify call's RK4 and intersection work sits in its children).  Counters are taken from the wrapped calls' arguments and
results after the span closes; that bookkeeping is excluded from every
layer's self time and shows up in ``trace.overhead_s`` instead, which is
the traced minus the untraced in-process ``cli.run`` time of one pass.

The package's unbounded ``lru_cache`` functions are cleared before every op
so that each op pays the cold work a fresh CLI process pays.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

# metric -> the (module, attribute) pairs whose span time it accumulates
SPANS = {
    "cli.encode_s": [("cli", "main")],
    "cli.run_s": [("cli", "run")],
    "manifolds.parse_s": [("manifolds", "parse_seifert"), ("manifolds", "parse_graph")],
    "manifolds.validate_s": [("manifolds", "validate_class"), ("manifolds", "maximal_class")],
    "homology.presentation_s": [("homology", "graph_presentation")],
    "homology.group_s": [("homology", "seifert_h1"), ("homology", "graph_h1"),
                         ("homology", "group_from_presentation")],
    "homology.query_s": [("homology", "H1Group.is_trivial_class"), ("homology", "solve_in_image")],
    "homology.snf_s": [("homology", "smith_normal_form")],
    "planner.plan_s": [("planner", "plan_seifert"), ("planner", "plan_graph")],
    "planner.to_json_s": [("planner", "Ledger.to_json")],
    "planner.replay_s": [("planner", "replay")],
    "planner.bound_s": [("planner", "bound_seifert"), ("planner", "bound_graph"), ("planner", "bound_sum")],
    "flowlab.verify_s.torus-model": [("flowlab", "verify_torus_model")],
    "flowlab.verify_s.round-handle": [("flowlab", "verify_round_handle")],
    "flowlab.verify_s.glue-demo": [("flowlab", "verify_glue_demo")],
    "flowlab.verify_s.collar": [("flowlab", "verify_collar")],
    "flowlab.rk4_s": [("flowlab", "rk4_integrate")],
    "flowlab.intersections_s": [("flowlab", "curve_intersections")],
}

PER_LAYER = {
    "cli.import_s": "s", "cli.import_modules": "count", "cli.run_s": "s", "cli.encode_s": "s",
    "cli.stdout_bytes": "bytes",
    "manifolds.parse_s": "s", "manifolds.validate_s": "s",
    "homology.presentation_s": "s", "homology.group_s": "s", "homology.query_s": "s",
    "homology.snf_s": "s", "homology.snf_calls": "count", "homology.snf_cells": "count",
    "homology.max_entry_bits": "bits",
    "planner.plan_s": "s", "planner.to_json_s": "s", "planner.replay_s": "s", "planner.bound_s": "s",
    "planner.orbits": "count", "planner.steps": "count",
    "flowlab.import_s": "s",
    "flowlab.verify_s.torus-model": "s", "flowlab.verify_s.round-handle": "s",
    "flowlab.verify_s.glue-demo": "s", "flowlab.verify_s.collar": "s",
    "flowlab.rk4_s": "s", "flowlab.rk4_calls": "count", "flowlab.rk4_steps": "count",
    "flowlab.field_evals": "count", "flowlab.intersections_s": "s", "flowlab.intersection_calls": "count",
    "trace.unattributed_s": "s", "trace.overhead_s": "s",
}

_CACHED = (("homology", "seifert_h1"), ("homology", "piece_h1"), ("homology", "graph_presentation"))
PROBE_REPEATS = 3


def _count_snf(counts, result, args) -> None:
    a = args[0]
    counts["homology.snf_calls"] += 1
    counts["homology.snf_cells"] += a.rows * a.cols
    bits = max((abs(v).bit_length() for m in (result.u, result.s, result.v) for row in m.entries for v in row),
               default=0)
    counts["homology.max_entry_bits"] = max(counts["homology.max_entry_bits"], bits)


def _count_plan(counts, ledger, args) -> None:
    counts["planner.orbits"] += ledger.total
    counts["planner.steps"] += len(ledger.steps)


def _count_rk4(counts, trajectory, args) -> None:
    steps = len(trajectory.times) - 1
    points = trajectory.points[0].size // trajectory.points.shape[-1]
    counts["flowlab.rk4_calls"] += 1
    counts["flowlab.rk4_steps"] += steps
    counts["flowlab.field_evals"] += 4 * steps * points


def _count_intersections(counts, result, args) -> None:
    counts["flowlab.intersection_calls"] += 1


_COUNTERS = {
    "homology.snf_s": _count_snf,
    "planner.plan_s": _count_plan,
    "flowlab.rk4_s": _count_rk4,
    "flowlab.intersections_s": _count_intersections,
}


class Tracer:
    """Span recorder that can wrap, rebind and later restore package functions."""

    def __init__(self) -> None:
        self._stack: list[list[float]] = []  # per open span: [time covered by children]
        self._installed: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, metric: str, fn):
        counter = _COUNTERS.get(metric)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.self_s[metric] += elapsed - children[0]
                self.total_s[metric] += elapsed
            if counter is not None:
                begin = time.perf_counter()
                counter(self.counts, result, args)
                elapsed += time.perf_counter() - begin
            if self._stack:
                self._stack[-1][0] += elapsed
            return result

        return span

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "msflow" or name.startswith("msflow.")]
        for metric, targets in SPANS.items():
            for module, attr in targets:
                owner = sys.modules[f"msflow.{module}"]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                    original = owner.__dict__[attr]
                    self._rebind(owner, attr, original, self.wrap(metric, original))
                    continue
                original = getattr(owner, attr)
                wrapper = self.wrap(metric, original)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, name, original, wrapper)

    def _rebind(self, owner, name: str, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._installed.append((owner, name, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)


def _probe(code: str, env: dict, cwd: Path) -> list[float]:
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True,
                         text=True, timeout=60, check=True)
    return [float(v) for v in out.stdout.split()]


_CLI_PROBE = """
import sys, time
t = time.perf_counter(); n = len(sys.modules)
import msflow.cli
print(time.perf_counter() - t, len(sys.modules) - n)
"""

_FLOWLAB_PROBE = """
import time
import msflow
t = time.perf_counter()
import numpy, msflow.flowlab
print(time.perf_counter() - t)
"""


def import_probes(env: dict, cwd: Path) -> dict[str, float]:
    """Import costs measured in fresh interpreters, medians of PROBE_REPEATS."""
    cli = [_probe(_CLI_PROBE, env, cwd) for _ in range(PROBE_REPEATS)]
    flowlab = [_probe(_FLOWLAB_PROBE, env, cwd)[0] for _ in range(PROBE_REPEATS)]
    return {"cli.import_s": statistics.median(c[0] for c in cli),
            "cli.import_modules": statistics.median(c[1] for c in cli),
            "flowlab.import_s": statistics.median(flowlab)}


@contextlib.contextmanager
def _in_dir(path: Path):
    """Run with `path` as the working directory, as the CLI subprocesses do."""
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def _cache_clearer():
    """A function clearing the package's caches, bound before any function is rebound."""
    clearers = [getattr(sys.modules[f"msflow.{module}"], attr).cache_clear for module, attr in _CACHED]

    def clear() -> None:
        for c in clearers:
            c()

    return clear


def _untraced_pass(ops, clear_caches) -> float:
    """Summed in-process cli.run time over the ops, with nothing wrapped."""
    run = sys.modules["msflow.cli"].run
    total = 0.0
    for op in ops:
        clear_caches()
        with _in_dir(op.cwd), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                run(op.argv)
            except Exception:  # a defect the traced pass reports; only the time matters here
                pass
            total += time.perf_counter() - start
    return total


def _traced_pass(ops, tracer: Tracer, verdicts, clear_caches) -> tuple[dict[str, float], int]:
    cli = sys.modules["msflow.cli"]
    planner = sys.modules["msflow.planner"]
    tracer.reset()
    failed = 0
    stdout_bytes = 0
    for op in ops:
        if op.out_path is not None and op.out_path.exists():
            op.out_path.unlink()
        clear_caches()
        out, err = io.StringIO(), io.StringIO()
        with _in_dir(op.cwd), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(op.argv)
            except Exception:  # an escaped exception is what a CLI process prints as a traceback
                traceback.print_exc()
                code = 1
        stdout, stderr = out.getvalue().encode(), err.getvalue().encode()
        stdout_bytes += len(stdout)
        out_file = op.out_path.read_bytes() if op.out_path is not None and op.out_path.exists() else None
        ok = verdicts.judge(op, code, stdout, stderr, out_file)
        if ok and op.check.startswith("plan") and code == 0:
            payload = json.loads(stdout)
            if planner.replay(payload["steps"]).total != payload["total"]:
                verdicts.failures[op.name] = "replay of the emitted steps gives another total"
                ok = False
        failed += not ok

    values = {name: 0.0 for name in PER_LAYER}
    for metric in SPANS:
        values[metric] = tracer.self_s[metric]
    for metric in ("cli.run_s", "flowlab.verify_s.torus-model", "flowlab.verify_s.round-handle",
                   "flowlab.verify_s.glue-demo", "flowlab.verify_s.collar"):
        values[metric] = tracer.total_s[metric]
    values["trace.unattributed_s"] = tracer.self_s["cli.run_s"]
    values["cli.stdout_bytes"] = stdout_bytes
    values.update(tracer.counts)
    return values, failed


def run_traced(ops, workdir: Path, seconds: float, verdicts, src: Path, env: dict, keep_going):
    """Alternate untraced and traced in-process passes until `seconds` are used.

    Returns (metrics, attempted, failed, notes) with every PER_LAYER metric:
    times are medians over traced passes, counters are per pass.
    """
    probes = import_probes(env, workdir)
    sys.path.insert(0, str(src))
    import msflow.cli  # noqa: F401  (loads every layer the spans wrap)

    clear_caches = _cache_clearer()
    tracer = Tracer()
    traced, untraced, attempted, failed = [], [], 0, 0
    started = time.perf_counter()
    # first calls in a process pay one-off costs (regex compiles, numpy
    # dispatch set-up) that would otherwise land on the first measured pass
    _untraced_pass(ops, clear_caches)
    while not traced or keep_going(started, len(traced), seconds):
        untraced.append(_untraced_pass(ops, clear_caches))
        tracer.install()
        try:
            values, pass_failed = _traced_pass(ops, tracer, verdicts, clear_caches)
        finally:
            tracer.uninstall()
        traced.append(values)
        attempted += len(ops)
        failed += pass_failed

    metrics = {name: (statistics.median(v[name] for v in traced), unit) for name, unit in PER_LAYER.items()}
    metrics.update({name: (value, PER_LAYER[name]) for name, value in probes.items()})
    metrics["trace.overhead_s"] = (metrics["cli.run_s"][0] - statistics.median(untraced), "s")
    notes = {"passes": len(traced), "failed_ratio": failed / attempted}
    return metrics, attempted, failed, notes
