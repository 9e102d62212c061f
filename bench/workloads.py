"""Seeded op lists for the four benchmark workloads.

An op is one ``msflow`` invocation: its argv (after ``python -m msflow``),
the exit codes a correct program may return, and the reference check its
stdout must pass (see ``checks.py``).  Graph manifolds are generated here
with the standard library only and written as JSON files, so the program
under test receives nothing but the argv and those files.

Why each workload exists:

* ``cli-small``: small acceptance-domain ops, ~0.34 s each, most of it
  interpreter start and imports.  A lazy-import or dispatch change shows
  here; SNF and planner scaling do not.  About a tenth of the ops are
  invalid input, which exercises the error path of the same ``cli`` layer.
* ``homology-large``: Smith normal form does almost all the work (two SNFs
  per op: the group, then the class query on the transpose).
* ``plan-large``: the planner's ledger work and the encoding of MB-sized
  payloads; it builds the graph presentation but never runs SNF, so it is
  the bypass for homology changes.
* ``numerics``: the only workload that runs ``flowlab``; it needs numpy
  anyway, so it is the bypass for a lazy-import change.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("cli-small", "homology-large", "plan-large", "numerics")

# Ops whose output is wrong at the time the benchmark was written.  They stay
# in the op lists and count as failed; a run is still `correct` when every
# failed op is one of these.  A later fix shows as a drop in failures.
KNOWN_DEFECTS = {
    "invalid-pieces-int": "a graph document with \"pieces\": 5 prints a traceback and no JSON",
    "verify-torus-lambda-40": "verify torus-model --lambda 40 exits 2 though the model is correct",
}


@dataclass
class Op:
    """One invocation; file arguments are relative to `cwd`, the inputs directory."""

    name: str
    argv: list[str]
    cwd: Path
    expect_exit: tuple[int, ...]
    check: str
    params: dict = field(default_factory=dict)
    out_path: Path | None = None
    key: str = ""


# ---------------------------------------------------------------------------
# Input generators (stdlib only, independent of the package under test)

def _fibers(rng: random.Random, n: int) -> list[list[int]]:
    out = []
    while len(out) < n:
        p = rng.choice((-5, -4, -3, -2, 2, 3, 4, 5))
        q = rng.randint(1, 5)
        if math.gcd(p, q) == 1:
            out.append([p, q])
    return out


def _unimodular(rng: random.Random) -> list[list[int]]:
    a, b, c, d = 1, 0, 0, 1
    for _ in range(rng.randint(2, 4)):
        kind = rng.randrange(4)
        m = rng.randint(-3, 3)
        if kind == 0:
            b, d = a * m + b, c * m + d
        elif kind == 1:
            a, c = a + b * m, c + d * m
        elif kind == 2:
            a, b, c, d = b, a, d, c
        else:
            a, b, c, d = -a, -b, -c, -d
    return [[a, b], [c, d]]


def random_graph(rng: random.Random, count: int) -> dict:
    """A connected graph manifold with `count` pieces, 1-3 slots each.

    The first count-1 edges form a random spanning tree; leftover slots are
    paired at random, which may add cycles and self-gluings.
    """
    while True:
        slots = [rng.randint(1, 3) for _ in range(count)]
        if sum(slots) % 2 == 0 and sum(slots) >= 2 * (count - 1):
            break
    while True:
        free = [list(range(k)) for k in slots]
        edges = []
        order = list(range(1, count))
        rng.shuffle(order)
        placed = [0]
        for i in order:
            partners = [j for j in placed if free[j]]
            if not partners:
                break
            j = rng.choice(partners)
            sa = free[i].pop(rng.randrange(len(free[i])))
            sb = free[j].pop(rng.randrange(len(free[j])))
            edges.append([i, sa, j, sb, _unimodular(rng)])
            placed.append(i)
        else:
            left = [(i, s) for i in range(count) for s in free[i]]
            rng.shuffle(left)
            for at in range(0, len(left), 2):
                (pa, sa), (pb, sb) = left[at], left[at + 1]
                edges.append([pa, sa, pb, sb, _unimodular(rng)])
            break
    pieces = [{"genus": rng.randint(0, 3), "boundary": k, "fibers": _fibers(rng, rng.randint(0, 3))}
              for k in slots]
    return {"pieces": pieces, "edges": edges}


def chain_graph(rng: random.Random, length: int) -> dict:
    """A linear chain of `length` pieces glued end to end."""
    pieces = [{"genus": rng.randint(0, 3),
               "boundary": 1 if i in (0, length - 1) else 2,
               "fibers": _fibers(rng, rng.randint(0, 3))} for i in range(length)]
    edges = [[i, 0 if i == 0 else 1, i + 1, 0, _unimodular(rng)] for i in range(length - 1)]
    return {"pieces": pieces, "edges": edges}


def ladder_fibers(n: int) -> str:
    return ";".join(f"{j + 2}/1" for j in range(n))


def _seifert_argv(genus: int, euler: int, fibers: list[list[int]] | str) -> list[str]:
    text = fibers if isinstance(fibers, str) else ";".join(f"{p}/{q}" for p, q in fibers)
    argv = ["--genus", str(genus), "--euler", str(euler)]
    # the = form keeps argparse from reading a leading "-p/q" as an option
    return argv + [f"--fibers={text}"] if text else argv


def _seifert_params(genus: int, euler: int, fibers: list[list[int]] | str) -> dict:
    if isinstance(fibers, str):
        fibers = [[int(x) for x in part.split("/")] for part in fibers.split(";") if part]
    return {"genus": genus, "euler": euler, "fibers": fibers}


# ---------------------------------------------------------------------------
# Workloads

class _Builder:
    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.ops: list[Op] = []
        self.files: dict[str, str] = {}

    def file(self, name: str, text: str) -> str:
        (self.workdir / name).write_text(text)
        self.files[name] = text
        return name

    def graph(self, name: str, doc: dict) -> str:
        return self.file(name, json.dumps(doc))

    def add(self, name: str, argv: list[str], check: str, expect=(0,), out: str | None = None,
            **params) -> None:
        op = Op(name, argv, self.workdir, tuple(expect), check, params)
        if out is not None:
            op.out_path = self.workdir / out
            op.argv = argv + ["--out", out]
        self.ops.append(op)


def _cli_small(b: _Builder, rng: random.Random) -> None:
    def seifert() -> tuple[int, int, list[list[int]]]:
        return rng.randint(0, 5), rng.choice((-3, -2, -1, 1, 2, 3)), _fibers(rng, rng.randint(0, 5))

    graphs = [random_graph(rng, rng.randint(2, 5)) for _ in range(8)]
    paths = [b.graph(f"g{i}.json", doc) for i, doc in enumerate(graphs)]
    for i in range(5):
        g, e, f = seifert()
        b.add(f"bound-seifert-{i}", ["bound", "seifert"] + _seifert_argv(g, e, f),
              "bound_seifert", **_seifert_params(g, e, f))
        g, e, f = seifert()
        b.add(f"plan-seifert-{i}", ["plan", "seifert"] + _seifert_argv(g, e, f) + ["--class", "max"],
              "plan_seifert", expect=(0, 2), **_seifert_params(g, e, f))
        g, e, f = seifert()
        with_class = rng.random() < 0.5
        b.add(f"homology-seifert-{i}",
              ["homology", "seifert"] + _seifert_argv(g, e, f) + (["--class", "max"] if with_class else []),
              "homology_seifert", with_class=with_class, **_seifert_params(g, e, f))
        k = rng.randrange(len(graphs))
        b.add(f"bound-graph-{i}", ["bound", "graph", paths[k]], "bound_graph", graph=graphs[k])
        k = rng.randrange(len(graphs))
        b.add(f"plan-graph-{i}", ["plan", "graph", paths[k], "--class", "max"], "plan_graph",
              graph=graphs[k])
        k = rng.randrange(len(graphs))
        with_class = rng.random() < 0.5
        b.add(f"homology-graph-{i}",
              ["homology", "graph", paths[k]] + (["--class", "max"] if with_class else []),
              "homology_graph", graph=graphs[k], with_class=with_class)
    for i in range(2):
        picks = rng.sample(range(len(graphs)), rng.randint(2, 3))
        b.add(f"bound-sum-{i}", ["bound", "sum"] + [paths[k] for k in picks], "bound_sum",
              graphs=[graphs[k] for k in picks])
    # the documented honest failure: g=0, n=1, |e|=1 needs bound + 2 orbits
    e = rng.choice((-1, 1))
    f = _fibers(rng, 1)
    b.add("plan-sphere-cell", ["plan", "seifert"] + _seifert_argv(0, e, f) + ["--class", "max"],
          "plan_seifert", expect=(2,), **_seifert_params(0, e, f))

    g, e, f = seifert()
    b.add("invalid-class-string", ["plan", "seifert"] + _seifert_argv(g, e, f) + ["--class", "lambda=x"],
          "error", expect=(1,))
    doc = dict(graphs[0], colour=rng.randint(1, 9))
    b.add("invalid-graph-key", ["bound", "graph", b.graph("unknown-key.json", doc)], "error", expect=(1,))
    b.add("invalid-missing-file", ["homology", "graph", "missing.json"], "error",
          expect=(1,))
    b.add("invalid-pieces-int", ["bound", "graph", b.file("pieces-int.json", '{"pieces": 5}')], "error",
          expect=(1,))


def _homology_large(b: _Builder, rng: random.Random) -> None:
    for gn in (20, 40, 60, 80):
        fibers = ladder_fibers(gn)
        b.add(f"homology-seifert-g{gn}-n{gn}",
              ["homology", "seifert"] + _seifert_argv(gn, 3, fibers) + ["--class", "max"],
              "homology_seifert", with_class=True, **_seifert_params(gn, 3, fibers))
    for n in (60, 100):
        fibers = ladder_fibers(n)
        b.add(f"homology-seifert-g0-n{n}",
              ["homology", "seifert"] + _seifert_argv(0, 3, fibers) + ["--class", "max"],
              "homology_seifert", with_class=True, **_seifert_params(0, 3, fibers))
    for length in (10, 20, 40):
        doc = chain_graph(rng, length)
        b.add(f"homology-chain-l{length}",
              ["homology", "graph", b.graph(f"chain{length}.json", doc), "--class", "max"],
              "homology_graph", graph=doc, with_class=True)


def _plan_large(b: _Builder, rng: random.Random) -> None:
    # half the rungs also write the ledger with --out, encoding it twice
    for gn, out in ((100, True), (200, False), (400, True)):
        fibers = ladder_fibers(gn)
        b.add(f"plan-seifert-g{gn}-n{gn}",
              ["plan", "seifert"] + _seifert_argv(gn, 3, fibers) + ["--class", "max"],
              "plan_seifert", out=f"ledger-g{gn}.json" if out else None, **_seifert_params(gn, 3, fibers))
    for length, out in ((20, False), (40, True), (80, False)):
        doc = chain_graph(rng, length)
        b.add(f"plan-chain-l{length}",
              ["plan", "graph", b.graph(f"chain{length}.json", doc), "--class", "max"],
              "plan_graph", out=f"ledger-l{length}.json" if out else None, graph=doc)


def _numerics(b: _Builder, rng: random.Random) -> None:
    for lam in (2, 3, 5, 20, 40):
        b.add(f"verify-torus-lambda-{lam}", ["verify", "torus-model", "--lambda", str(lam)],
              "verify", expect=(0, 1), model="torus-destruction", lam=lam)
    for model in ("round-handle", "glue-demo", "collar"):
        b.add(f"verify-{model}", ["verify", model], "verify", model=model)
    rng.shuffle(b.ops)


_BUILDERS = {
    "cli-small": _cli_small,
    "homology-large": _homology_large,
    "plan-large": _plan_large,
    "numerics": _numerics,
}


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Write the workload's input files into `workdir` and return its ops.

    The same (workload, seed) always yields the same argv and file contents;
    each op's `key` is its argv with every input file named by its content
    hash, for digest records.
    """
    b = _Builder(workdir)
    _BUILDERS[workload](b, random.Random(f"{workload}:{seed}"))
    for op in b.ops:
        op.key = " ".join("@" + hashlib.sha256(b.files[a].encode()).hexdigest()[:16] if a in b.files else a
                          for a in op.argv)
    return b.ops
