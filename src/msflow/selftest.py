"""Acceptance grid behind ``msflow selftest``.

Ten independent criteria, each with its own check and (where the contract
demands one) a wall-clock budget.  Measured seconds are reported for
diagnostics only; the CLI keeps them out of the JSON payload so identical
invocations stay byte-identical.
"""

from __future__ import annotations

import json
import math
import random
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from . import flowlab
from .homology import class_is_admissible, fiber_vector, graph_class_vector, seifert_h1
from .manifolds import (
    GraphManifold,
    Gluing,
    HomologyClassExpr,
    SeifertClosed,
    SeifertPiece,
    SurgeryCoefficient,
    maximal_class,
)
from .planner import (
    bound_graph,
    bound_piece,
    bound_seifert,
    bound_sum,
    check_poincare_hopf,
    plan_graph,
    plan_seifert,
)


@dataclass(frozen=True)
class CriterionResult:
    id: int
    name: str
    passed: bool
    detail: str
    seconds: float


# Budgets in seconds; criteria 4, 5, and 10 are exact-arithmetic checks
# with no stated limit.
_BUDGETS = {1: 0.1, 2: 1.0, 3: 2.0, 6: 0.1, 7: 3.0, 8: 1.0, 9: 1.0}


def _fibers(n: int) -> tuple[SurgeryCoefficient, ...]:
    return tuple(SurgeryCoefficient(j + 2, 1) for j in range(n))


def _random_fibers(rng: random.Random, n: int) -> tuple[SurgeryCoefficient, ...]:
    fibers = []
    for _ in range(n):
        while True:
            p = rng.choice((-5, -4, -3, -2, 2, 3, 4, 5))
            q = rng.randint(1, 5)
            if math.gcd(p, q) == 1:
                fibers.append(SurgeryCoefficient(p, q))
                break
    return tuple(fibers)


def _random_unimodular(rng: random.Random) -> tuple[tuple[int, int], tuple[int, int]]:
    """Product of 2-4 elementary unimodular matrices."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(rng.randint(2, 4)):
        kind = rng.randrange(4)
        if kind == 0:
            m = rng.randint(-3, 3)
            a, b, c, d = a, a * m + b, c, c * m + d
        elif kind == 1:
            m = rng.randint(-3, 3)
            a, b, c, d = a + b * m, b, c + d * m, d
        elif kind == 2:
            a, b, c, d = b, a, d, c
        else:
            a, b, c, d = -a, -b, -c, -d
    return ((a, b), (c, d))


def _random_edges(rng: random.Random, slot_counts: list[int]) -> tuple[Gluing, ...]:
    """Assign every boundary slot to exactly one edge, keeping the graph
    connected by routing the first l-1 edges along a spanning tree."""
    count = len(slot_counts)
    while True:
        free = [list(range(k)) for k in slot_counts]
        edges = []
        order = list(range(1, count))
        rng.shuffle(order)
        connected = [0]
        stuck = False
        for i in order:
            partners = [j for j in connected if free[j]]
            if not partners or not free[i]:
                stuck = True
                break
            j = rng.choice(partners)
            sa = free[i].pop(rng.randrange(len(free[i])))
            sb = free[j].pop(rng.randrange(len(free[j])))
            edges.append(Gluing(i, sa, j, sb, _random_unimodular(rng)))
            connected.append(i)
        if stuck:
            continue
        leftovers = [(i, s) for i in range(count) for s in free[i]]
        rng.shuffle(leftovers)
        for at in range(0, len(leftovers), 2):
            (pa, sa), (pb, sb) = leftovers[at], leftovers[at + 1]
            edges.append(Gluing(pa, sa, pb, sb, _random_unimodular(rng)))
        return tuple(edges)


def random_graph_manifold(rng: random.Random) -> GraphManifold:
    """Sample a valid graph manifold with 2-5 pieces, g, n <= 3, k <= 3."""
    while True:
        count = rng.randint(2, 5)
        slot_counts = [rng.randint(1, 3) for _ in range(count)]
        if sum(slot_counts) % 2 == 0 and sum(slot_counts) >= 2 * (count - 1):
            break
    pieces = tuple(
        SeifertPiece(rng.randint(0, 3), k, _random_fibers(rng, rng.randint(0, 3)))
        for k in slot_counts)
    return GraphManifold(pieces, _random_edges(rng, slot_counts))


def _two_piece_graph() -> GraphManifold:
    pieces = (SeifertPiece(0, 1, ()), SeifertPiece(0, 1, ()))
    return GraphManifold(pieces, (Gluing(0, 0, 1, 0, ((0, 1), (1, 0))),))


def _criterion_sphere_bounds() -> tuple[bool, str]:
    from . import cli

    expected = {2: 10, -3: 10, 0: 10, 1: 8, -1: 8}
    for e, want in expected.items():
        outcome = cli.run(["bound", "seifert", "--genus", "0", "--euler", str(e)])
        if outcome.exit_code != 0 or outcome.payload != {"bound": want}:
            return False, f"e={e}: payload {outcome.payload}, exit {outcome.exit_code}"
    return True, "genus-0 fiberless bound is 10, dropping to 8 at |e| = 1"


def _criterion_bound_equals_construction() -> tuple[bool, str]:
    cells = 0
    for g in range(6):
        for n in range(6):
            for e in (-3, -2, 2, 3):
                m = SeifertClosed(g, e, _fibers(n))
                c = maximal_class(m)
                assert isinstance(c, HomologyClassExpr)
                total = plan_seifert(m, c).total
                want = bound_seifert(g, e, n)
                if total != want:
                    return False, f"(g={g}, e={e}, n={n}): ledger {total} != bound {want}"
                cells += 1
    return True, f"ledger total equals the closed-form bound on all {cells} cells"


def _criterion_graph_identity() -> tuple[bool, str]:
    rng = random.Random(20260814)
    for trial in range(100):
        g = random_graph_manifold(rng)
        pieces_way = 6 + sum(bound_piece(p.genus, p.n, p.boundary) - 6 for p in g.pieces)
        direct = bound_graph(g)
        if direct != pieces_way:
            return False, f"trial {trial}: bound {direct} != per-piece sum {pieces_way}"
        exprs = maximal_class(g)
        assert isinstance(exprs, tuple)
        total = plan_graph(g, exprs).total
        if total != direct:
            return False, f"trial {trial}: ledger {total} != bound {direct}"
    return True, "100 random graph manifolds: both formula forms and the ledger agree"


def _criterion_sum_additivity() -> tuple[bool, str]:
    if bound_sum(()) != 6:
        return False, f"empty sum gave {bound_sum(())}, expected 6"
    pair = (_two_piece_graph(), _two_piece_graph())
    if bound_graph(pair[0]) != 14 or bound_sum(pair) != 22:
        return False, (f"two 14-bound components gave {bound_sum(pair)}, expected 22")
    rng = random.Random(4)
    components = [random_graph_manifold(rng) for _ in range(6)]
    for count in range(len(components) + 1):
        batch = components[:count]
        want = 6 + sum(bound_graph(g) - 6 for g in batch)
        if bound_sum(batch) != want:
            return False, f"{count} components: bound_sum {bound_sum(batch)} != {want}"
    return True, "connected sums contribute bound - 6 apiece over a shared base of 6"


def _criterion_index_sum() -> tuple[bool, str]:
    cells = 0
    for g in range(6):
        for n in range(6):
            for e in range(-3, 4):
                m = SeifertClosed(g, e, _fibers(n))
                if not check_poincare_hopf(plan_seifert(m, maximal_class(m)).steps[0]):
                    return False, f"(g={g}, e={e}, n={n}): index sum is not 2 - 2g"
                cells += 1
    return True, f"index sum equals 2 - 2g on all {cells} closed skeletons"


def _criterion_homology_groups() -> tuple[bool, str]:
    sphere = SeifertClosed(
        0, -1, (SurgeryCoefficient(2, 1), SurgeryCoefficient(3, 1), SurgeryCoefficient(5, 1)))
    if not seifert_h1(sphere).is_trivial():
        return False, f"(2,3,5) surgery gave {seifert_h1(sphere).describe()}, expected trivial"
    for e in (-3, -2, -1, 1, 2, 3):
        group = seifert_h1(SeifertClosed(0, e, ()))
        if group.free_rank != 0 or group.torsion_order() != abs(e):
            return False, f"genus 0, e={e}: {group.describe()} is not Z/{abs(e)}"
    for g in range(3):
        group = seifert_h1(SeifertClosed(g, 0, ()))
        if group.free_rank != 2 * g + 1 or group.invariant_factors:
            return False, f"genus {g}, e=0: {group.describe()} is not Z^{2 * g + 1}"
    for g in range(3):
        for e in range(-3, 4):
            m = SeifertClosed(g, e, ())
            trivial = seifert_h1(m).is_trivial_class(fiber_vector(m))
            if trivial != (abs(e) == 1):
                return False, f"genus {g}, e={e}: fiber triviality {trivial}"
    return True, "h1 groups and fiber-class triviality match the closed forms"


def _criterion_torus_model() -> tuple[bool, str]:
    for lam in (2, 3, 5):
        report, _orbits = flowlab.verify_torus_model(lam)
        if len(report["orbits"]) != 2 or not report["pass"]:
            return False, f"lambda={lam}: {json.dumps(report, sort_keys=True)}"
        if any(o["closure_error"] >= 1e-6 for o in report["orbits"]):
            return False, f"lambda={lam}: closure errors {report['orbits']}"
    return True, "two closed orbits with Floquet signs (-,-) and (+,-) at lambda in {2,3,5}"


def _criterion_glue_repair() -> tuple[bool, str]:
    report = flowlab.verify_glue_demo()
    if not report["pass"]:
        return False, json.dumps(report, sort_keys=True)
    return True, (f"displacement {report['displacement']} leaves "
                  f"{report['intersections_after']} transverse intersections")


def _criterion_local_models() -> tuple[bool, str]:
    report = flowlab.verify_round_handle()
    if not report["pass"]:
        return False, f"round handle: {json.dumps(report, sort_keys=True)}"
    # the report's decay run ends at x(10) within decay_error of 0.5*exp(-10)
    decay_bound = report["decay_error"] + 0.5 * math.exp(-10.0)
    if not decay_bound < 1e-4 * 0.5:
        return False, f"|x(10)| <= {decay_bound:.3e} is not < 1e-4 * |x(0)|"
    collar = flowlab.verify_collar()
    if not collar["pass"]:
        return False, f"collar: {json.dumps(collar, sort_keys=True)}"
    return True, (f"contraction to at most {decay_bound:.2e} of the start; "
                  f"collar min norm {collar['min_norm']:.3f}")


def _criterion_admissibility() -> tuple[bool, str]:
    from . import cli

    pieces = (SeifertPiece(0, 2, ()), SeifertPiece(0, 2, ()))
    swap = ((0, 1), (1, 0))
    g = GraphManifold(pieces, (Gluing(0, 0, 1, 0, swap), Gluing(0, 1, 1, 1, swap)))
    exprs = maximal_class(g)
    assert isinstance(exprs, tuple)
    for candidate in (
        exprs,
        (HomologyClassExpr((), (3,), (0,)), HomologyClassExpr((), (0,), (5,))),
        (HomologyClassExpr((), (0,), (0,)), HomologyClassExpr((), (0,), (0,))),
    ):
        vector = graph_class_vector(g, candidate, (0,))
        if not class_is_admissible(g, vector):
            return False, f"per-piece class {candidate} reported non-admissible"
    bad = graph_class_vector(g, exprs, (1,))
    if class_is_admissible(g, bad):
        return False, "class with cycle coordinate 1 reported admissible"

    spec = json.dumps({"pieces": [e.to_json() for e in exprs], "cycles": [1]})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fixture.json"
        path.write_text(json.dumps(g.to_json()))
        outcome = cli.run(["plan", "graph", str(path), "--class", spec])
    if outcome.exit_code != 1:
        return False, f"plan accepted a nonzero cycle coordinate (exit {outcome.exit_code})"
    if "cycle coordinate 0" not in outcome.payload.get("error", ""):
        return False, f"diagnostic does not cite the coordinate: {outcome.payload}"
    return True, "per-piece sums admissible; nonzero cycle coordinate rejected with exit 1"


_CRITERIA = (
    (1, "sphere bounds", _criterion_sphere_bounds),
    (2, "bound equals construction", _criterion_bound_equals_construction),
    (3, "graph bound identity", _criterion_graph_identity),
    (4, "connected-sum additivity", _criterion_sum_additivity),
    (5, "index sum", _criterion_index_sum),
    (6, "homology groups", _criterion_homology_groups),
    (7, "torus-destruction model", _criterion_torus_model),
    (8, "transversality repair", _criterion_glue_repair),
    (9, "round-handle and collar models", _criterion_local_models),
    (10, "admissibility", _criterion_admissibility),
)


def run_all() -> tuple[CriterionResult, ...]:
    from . import cli  # noqa: F401  (import cost must not land in criterion 1's budget)

    results = []
    for cid, name, fn in _CRITERIA:
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        budget = _BUDGETS.get(cid)
        if budget is not None and seconds > budget:
            passed = False
            detail += " (runtime budget exceeded)"
        results.append(CriterionResult(cid, name, passed, detail, seconds))
    return tuple(results)
