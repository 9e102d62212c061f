"""Acceptance suite: one test per shipped criterion, in order.

Each test runs the same check as ``msflow selftest`` and additionally
enforces the criterion's runtime budget where one is pinned.  Tolerances
are frozen inside the criterion implementations: exact integer arithmetic
for criteria 1-6 and 10; closure 1e-6, boundary 1e-12, crossing-angle
sine 1e-3, suspension drift 1e-6, contraction 1e-4 for criteria 7-9.
"""

import time

import pytest

from msflow import selftest

# Warm the import path once so module import cost lands outside the budgets,
# matching how run_all() measures.
from msflow import cli  # noqa: F401


def run(criterion_id: int, budget: float | None) -> None:
    name, fn = next(
        (name, fn) for cid, name, fn in selftest._CRITERIA if cid == criterion_id)
    start = time.perf_counter()
    passed, detail = fn()
    seconds = time.perf_counter() - start
    assert passed, f"criterion {criterion_id} ({name}): {detail}"
    if budget is not None:
        assert seconds < budget, (
            f"criterion {criterion_id} ({name}) took {seconds:.3f}s, budget {budget}s")


def test_criterion_01_sphere_bounds():
    """bound seifert: 10 at (g=0, |e| != 1, n=0) and 8 at |e| = 1; < 0.1 s."""
    run(1, 0.1)


def test_criterion_02_bound_equals_construction():
    """plan_seifert total == bound_seifert on the 144-cell maximal grid; < 1 s."""
    run(2, 1.0)


def test_criterion_03_graph_bound_identity():
    """100 random graph manifolds: both bound forms and ledger agree; < 2 s."""
    run(3, 2.0)


def test_criterion_04_connected_sum_additivity():
    """bound_sum == 6 + sum(bound_graph - 6); exact."""
    run(4, None)


def test_criterion_05_index_sum():
    """The lift step of every closed maximal-class ledger satisfies
    #fibers - #saddles = 2 - 2 * #tori, the index sum 2 - 2g; exact."""
    run(5, None)


def test_criterion_06_homology_groups():
    """Trivial H1 for the (2,3,5) sphere, Z/|e|, Z^(2g+1), fiber triviality
    iff |e| = 1; exact Smith-normal-form arithmetic; < 0.1 s."""
    run(6, 0.1)


def test_criterion_07_torus_destruction_model():
    """lambda in {2,3,5}: two orbits close within 1e-6 at dt = 1e-3 with
    Floquet signs (-,-), (+,-); boundary field within 1e-12; < 3 s."""
    run(7, 3.0)


def test_criterion_08_transversality_repair():
    """Tangency demo repairs to all-transverse (sine > 1e-3), parity kept,
    suspension flow matches the isotopy within 1e-6; < 1 s."""
    run(8, 1.0)


def test_criterion_09_round_handle_and_collar():
    """|x(10)| < 1e-4 |x(0)| for the round handle; collar field nonvanishing
    on the 64^3 grid (sampled along its r axis, all the field reads) and
    equal to (1,0,0) at r = 0; < 1 s."""
    run(9, 1.0)


def test_criterion_09_bounds_x10_from_the_round_handle_report(monkeypatch):
    """Criterion 9 takes its |x(10)| bound, decay_error + 0.5*exp(-10), from
    the round-handle report; a bound of 5e-5 or more fails."""
    report = selftest.flowlab.verify_round_handle()
    monkeypatch.setattr(selftest.flowlab, "verify_round_handle",
                        lambda: dict(report, decay_error=3e-5))
    passed, detail = selftest._criterion_local_models()
    assert not passed and "is not < 1e-4" in detail


def test_criterion_10_admissibility():
    """Per-piece class sums admissible on the two-piece two-edge fixture; a
    nonzero cycle coordinate is refused and plan exits 1; exact."""
    run(10, None)


def test_selftest_aggregates_all_criteria():
    results = selftest.run_all()
    assert [r.id for r in results] == list(range(1, 11))
    failures = [f"{r.id}: {r.detail}" for r in results if not r.passed]
    assert not failures, failures
