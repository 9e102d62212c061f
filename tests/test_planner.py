"""Closed-form bounds, lifted base skeletons, and the construction ledger.

The central property: for every manifold in the test grid and every
admissible class, replaying the plan yields d2_accumulated equal to the
target class, and with maximal classes the orbit total reproduces the
closed-form bound (two degenerate sphere cells excepted, pinned below).
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from msflow.errors import (
    AlreadyAdjusted,
    Alpha0NotAllowed,
    MalformedSpec,
    NotFiberOrbit,
    SaddleInLink,
    SinglePiece,
    UnknownTorus,
    ZeroCoefficient,
)
from msflow.homology import class_is_maximal
from msflow.manifolds import (
    GraphManifold,
    Gluing,
    HomologyClassExpr,
    SeifertClosed,
    SeifertPiece,
    SurgeryCoefficient,
    maximal_class,
    validate_class,
)
from msflow.planner import (
    bound_graph,
    bound_piece,
    bound_seifert,
    bound_sum,
    check_poincare_hopf,
    plan_graph,
    plan_seifert,
    replay,
)

SWAP = ((0, 1), (1, 0))


def fibers(n):
    return tuple(SurgeryCoefficient(j + 2, 1) for j in range(n))


def closed(g, e, n):
    return SeifertClosed(g, e, fibers(n))


def two_piece_graph():
    return GraphManifold((SeifertPiece(0, 1, ()), SeifertPiece(0, 1, ())),
                         (Gluing(0, 0, 1, 0, SWAP),))


class TestBounds:
    @pytest.mark.parametrize("g,e,n,want", [
        (0, 2, 0, 10),
        (0, 1, 0, 8),
        (0, -1, 0, 8),
        (3, 5, 2, 28),
        (0, 0, 0, 10),
        (1, 1, 0, 8),
        (2, -3, 4, 32),
    ])
    def test_seifert_values(self, g, e, n, want):
        assert bound_seifert(g, e, n) == want

    def test_seifert_closed_form(self):
        for g in range(6):
            for n in range(6):
                for e in range(-3, 4):
                    unit = 1 if abs(e) == 1 else 0
                    degenerate = 1 if (g == 0 and n == 0) else 0
                    want = 4 * g + 4 * n + 8 - 4 * unit + 2 * (1 + unit) * degenerate
                    assert bound_seifert(g, e, n) == want

    @pytest.mark.parametrize("g,n,k,want", [
        (0, 0, 1, 10),
        (1, 1, 2, 18),
        (0, 0, 3, 14),
        (2, 0, 1, 16),
    ])
    def test_piece_values(self, g, n, k, want):
        assert bound_piece(g, n, k) == want

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            bound_seifert(-1, 0, 0)
        with pytest.raises(ValueError):
            bound_seifert(0, 0, -2)
        with pytest.raises(ValueError):
            bound_piece(0, 0, 0)

    def test_graph_values(self):
        assert bound_graph(two_piece_graph()) == 14
        pieces = (SeifertPiece(1, 1, ()), SeifertPiece(0, 1, fibers(2)))
        g = GraphManifold(pieces, (Gluing(0, 0, 1, 0, SWAP),))
        assert bound_graph(g) == 22

    def test_single_piece_rejected(self):
        g = GraphManifold((SeifertPiece(0, 2, ()),), (Gluing(0, 0, 0, 1, SWAP),))
        with pytest.raises(SinglePiece):
            bound_graph(g)

    def test_sum_values(self):
        assert bound_sum(()) == 6
        assert bound_sum((two_piece_graph(), two_piece_graph())) == 22

    def test_sum_allows_single_piece_components(self):
        g = GraphManifold((SeifertPiece(0, 2, ()),), (Gluing(0, 0, 0, 1, SWAP),))
        assert bound_sum((g,)) == 6 + (bound_piece(0, 0, 2) - 6)

    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=50, deadline=None)
    def test_graph_identity_random(self, seed):
        from msflow.selftest import random_graph_manifold

        g = random_graph_manifold(random.Random(seed))
        assert bound_graph(g) == 6 + sum(
            bound_piece(p.genus, p.n, p.boundary) - 6 for p in g.pieces)


def lift_of(m):
    """The lift step of the maximal-class plan on `m`: the base skeleton as
    the ledger records it."""
    return plan_seifert(m, maximal_class(m)).steps[0]


def labels(entries):
    return [entry[0] for entry in entries]


class TestSurfaceSkeleton:
    """The base skeleton as the lift step records it."""

    def test_generic_cell(self):
        lift = lift_of(closed(2, 3, 1))
        assert len(lift["saddles"]) == 4 and labels(lift["fibers"]) == ["gamma0", "gamma1"]
        assert labels(lift["tori"]) == ["beta1", "beta2"]

    def test_unit_euler_drops_slot_zero(self):
        lift = lift_of(closed(1, -1, 2))
        assert labels(lift["fibers"]) == ["gamma1", "gamma2"]
        assert len(lift["saddles"]) == 2

    def test_degenerate_sphere_padding(self):
        lift = lift_of(closed(0, 2, 0))
        assert labels(lift["fibers"]) == ["gamma0", "aux1"]
        assert lift["saddles"] == []

    def test_unit_euler_sphere_padding(self):
        assert labels(lift_of(closed(0, 1, 0))["fibers"]) == ["aux1", "aux2"]

    def test_piece_carries_boundary_orbits(self):
        assert labels(lift_of(SeifertPiece(1, 3, fibers(1)))["tori"]) == ["beta1", "delta1", "delta2"]

    def test_orbit_stabilities_alternate(self):
        lift = lift_of(SeifertPiece(1, 3, ()))
        assert [kind for _, kind, _ in lift["tori"]] == ["attracting", "repelling", "attracting"]

    def test_rejects_other_types(self):
        with pytest.raises(MalformedSpec):
            lift_of(two_piece_graph())


class TestPoincareHopf:
    def test_holds_on_entire_grid(self):
        for g in range(6):
            for n in range(6):
                for e in range(-3, 4):
                    assert check_poincare_hopf(lift_of(closed(g, e, n)))

    def test_rejects_pieces(self):
        with pytest.raises(ValueError):
            check_poincare_hopf(lift_of(SeifertPiece(0, 1, ())))
        g = two_piece_graph()
        with pytest.raises(ValueError):
            check_poincare_hopf(plan_graph(g, maximal_class(g)).steps[0])

    def test_detects_corruption(self):
        lift = lift_of(closed(1, 2, 0))
        cls = lift["fibers"][0][2]
        assert not check_poincare_hopf(dict(lift, fibers=lift["fibers"] + [["extra", "attracting", cls]]))


def slot_grid():
    """Closed manifolds with g, n <= 3 and e in [-3, 3], pieces with k <= 3,
    each with the alpha slots that carry a fiber orbit, derived here from
    the paper: every slot but slot 0 (the regular fiber) when |e| = 1."""
    for g in range(4):
        for n in range(4):
            for e in range(-3, 4):
                yield closed(g, e, n), set(range(1 if abs(e) == 1 else 0, n + 1))
            for k in range(1, 4):
                yield SeifertPiece(g, k, fibers(n)), set(range(n + 1))


def with_alpha(c, j, value):
    alpha = list(c.alpha)
    alpha[j] = value
    return HomologyClassExpr(c.lam, tuple(alpha), c.tau)


class TestFiberSlots:
    """Validation, the maximal class, maximality and the lift step all follow
    one decision, `fiber_slots`."""

    def test_fiber_slots(self):
        for m, slots in slot_grid():
            assert set(m.fiber_slots) == slots

    def test_maximal_class_is_nonzero_exactly_on_the_slots(self):
        for m, slots in slot_grid():
            assert {j for j, a in enumerate(maximal_class(m).alpha) if a} == slots

    def test_alpha0_refused_exactly_off_the_slots(self):
        for m, slots in slot_grid():
            c = with_alpha(maximal_class(m), 0, 5)
            if 0 in slots:
                assert validate_class(m, c) is c
            else:
                with pytest.raises(Alpha0NotAllowed):
                    validate_class(m, c)

    def test_maximality_reads_alpha_only_on_the_slots(self):
        for m, slots in slot_grid():
            c = maximal_class(m)
            assert class_is_maximal(m, c)
            for j in range(m.n + 1):
                assert class_is_maximal(m, with_alpha(c, j, 0)) == (j not in slots)

    def test_lift_gammas_are_the_slots(self):
        for m, slots in slot_grid():
            gammas = [label for label, _kind, _cls in lift_of(m)["fibers"] if label.startswith("gamma")]
            assert gammas == [f"gamma{j}" for j in sorted(slots)]


def after_lift(m, *steps):
    """Replay the lift step of the maximal-class plan on `m`, then `steps`,
    the way a serialized ledger is replayed."""
    c = maximal_class(m)
    lift = plan_seifert(m, c).steps[0]
    return replay((lift, *steps), manifold=m, target_class=c)


def destroy(label, lam):
    return {"op": "destroy_torus", "torus": label, "lambda": lam}


def wada5(label, q):
    return {"op": "wada5", "orbit": label, "q": q, "p": 1}


def reverse(*ids):
    return {"op": "reverse_link", "link": list(ids)}


ADJUST = {"op": "homotopy_adjust"}


class TestSteps:
    def test_destroy_produces_curve_pair(self):
        m = closed(1, 2, 0)
        before = after_lift(m).total
        out = after_lift(m, destroy("beta1", 3))
        assert out.total == before + 2
        new = out.orbits[-2:]
        assert [o.label for o in new] == ["beta1", "beta1.saddle"]
        assert new[0].orbit_class == HomologyClassExpr((3,), (0,), None)
        assert new[1].kind == "saddle"
        assert out.steps[-1] == destroy("beta1", 3)
        with pytest.raises(UnknownTorus):
            after_lift(m, destroy("beta1", 3), destroy("beta1", 3))

    def test_destroy_unknown_torus(self):
        with pytest.raises(UnknownTorus):
            after_lift(closed(1, 2, 0), destroy("beta9", 1))

    def test_destroy_zero_coefficient(self):
        with pytest.raises(MalformedSpec, match=r"^step 1 \(destroy_torus\) is malformed: "
                           r"torus destruction needs a nonzero integer coefficient$"):
            after_lift(closed(1, 2, 0), destroy("beta1", 0))

    def test_wada_replaces_fiber(self):
        out = after_lift(closed(0, 2, 1), wada5("gamma1", 5))
        survivor = next(o for o in out.orbits if o.label == "gamma1")
        assert survivor.provenance == "wada5_survivor"
        cables = [o for o in out.orbits if o.provenance == "wada5_cable"]
        assert [o.label for o in cables] == ["gamma1.cable", "gamma1.cable_saddle"]
        assert all(o.cable == (1, 5) for o in cables)
        assert cables[0].orbit_class == HomologyClassExpr((), (0, 5), None)

    def test_wada_rejects_zero(self):
        with pytest.raises(ZeroCoefficient):
            after_lift(closed(0, 2, 1), wada5("gamma1", 0))

    def test_wada_rejects_non_fiber(self):
        m = closed(1, 2, 1)
        with pytest.raises(NotFiberOrbit):
            after_lift(m, wada5("saddle1", 2))
        with pytest.raises(NotFiberOrbit):
            after_lift(m, wada5("nonexistent", 2))

    def test_reverse_accumulates_classes(self):
        m = closed(1, 2, 0)
        led = after_lift(m, destroy("beta1", 2))
        target = next(o.id for o in led.orbits if o.label == "beta1"
                      and o.provenance == "torus_destruction")
        out = after_lift(m, destroy("beta1", 2), reverse(target))
        assert out.d2_accumulated == HomologyClassExpr((2,), (0,), None)
        assert out.orbits[target].provenance == "reversal"
        assert out.total == led.total

    def test_reverse_rejects_saddles(self):
        m = closed(1, 2, 0)
        saddle = next(o.id for o in after_lift(m).orbits if o.kind == "saddle")
        with pytest.raises(SaddleInLink):
            after_lift(m, reverse(saddle))

    def test_reverse_rejects_unknown_ids(self):
        with pytest.raises(MalformedSpec, match=r"^step 1 \(reverse_link\) is malformed: "
                           r"no orbit with id 999$"):
            after_lift(closed(0, 2, 0), reverse(999))

    def test_adjust_adds_six_and_only_once(self):
        m = closed(0, 2, 0)
        led = after_lift(m)
        out = after_lift(m, ADJUST)
        assert out.total == led.total + 6
        tail = out.orbits[-6:]
        assert [o.kind for o in tail] == [
            "attracting", "repelling", "attracting", "repelling", "saddle", "saddle"]
        assert all(o.orbit_class == HomologyClassExpr((), (0,)) for o in tail)
        assert out.d2_accumulated == led.d2_accumulated
        with pytest.raises(AlreadyAdjusted):
            after_lift(m, ADJUST, ADJUST)


class TestPlanSeifert:
    @pytest.mark.parametrize("g,e,n,want", [
        (0, 2, 0, 10),
        (0, 1, 0, 8),
        (0, -1, 0, 8),
        (3, 5, 2, 28),
        (0, 2, 3, 20),
    ])
    def test_totals_match_bounds(self, g, e, n, want):
        m = closed(g, e, n)
        led = plan_seifert(m, maximal_class(m))
        assert led.total == want == bound_seifert(g, e, n)

    def test_piece_plans(self):
        for (g, n, k) in [(0, 0, 1), (1, 1, 2), (0, 0, 3), (2, 1, 2)]:
            p = SeifertPiece(g, k, fibers(n))
            led = plan_seifert(p, maximal_class(p))
            assert led.total == bound_piece(g, n, k)

    def test_d2_reaches_target(self):
        m = closed(1, 3, 2)
        c = HomologyClassExpr((4,), (2, -3, 5), None)
        led = plan_seifert(m, c)
        assert led.d2_accumulated == c

    def test_full_grid_against_bounds(self):
        """Every cell of the closed grid: totals equal the bound, except the
        two degenerate sphere cells with |e| = 1 and one exceptional fiber,
        where the construction needs two extra orbits (pinned here)."""
        mismatches = {}
        for g in range(6):
            for n in range(6):
                for e in range(-3, 4):
                    m = closed(g, e, n)
                    led = plan_seifert(m, maximal_class(m))
                    want = bound_seifert(g, e, n)
                    if led.total != want:
                        mismatches[(g, e, n)] = (led.total, want)
        assert mismatches == {
            (0, -1, 1): (10, 8),
            (0, 1, 1): (10, 8),
        }

    def test_non_maximal_class_never_needs_more(self):
        m = closed(1, 2, 2)
        top = plan_seifert(m, maximal_class(m)).total
        for c in (
            HomologyClassExpr((0,), (0, 0, 0), None),
            HomologyClassExpr((1,), (1, 0, 2), None),
            HomologyClassExpr((-3,), (2, 1, 1), None),
        ):
            assert plan_seifert(m, c).total <= top

    def test_target_written_into_ledger(self):
        m = closed(0, 3, 1)
        c = HomologyClassExpr((), (2, 7), None)
        led = plan_seifert(m, c)
        assert led.target_class == c and led.manifold == m
        assert led.to_json()["total"] == led.total

    def test_orbit_ids_sequential(self):
        m = closed(2, -2, 1)
        led = plan_seifert(m, maximal_class(m))
        assert [o.id for o in led.orbits] == list(range(led.total))

    @given(
        g=st.integers(min_value=0, max_value=3),
        e=st.integers(min_value=-3, max_value=3),
        n=st.integers(min_value=0, max_value=3),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_d2_equals_class_property(self, g, e, n, data):
        m = closed(g, e, n)
        coeff = st.integers(min_value=-4, max_value=4)
        alpha0 = 0 if abs(e) == 1 else data.draw(coeff)
        c = HomologyClassExpr(
            tuple(data.draw(coeff) for _ in range(g)),
            (alpha0,) + tuple(data.draw(coeff) for _ in range(n)),
            None)
        led = plan_seifert(m, c)
        assert led.d2_accumulated == c
        assert led.total <= plan_seifert(m, maximal_class(m)).total


class TestPlanGraph:
    def test_two_piece_total(self):
        g = two_piece_graph()
        led = plan_graph(g, maximal_class(g))
        assert led.total == bound_graph(g) == 14

    def test_labels_carry_piece_prefixes(self):
        g = two_piece_graph()
        led = plan_graph(g, maximal_class(g))
        prefixed = [o for o in led.orbits if o.provenance != "homotopy_adjust"]
        assert prefixed and all(o.label.startswith(("p0.", "p1.")) for o in prefixed)
        assert all(o.piece in (0, 1) for o in prefixed)
        adjusters = [o for o in led.orbits if o.provenance == "homotopy_adjust"]
        assert len(adjusters) == 6 and all(o.piece is None for o in adjusters)

    def test_one_global_reversal_and_adjustment(self):
        g = two_piece_graph()
        led = plan_graph(g, maximal_class(g))
        ops = [s["op"] for s in led.steps]
        assert ops.count("reverse_link") == 1
        assert ops.count("homotopy_adjust") == 1
        assert ops[-1] == "homotopy_adjust"

    def test_d2_is_per_piece(self):
        g = two_piece_graph()
        exprs = (HomologyClassExpr((), (3,), ()), HomologyClassExpr((), (-2,), ()))
        led = plan_graph(g, exprs)
        assert led.d2_accumulated == exprs

    def test_single_piece_rejected(self):
        g = GraphManifold((SeifertPiece(0, 2, ()),), (Gluing(0, 0, 0, 1, SWAP),))
        with pytest.raises(SinglePiece):
            plan_graph(g, maximal_class(g))

    @given(seed=st.integers(min_value=0, max_value=3_000))
    @settings(max_examples=30, deadline=None)
    def test_random_graph_totals(self, seed):
        from msflow.selftest import random_graph_manifold

        g = random_graph_manifold(random.Random(seed))
        led = plan_graph(g, maximal_class(g))
        assert led.total == bound_graph(g)
        assert led.d2_accumulated == maximal_class(g)


class TestReplay:
    def test_round_trip_closed(self):
        m = closed(2, 3, 2)
        c = maximal_class(m)
        led = plan_seifert(m, c)
        doc = json.loads(json.dumps(led.to_json()))
        again = replay(doc["steps"], manifold=m, target_class=c)
        assert again.to_json() == led.to_json()

    def test_round_trip_graph(self):
        g = two_piece_graph()
        led = plan_graph(g, maximal_class(g))
        doc = json.loads(json.dumps(led.to_json()))
        again = replay(doc["steps"], manifold=g, target_class=maximal_class(g))
        assert again.to_json()["orbits"] == doc["orbits"]
        assert again.total == led.total

    def test_steps_alone_suffice(self):
        m = closed(1, -1, 1)
        led = plan_seifert(m, maximal_class(m))
        bare = replay(led.steps)
        assert bare.total == led.total
        assert [o.to_json()["class"] for o in bare.orbits] == [
            o.to_json()["class"] for o in led.orbits]

    def test_unknown_op_rejected(self):
        with pytest.raises(MalformedSpec, match=r"^step 0 "):
            replay(({"op": "teleport"},))
        with pytest.raises(MalformedSpec, match=r"^step 0 "):
            replay(("lift",))

    def test_replay_is_deterministic(self):
        m = closed(3, 2, 3)
        led = plan_seifert(m, maximal_class(m))
        a = replay(led.steps).to_json()
        b = replay(led.steps).to_json()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestLedgerJson:
    def test_schema_fields(self):
        m = closed(0, 2, 1)
        led = plan_seifert(m, maximal_class(m))
        doc = led.to_json()
        assert set(doc) == {"manifold", "target_class", "steps", "orbits", "d2", "total"}
        for orbit in doc["orbits"]:
            assert {"id", "kind", "label", "class", "provenance"} <= set(orbit)

    def test_graph_d2_carries_reference_offsets(self):
        g = two_piece_graph()
        doc = plan_graph(g, maximal_class(g)).to_json()
        assert doc["d2"]["reference_offsets"] == ["e_1", "e_2"]
        assert len(doc["d2"]["pieces"]) == 2


GOOD_LIFT = {"op": "lift", "fibers": [["gamma0", "attracting", {"lambda": [], "alpha": [1]}]],
             "saddles": [], "tori": []}


# the closed lift of a plan on SeifertClosed(1, 2, ()) and piece 0's lift of a graph plan
CLOSED_LIFT = after_lift(closed(1, 2, 0)).steps[0]
PIECE_LIFT = plan_graph(two_piece_graph(), maximal_class(two_piece_graph())).steps[0]
# a lift whose classes differ in length, which no plan produces
MIXED_LIFT = dict(GOOD_LIFT, fibers=[GOOD_LIFT["fibers"][0],
                                     ["gamma1", "repelling", {"lambda": [], "alpha": [0, 1]}]])
# CLOSED_LIFT with its beta1 torus of a kind that no skeleton has
SIDEWAYS_LIFT = dict(CLOSED_LIFT, tori=[[label, "sideways", unit]
                                        for label, _kind, unit in CLOSED_LIFT["tori"]])


# each case is (steps, index of the step at fault)
@pytest.mark.parametrize("steps,k", [
    *(((GOOD_LIFT, step), 1) for step in (
        {"op": "destroy_torus"},
        {"op": "lift"},
        {"op": "wada5", "orbit": "gamma1"},
        {"op": "reverse_link"},
        dict(GOOD_LIFT, fibers=[["gamma1", "attracting"]]),
        dict(GOOD_LIFT, fibers=5),
        dict(GOOD_LIFT, fibers=[]),
        dict(GOOD_LIFT, fibers=[["gam ma0", "attracting", {"lambda": [], "alpha": [1]}]]),
        dict(GOOD_LIFT, fibers=[["gamma0", "attracting", {"lambda": [], "alpha": [1.5]}]]),
        dict(GOOD_LIFT, fibers=[["p3.gamma0", "attracting", {"lambda": [], "alpha": [1]}]]),
        {"op": "reverse_link", "link": [0.9]},
        {"op": "reverse_link", "link": ["0"]},
        {"op": "reverse_link", "link": [False]},
        dict(GOOD_LIFT, fibers=[["p1.gamma0", "attracting", {"lambda": [], "alpha": [1]}]]),
    )),
    ((CLOSED_LIFT, CLOSED_LIFT), 1),
    ((PIECE_LIFT, CLOSED_LIFT), 1),
    ((MIXED_LIFT, reverse(0, 1)), 0),
    ((SIDEWAYS_LIFT, destroy("beta1", 1)), 0),
    ((dict(GOOD_LIFT, fibers=[["gamma0", "saddle", {"lambda": [], "alpha": [1]}]]),), 0),
    ((dict(GOOD_LIFT, fibers=GOOD_LIFT["fibers"] * 2),), 0),
    ((dict(PIECE_LIFT, fibers=[*PIECE_LIFT["fibers"],
                               ["p5.gamma1", "attracting", PIECE_LIFT["fibers"][0][2]]]),), 0),
    ((dict(GOOD_LIFT, bogus=1),), 0),
    ((GOOD_LIFT, dict(wada5("gamma0", 2), p=7)), 1),
    ((GOOD_LIFT, dict(wada5("gamma0", 2), p=True)), 1),
    ((GOOD_LIFT, dict(wada5("gamma0", 2), p=1.0)), 1),
    ((GOOD_LIFT, dict(wada5("gamma0", 2), p="1")), 1),
    ((CLOSED_LIFT, dict(destroy("beta1", 1), bogus=1)), 1),
], ids=["destroy-no-fields", "lift-no-fields", "wada5-no-q", "reverse-no-link",
        "lift-entry-arity", "lift-fibers-scalar", "lift-empty", "lift-label-space",
        "lift-fractional-coefficient", "lift-piece-out-of-order", "reverse-float-id",
        "reverse-string-id", "reverse-bool-id", "lift-piece-after-closed",
        "lift-closed-repeated", "lift-closed-after-piece", "reverse-mixed-lengths",
        "lift-torus-kind", "lift-saddle-fiber", "lift-repeated-label", "lift-mixed-pieces",
        "lift-extra-key", "wada5-p", "wada5-p-true", "wada5-p-float", "wada5-p-string",
        "destroy-extra-key"])
def test_malformed_step_names_its_index_and_op(steps, k):
    with pytest.raises(MalformedSpec, match=rf"^step {k} \({steps[k]['op']}\)"):
        replay(steps)


@pytest.mark.parametrize("steps,error", [
    ((destroy("nope", 1),), UnknownTorus),
    ((wada5("saddle1", 2),), NotFiberOrbit),
    ((wada5("gamma1", 0),), ZeroCoefficient),
    ((reverse(2),), SaddleInLink),
    ((ADJUST, ADJUST), AlreadyAdjusted),
], ids=["unknown-torus", "not-fiber-orbit", "zero-coefficient", "saddle-in-link",
        "already-adjusted"])
def test_step_error_names_its_index_and_op(steps, error):
    # closed(1, 2, 1) lifts gamma0, gamma1, then saddle1 with id 2
    with pytest.raises(error, match=rf"^step {len(steps)} \({steps[-1]['op']}\): "):
        after_lift(closed(1, 2, 1), *steps)
