"""Construction, validation, and serialization of the manifold types."""

import json

import pytest
from hypothesis import given, strategies as st

from msflow.errors import (
    Alpha0NotAllowed,
    BadGluingMatrix,
    DisconnectedGraph,
    DimensionMismatch,
    InvalidCoefficient,
    MalformedSpec,
    UnmatchedBoundary,
)
from msflow.manifolds import (
    GraphManifold,
    Gluing,
    HomologyClassExpr,
    SeifertClosed,
    SeifertPiece,
    SurgeryCoefficient,
    graph_from_json,
    maximal_class,
    parse_graph,
    parse_seifert,
    validate_class,
)

SWAP = ((0, 1), (1, 0))


def two_piece_graph() -> GraphManifold:
    pieces = (SeifertPiece(0, 1, ()), SeifertPiece(0, 1, ()))
    return GraphManifold(pieces, (Gluing(0, 0, 1, 0, SWAP),))


class TestSurgeryCoefficient:
    def test_valid(self):
        c = SurgeryCoefficient(3, 2)
        assert (c.p, c.q) == (3, 2)

    @pytest.mark.parametrize("p", [0, 1, -1])
    def test_unit_or_zero_p_rejected(self, p):
        with pytest.raises(InvalidCoefficient):
            SurgeryCoefficient(p, 1)

    def test_zero_q_rejected(self):
        with pytest.raises(InvalidCoefficient):
            SurgeryCoefficient(2, 0)

    def test_common_factor_rejected(self):
        with pytest.raises(InvalidCoefficient):
            SurgeryCoefficient(4, 2)


class TestSeifertTypes:
    def test_closed_counts_fibers(self):
        m = SeifertClosed(2, -1, (SurgeryCoefficient(2, 1), SurgeryCoefficient(3, 1)))
        assert m.n == 2 and m.genus == 2 and m.euler == -1

    def test_negative_genus_rejected(self):
        with pytest.raises(MalformedSpec):
            SeifertClosed(-1, 0, ())

    def test_piece_needs_boundary(self):
        with pytest.raises(MalformedSpec):
            SeifertPiece(0, 0, ())

    def test_round_trip_text(self):
        m = SeifertClosed(1, -2, (SurgeryCoefficient(5, 3), SurgeryCoefficient(-2, 1)))
        text = f"g={m.genus},e={m.euler},fibers=" + ";".join(f"{f.p}/{f.q}" for f in m.fibers)
        assert text == "g=1,e=-2,fibers=5/3;-2/1"
        assert parse_seifert(text) == m

    def test_parse_rejects_garbage(self):
        with pytest.raises(MalformedSpec):
            parse_seifert("genus 3 euler 1")

    def test_parse_fibers(self):
        m = parse_seifert("g=0,e=-1,fibers=2/1;3/1;5/1")
        assert [f.p for f in m.fibers] == [2, 3, 5]


class TestGluing:
    def test_determinant_checked(self):
        with pytest.raises(BadGluingMatrix):
            Gluing(0, 0, 1, 0, ((2, 0), (0, 1)))

    def test_shape_checked(self):
        with pytest.raises(BadGluingMatrix):
            Gluing(0, 0, 1, 0, ((1, 0, 0), (0, 1, 0)))


class TestGraphManifold:
    def test_each_slot_used_once(self):
        pieces = (SeifertPiece(0, 1, ()), SeifertPiece(0, 2, ()))
        with pytest.raises(UnmatchedBoundary):
            GraphManifold(pieces, (Gluing(0, 0, 1, 0, SWAP),))

    def test_double_use_rejected(self):
        pieces = (SeifertPiece(0, 2, ()), SeifertPiece(0, 2, ()))
        edges = (Gluing(0, 0, 1, 0, SWAP), Gluing(0, 0, 1, 1, SWAP))
        with pytest.raises(UnmatchedBoundary):
            GraphManifold(pieces, edges)

    def test_connectivity_required(self):
        pieces = tuple(SeifertPiece(0, 2, ()) for _ in range(2))
        edges = (Gluing(0, 0, 0, 1, SWAP), Gluing(1, 0, 1, 1, SWAP))
        with pytest.raises(DisconnectedGraph):
            GraphManifold(pieces, edges)

    def test_self_gluing_allowed(self):
        g = GraphManifold((SeifertPiece(0, 2, ()),), (Gluing(0, 0, 0, 1, SWAP),))
        assert g.l == 1

    def test_json_round_trip(self):
        g = two_piece_graph()
        assert graph_from_json(json.loads(json.dumps(g.to_json()))) == g

    def test_parse_graph_rejects_bad_document(self):
        with pytest.raises(MalformedSpec):
            parse_graph("[1, 2, 3]")

    def test_slot_totals_even(self):
        # every edge consumes two slots, so valid graphs have an even total
        g = two_piece_graph()
        assert sum(p.boundary for p in g.pieces) == 2 * len(g.edges)


class TestHomologyClassExpr:
    def test_addition_and_scaling(self):
        a = HomologyClassExpr((1,), (2, 3), None)
        b = HomologyClassExpr((4,), (5, 6), None)
        assert a + b == HomologyClassExpr((5,), (7, 9), None)
        assert a.scale(2) == HomologyClassExpr((2,), (4, 6), None)
        assert a.scale(-1) + a == HomologyClassExpr((0,), (0, 0), None)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(DimensionMismatch):
            HomologyClassExpr((1,), (2,), None) + HomologyClassExpr((), (2,), None)

    def test_json_round_trip(self):
        c = HomologyClassExpr((1, -2), (0, 3), (4,))
        assert HomologyClassExpr.from_json(c.to_json()) == c

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(MalformedSpec):
            HomologyClassExpr.from_json({"lambda": [], "alpha": [2], "sigma": [1]})

    def test_from_json_rejects_the_orbit_piece_key(self):
        # only a ledger's orbit documents carry "piece", and nothing parses them
        with pytest.raises(MalformedSpec, match=r"unknown class keys \['piece'\]"):
            HomologyClassExpr.from_json({"lambda": [], "alpha": [2, 2], "tau": [], "piece": 7})


class TestValidateClass:
    def test_lengths_enforced(self):
        m = SeifertClosed(1, 2, (SurgeryCoefficient(3, 1),))
        validate_class(m, HomologyClassExpr((5,), (2, 7), None))
        with pytest.raises(DimensionMismatch):
            validate_class(m, HomologyClassExpr((5, 1), (2, 7), None))
        with pytest.raises(DimensionMismatch):
            validate_class(m, HomologyClassExpr((5,), (2,), None))

    def test_tau_forbidden_on_closed(self):
        m = SeifertClosed(0, 2, ())
        with pytest.raises(DimensionMismatch):
            validate_class(m, HomologyClassExpr((), (2,), (1,)))

    def test_tau_required_on_pieces(self):
        p = SeifertPiece(0, 3, ())
        validate_class(p, HomologyClassExpr((), (2,), (1, 4)))
        with pytest.raises(DimensionMismatch):
            validate_class(p, HomologyClassExpr((), (2,), None))

    def test_unit_euler_alpha0_rejected(self):
        m = SeifertClosed(0, 1, (SurgeryCoefficient(2, 1),))
        with pytest.raises(Alpha0NotAllowed):
            validate_class(m, HomologyClassExpr((), (3, 2), None))
        validate_class(m, HomologyClassExpr((), (0, 2), None))

    def test_graph_takes_one_expr_per_piece(self):
        g = two_piece_graph()
        exprs = maximal_class(g)
        validate_class(g, exprs)
        with pytest.raises(DimensionMismatch):
            validate_class(g, exprs[:1])


class TestMaximalClass:
    def test_closed_all_twos(self):
        m = SeifertClosed(1, 2, (SurgeryCoefficient(3, 1),))
        assert maximal_class(m) == HomologyClassExpr((2,), (2, 2), None)

    def test_unit_euler_zeroes_alpha0(self):
        m = SeifertClosed(0, -1, (SurgeryCoefficient(2, 1),))
        assert maximal_class(m) == HomologyClassExpr((), (0, 2), None)

    def test_piece_gets_tau(self):
        p = SeifertPiece(1, 2, ())
        assert maximal_class(p) == HomologyClassExpr((2,), (2,), (2,))

    def test_graph_is_per_piece(self):
        g = two_piece_graph()
        exprs = maximal_class(g)
        assert isinstance(exprs, tuple) and len(exprs) == 2
        validate_class(g, exprs)


@given(
    genus=st.integers(min_value=0, max_value=4),
    euler=st.integers(min_value=-4, max_value=4),
    ps=st.lists(st.sampled_from([-5, -3, -2, 2, 3, 5]), max_size=4),
)
def test_maximal_class_always_validates(genus, euler, ps):
    m = SeifertClosed(genus, euler, tuple(SurgeryCoefficient(p, 1) for p in ps))
    validate_class(m, maximal_class(m))


@given(data=st.data())
def test_valid_graphs_have_even_slot_totals(data):
    """Random valid graphs: Σ boundary slots = 2 * #edges always."""
    import random as _random

    from msflow.selftest import random_graph_manifold

    seed = data.draw(st.integers(min_value=0, max_value=10_000))
    g = random_graph_manifold(_random.Random(seed))
    assert sum(p.boundary for p in g.pieces) == 2 * len(g.edges)
    assert 2 <= g.l <= 5
