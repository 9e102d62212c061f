"""Numerical checks of the local vector-field models.

Tolerances here are frozen: boundary agreement 1e-12 (observed ~1e-15),
orbit closure 1e-6 at dt = 1e-3, transversality threshold 1e-3 on the
sine of the crossing angle.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from msflow.errors import (
    DegenerateOverlap,
    NonFinite,
    NothingToRepair,
    OrbitNotClosed,
    StepTooLarge,
    VanishingField,
    ZeroLambda,
)
from msflow import cli, flowlab as fl

import reference_intersections
import reference_numerics


class TestChartFields:
    @pytest.mark.parametrize("lam", [2, 3, 5, -2])
    def test_boundary_field_exact(self, lam):
        field = fl.TorusChartField(lam)
        assert fl.boundary_max_error(field) < 1e-12

    def test_boundary_value_is_product_model(self):
        field = fl.TorusChartField(2)
        top = field(np.array([0.3, 1.0, 0.8]))
        bottom = field(np.array([0.3, -1.0, 0.8]))
        assert np.allclose(top, [1.0, -1.0, 1.0], atol=1e-12)
        assert np.allclose(bottom, [1.0, 1.0, 1.0], atol=1e-12)

    def test_zero_lambda_rejected(self):
        with pytest.raises(ZeroLambda):
            fl.TorusChartField(0)
        with pytest.raises(ZeroLambda):
            fl.TorusChartField(1.5)

    def test_field_is_periodic(self):
        field = fl.TorusChartField(3)
        p = np.array([0.37, 0.21, 0.64])
        assert np.allclose(field(p), field(p + [1, 0, 0]), atol=1e-9)
        assert np.allclose(field(p), field(p + [0, 0, 1]), atol=1e-9)

    def test_round_handle_signs(self):
        attract = fl.RoundHandleField("attracting")
        repel = fl.RoundHandleField("repelling")
        p = np.array([0.0, 0.5])
        assert attract(p)[1] == -0.5 and repel(p)[1] == 0.5
        with pytest.raises(ValueError):
            fl.RoundHandleField("sideways")


class TestRk4:
    def test_constant_speed_loop_closes(self):
        traj = fl.rk4_integrate(fl.RoundHandleField(), np.array([0.0, 0.0]), 1e-3, 1.0)
        assert fl.wrapped_distance(traj.end, traj.start, (True, False)) < 1e-9

    def test_exponential_decay_accuracy(self):
        traj = fl.rk4_integrate(fl.RoundHandleField(), np.array([0.0, 0.5]), 1e-3, 10.0)
        assert abs(traj.end[1] - 0.5 * math.exp(-10.0)) < 1e-6

    def test_fourth_order_convergence(self):
        report = fl.verify_round_handle()
        assert report["order_ratio"] >= 8.0

    def test_step_validation(self):
        field = fl.RoundHandleField()
        with pytest.raises(ValueError):
            fl.rk4_integrate(field, np.array([0.0, 0.0]), 2.0, 1.0)
        with pytest.raises(ValueError):
            fl.rk4_integrate(field, np.array([0.0, 0.0]), -0.1, 1.0)

    @pytest.mark.parametrize("dt,T", [(1e-3, math.inf), (math.inf, 1.0), (math.inf, math.inf),
                                      (1e-3, math.nan), (math.nan, 1.0)])
    def test_non_finite_step_or_time_rejected(self, dt, T):
        with pytest.raises(ValueError, match="need 0 < dt <= T"):
            fl.rk4_integrate(fl.RoundHandleField(), np.array([0.0, 0.0]), dt, T)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            fl.rk4_integrate(fl.RoundHandleField(), np.array([0.0, 0.0, 0.0]), 0.1, 1.0)

    def test_non_finite_detected(self):
        class Exploding:
            dim = 1
            circle_mask = (False,)

            def __call__(self, points):
                points = np.asarray(points, dtype=float)
                return np.full_like(points, np.inf)

        with pytest.raises(NonFinite):
            fl.rk4_integrate(Exploding(), np.array([0.0]), 0.1, 1.0)

    def test_batched_points(self):
        field = fl.RoundHandleField()
        starts = np.zeros((7, 2))
        starts[:, 1] = np.linspace(-0.5, 0.5, 7)
        traj = fl.rk4_integrate(field, starts, 1e-2, 1.0)
        assert traj.points.shape == (101, 7, 2)
        assert np.allclose(traj.end[:, 1], starts[:, 1] * math.exp(-1.0), atol=1e-8)

    def test_deck_translation_invariance(self):
        field = fl.TorusChartField(3)
        p = np.array([0.37, 0.21, 0.64])
        a = fl.rk4_integrate(field, p, 1e-3, 1.0)
        b = fl.rk4_integrate(field, p + np.array([1.0, 0.0, 1.0]), 1e-3, 1.0)
        gap = np.max(np.abs(fl.wrapped_delta(a.points, b.points, field.circle_mask)))
        assert gap < 1e-9


class TestOrbitDetection:
    @pytest.mark.parametrize("lam", [2, 3, 5])
    def test_two_orbits_close(self, lam):
        orbits = fl.detect_torus_orbits(fl.TorusChartField(lam))
        assert len(orbits) == 2
        for traj, _signs in orbits:
            err = fl.wrapped_distance(traj.end, traj.start, (True, False, True))
            assert err < 1e-6

    def test_floquet_patterns(self):
        orbits = fl.detect_torus_orbits(fl.TorusChartField(2))
        assert orbits[0][1] == (-1, -1)
        assert orbits[1][1] == (1, -1)

    def test_orbits_stay_on_invariant_circles(self):
        lam = 3
        for (traj, _), b_star in zip(fl.detect_torus_orbits(fl.TorusChartField(lam)),
                                     (0.25, 0.75)):
            assert np.all(traj.points[:, 1] == 0.0)
            b = (lam * traj.points[:, 2] - traj.points[:, 0]) % 1.0
            assert np.max(np.abs(b - b_star)) < 1e-9

    def test_shifted_profile_breaks_closure(self):
        field = fl.TorusChartField(2, g_shift=2.0)
        with pytest.raises(OrbitNotClosed):
            fl.detect_torus_orbits(field)

    @pytest.mark.parametrize("lam", [2, -2])
    def test_verify_report(self, lam):
        report, orbits = fl.verify_torus_model(lam)
        assert report["pass"] and report["lambda"] == lam
        assert [o["floquet"] for o in report["orbits"]] == [[-1, -1], [1, -1]]
        assert report["boundary_max_error"] < 1e-12
        assert len(orbits) == 2


class _Negated:
    def __init__(self, field):
        self.field, self.dim, self.circle_mask = field, field.dim, field.circle_mask

    def __call__(self, points):
        return -self.field(points)


def reference_detection(lam, dt):
    """The two orbits and their signs from six separate numpy RK4 runs of the
    oracle field: each orbit start (the b = 3/4 one under the negated field)
    and its two perturbations."""
    field = reference_numerics.TorusChartField(lam)
    eps = 1e-4
    results = []
    for b_star, forward in ((0.25, True), (0.75, False)):
        x0 = np.array([(-b_star) % 1.0, 0.0, 0.0])
        traj = reference_numerics.rk4_integrate(field if forward else _Negated(field), x0, dt, 1.0)
        perturbed_b = reference_numerics.rk4_integrate(field, x0 + np.array([-eps, 0.0, 0.0]), dt, 1.0)
        b_end = (field.lam * perturbed_b.end[2] - perturbed_b.end[0]) % 1.0
        sign_b = 1 if abs((b_end - b_star + 0.5) % 1.0 - 0.5) > eps else -1
        perturbed_x = reference_numerics.rk4_integrate(field, x0 + np.array([0.0, eps, 0.0]), dt, 1.0)
        sign_x = 1 if abs(perturbed_x.end[1]) > eps else -1
        results.append((traj, (sign_b, sign_x)))
    return results


class TestBatchedDetection:
    """The detection's forward batch and backward run give the floats of six
    separate numpy runs."""

    @pytest.mark.parametrize("lam,dt", [(2, 1e-3), (-2, 1e-3), (3, 1e-3), (5, 1e-3), (20, 1e-3),
                                        (21, 1e-3), (-21, 1e-3), (22, 5e-4)])
    def test_matches_separate_runs(self, lam, dt):
        batched = fl.detect_torus_orbits(fl.TorusChartField(lam), dt=dt)
        for (traj, signs), (ref, ref_signs) in zip(batched, reference_detection(lam, dt),
                                                   strict=True):
            assert np.array_equal(traj.points, ref.points)
            assert np.array_equal(traj.times, ref.times)
            assert signs == ref_signs

    def test_csv_dump_is_unchanged(self, tmp_path):
        written = tmp_path / "batched.csv"
        assert cli.run(["verify", "torus-model", "--lambda", "3",
                        "--dump-csv", str(written)]).exit_code == 0
        expected = tmp_path / "separate.csv"
        cli._dump_orbits_csv(str(expected), reference_detection(3, 1e-3))
        assert written.read_bytes() == expected.read_bytes()


class TestStepStability:
    """RK4 resolves the in-torus rate 2*pi*(lam^2 + 1) only while rate * dt
    stays inside its stability interval, about 2.785."""

    @pytest.mark.parametrize("lam,dt", [(22, 1e-3), (-22, 1e-3), (40, 1e-3), (15, 2e-3)])
    def test_stiff_lambda_raises_before_integrating(self, lam, dt):
        with pytest.raises(StepTooLarge, match=rf"dt={dt:g}"):
            fl.detect_torus_orbits(fl.TorusChartField(lam), dt=dt)

    def test_message_names_the_largest_stable_step(self):
        with pytest.raises(StepTooLarge) as info:
            fl.detect_torus_orbits(fl.TorusChartField(40))
        limit = fl.RK4_STABILITY / (2 * math.pi * (40 ** 2 + 1))
        assert f"{limit:.3e}" in str(info.value)
        assert "|lambda| <= 21" in str(info.value)

    def test_overflowing_lambda_counts_its_digits(self):
        with pytest.raises(StepTooLarge) as info:
            fl.detect_torus_orbits(fl.TorusChartField(-10 ** 400))
        assert str(info.value) == (
            "lambda with 401 digits is too large for float arithmetic, so its in-torus rate "
            "has no stable RK4 step (at dt=0.001, |lambda| <= 21 resolves)")

    def test_smaller_step_resolves_a_stiff_lambda(self):
        # 2*pi*(22^2 + 1) * 5e-4 = 1.52, well inside the interval
        orbits = fl.detect_torus_orbits(fl.TorusChartField(22), dt=5e-4)
        for traj, _signs in orbits:
            assert fl.wrapped_distance(traj.end, traj.start, (True, False, True)) < 1e-6


class TestTorusCurve:
    def test_line_class(self):
        assert fl.TorusCurve.line(2, 3).homology_class == (2, 3)

    def test_line_rejects_null_direction(self):
        with pytest.raises(ValueError):
            fl.TorusCurve.line(0, 0)

    def test_minimum_sampling(self):
        with pytest.raises(ValueError):
            fl.TorusCurve.line(1, 0, n=100)
        with pytest.raises(ValueError):
            fl.TorusCurve.from_function(lambda s: np.stack([s, s], axis=-1), n=100)

    def test_non_closing_rejected(self):
        with pytest.raises(OrbitNotClosed):
            fl.TorusCurve.from_function(lambda s: np.stack([s * 0.5, s], axis=-1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_rejected(self, bad):
        # a nan gap passed the integer-class check, and nan midpoints have no bucket
        with pytest.raises(ValueError, match="finite"):
            fl.TorusCurve.from_function(
                lambda s: np.stack([s, np.where(s > 0.5, bad, 0.0)], axis=-1), n=512)

    def test_translate_keeps_class(self):
        c = fl.TorusCurve.line(1, 2).translate((0.3, -0.7))
        assert c.homology_class == (1, 2)


class TestIntersections:
    def test_orthogonal_lines_cross_once(self):
        a = fl.TorusCurve.line(1, 0)
        b = fl.TorusCurve.line(0, 1, offset=0.3)
        pts = fl.curve_intersections(a, b)
        assert len(pts) == 1
        point, transverse = pts[0]
        assert transverse and np.allclose(point, [0.7, 0.0], atol=1e-9)

    def test_parallel_lines_never_meet(self):
        a = fl.TorusCurve.line(1, 0)
        c = fl.TorusCurve.line(1, 0, offset=0.5)
        assert fl.curve_intersections(a, c) == []

    def test_identical_lines_degenerate(self):
        a = fl.TorusCurve.line(1, 0)
        with pytest.raises(DegenerateOverlap):
            fl.curve_intersections(a, fl.TorusCurve.line(1, 0))

    def test_demo_tangency_detected(self):
        l1, l2 = fl.demo_curves()
        pts = fl.curve_intersections(l1, l2)
        assert len(pts) == 1
        point, transverse = pts[0]
        assert not transverse and np.allclose(point, [0.0, 0.0], atol=1e-9)

    def test_count_matches_homological_number(self):
        # (1, 0) against (1, 3): |1*3 - 0*1| = 3 transverse points
        a = fl.TorusCurve.line(1, 0, offset=0.1)
        b = fl.TorusCurve.line(1, 3, n=2048)
        pts = fl.curve_intersections(a, b)
        assert len(pts) == 3 and all(t for _, t in pts)

    @pytest.mark.parametrize("swap", [False, True])
    def test_one_cell_grid(self, swap):
        # a one-segment curve spans the whole circle: it is cut into three
        # pieces, on a grid of two cells per circle, where a cell's two
        # neighbours are one cell
        pair = fl.TorusCurve(np.array([[0.0, 0.3], [1.0, 0.3]])), fl.TorusCurve.line(0, 1, offset=-0.2)
        pts = fl.curve_intersections(*(pair[::-1] if swap else pair))
        assert [(point.tolist(), transverse) for point, transverse in pts] == [([0.2, 0.3], True)]

    @pytest.mark.parametrize("swap", [False, True])
    def test_one_segment_spanning_two_periods(self, swap):
        # the (2, 1) segment meets y = 0.21 once, at a translate other than
        # the one nearest by midpoint
        pair = fl.TorusCurve(np.outer([0, 1], [2, 1]) + [0.13, 0.37]), fl.TorusCurve.line(1, 0, 0.21)
        pts = fl.curve_intersections(*(pair[::-1] if swap else pair))
        assert len(pts) == 1
        point, transverse = pts[0]
        assert transverse and np.allclose(point, [0.81, 0.21], atol=1e-12)


@st.composite
def _crossing_lines(draw):
    """Two straight lines of coprime, non-parallel classes with |p|, |q| <= 40
    at generic offsets."""
    coprime = st.tuples(st.integers(-40, 40), st.integers(-40, 40)).filter(lambda v: math.gcd(*v) == 1)
    (p1, q1), (p2, q2) = draw(coprime), draw(coprime)
    assume(p1 * q2 - q1 * p2 != 0)
    return tuple(fl.TorusCurve.line(p, q, draw(st.floats(-0.5, 0.5)), n=draw(st.sampled_from([512, 600])))
                 for p, q in ((p1, q1), (p2, q2)))


class TestIntersectionNumber:
    """Straight lines cross exactly |p1*q2 - q1*p2| times, without an oracle:
    segments that straddle a seam are found, on grids of a dozen to hundreds
    of cells per circle, and thousands of crossings merge in linear time."""

    @given(pair=_crossing_lines())
    @example(pair=(fl.TorusCurve.line(2, 3, 0.0371), fl.TorusCurve.line(5, -7, 0.1123)))
    @example(pair=(fl.TorusCurve.line(1, 0, 0.0371), fl.TorusCurve.line(1, 40, 0.1123)))
    @example(pair=(fl.TorusCurve.line(40, 39, 0.3), fl.TorusCurve.line(39, 38, -0.2)))
    @example(pair=(fl.TorusCurve.line(39, 40, 0.013, n=600), fl.TorusCurve.line(40, -39, 0.21, n=600)))
    @settings(max_examples=40, deadline=None)
    def test_count_is_the_intersection_number(self, pair):
        # transversality is not asserted: (40, 39) and (39, 38) cross at a
        # sine of 3.3e-4, below the default threshold
        (p1, q1), (p2, q2) = (curve.homology_class for curve in pair)
        assert len(fl.curve_intersections(*pair)) == abs(p1 * q2 - q1 * p2)


def _random_pair():
    """A (1, 2)-line and a seeded wiggly curve of class (2, -1): five
    crossings in homology, nine on the polylines."""
    rng = np.random.default_rng(7)
    k = np.arange(1, 6)
    ax, ay = rng.normal(0.0, 1.0, (2, 5))
    phase = rng.uniform(0.0, 2.0 * np.pi, 5)

    def fn(s):
        wiggle = np.sin(2.0 * np.pi * np.outer(s, k) + phase)
        return np.stack([2.0 * s + wiggle @ (ax / k), -s + wiggle @ (ay / k)], axis=-1)

    return fl.TorusCurve.line(1, 2, offset=0.13, n=1024), fl.TorusCurve.from_function(fn, n=2048)


def _wrapped_gap(a, b):
    return float(np.max(np.abs((a - b + 0.5) % 1.0 - 0.5)))


@st.composite
def _lines(draw):
    p, q = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(lambda v: v != (0, 0)))
    offset = draw(st.sampled_from([0.0, 0.25, 0.5]) | st.floats(-0.5, 0.5))
    return fl.TorusCurve.line(p, q, offset, n=draw(st.sampled_from([512, 600])))


@st.composite
def _tangent_pairs(draw):
    """A horizontal line y = c and a curve touching it from one side at s = k/m,
    optionally also crossing it (the mixed profile)."""
    c = draw(st.floats(-0.5, 0.5))
    a = draw(st.floats(0.02, 0.2)) * draw(st.sampled_from([1.0, -1.0]))
    m = draw(st.integers(1, 3))
    mixed = draw(st.booleans())

    def fn(s):
        bump = a * (1.0 - np.cos(2.0 * np.pi * m * s))
        return np.stack([s, c + (bump * np.cos(2.0 * np.pi * s) if mixed else bump)], axis=-1)

    curve = fl.TorusCurve.from_function(fn, n=draw(st.sampled_from([512, 700])))
    # sliding along the line or by whole periods keeps the tangency
    shift = (draw(st.floats(-1.5, 1.5)), float(draw(st.integers(-1, 1))))
    return fl.TorusCurve.line(1, 0, c, n=draw(st.sampled_from([512, 600]))), curve.translate(shift)


def _corner_pair(c, s0, k1, k2, n=512, transpose=False):
    """A horizontal line y = c and a closed curve of class (1, 0) crossing it
    at the sample vertex s0 = j/n, with slope k1 before the vertex and k2
    after it: both segments at the vertex find the crossing, with different
    sines.  At s0 = 0 the two copies can land on either side of the seam;
    `transpose` swaps the coordinates, moving that seam from x to y."""
    knots = [s0 - 0.25, s0, s0 + 0.25, s0 + 0.75]
    heights = [-0.25 * k1, 0.0, 0.25 * k2, -0.25 * k1]

    def fn(s):
        return np.stack([s, c + np.interp(s, knots, heights, period=1.0)], axis=-1)

    pair = fl.TorusCurve.line(1, 0, c, n=n), fl.TorusCurve.from_function(fn, n=n)
    return tuple(fl.TorusCurve(curve.points[:, ::-1]) for curve in pair) if transpose else pair


@st.composite
def _corner_pairs(draw):
    n = draw(st.sampled_from([512, 700]))
    return _corner_pair(draw(st.floats(-0.5, 0.5)), draw(st.integers(0, n - 1)) / n,
                        draw(st.floats(0.01, 0.09)), draw(st.floats(0.6, 4.0)), n,
                        draw(st.booleans()))


@st.composite
def _short_polylines(draw):
    """A closed polyline of 1-5 segments of class (p, q), |p|, |q| <= 3, with
    vertices anywhere in a few periods, so segments can span whole periods."""
    p, q = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    coords = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    vertices = draw(st.lists(coords, min_size=1, max_size=5))
    return fl.TorusCurve(np.array([*vertices, np.add(vertices[0], (p, q))]))


@st.composite
def _curve_pairs(draw):
    kind = draw(st.sampled_from(["lines", "tangent", "corner", "same line", "polyline", "polyline"]))
    if kind == "tangent":
        return draw(_tangent_pairs())
    if kind == "corner":
        return draw(_corner_pairs())
    if kind == "polyline":
        pair = draw(_short_polylines()), draw(_lines())
        return pair[::-1] if draw(st.booleans()) else pair
    c1 = draw(_lines())
    if kind == "same line":
        # the same line in another lift: overlaps everywhere
        return c1, c1.translate(draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2))))
    shift = draw(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
                 | st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    return c1, draw(_lines()).translate(shift)


def _outcome(fn, c1, c2):
    try:
        return fn(c1, c2)
    except DegenerateOverlap:
        return DegenerateOverlap


# a sine threshold between the two sines of a corner crossing tells whether
# the merge kept the smaller one
_FLAG_TOLS = (1e-3, 1e-2, 0.1, 0.5)


class TestIntersectionsMatchReference:
    """The package's bucket loop against the brute-force oracle in
    reference_intersections, which tries every segment pair at every
    integer translate and so shares no grid or frame with the package.
    Short polylines bring segments spanning half a period or more."""

    @given(pair=_curve_pairs())
    @example(pair=_random_pair())
    @example(pair=(fl.TorusCurve.line(1, 0, 0.1), fl.TorusCurve.line(1, 3, n=2048)))
    @example(pair=_corner_pair(0.2, 0.5, 0.05, 1.5))
    @example(pair=_corner_pair(-0.3, 0.0, 0.05, 1.5))
    @example(pair=_corner_pair(-0.3, 0.0, 0.05, 1.5, transpose=True))
    @example(pair=(fl.TorusCurve(np.outer([0, 1], [2, 1]) + [0.13, 0.37]), fl.TorusCurve.line(1, 0, 0.21)))
    @settings(max_examples=60, deadline=None)
    def test_same_crossings_flags_and_overlaps(self, pair):
        """Crossings, flags and overlaps equal the oracle's, each point
        within 1e-9 (wrapped) of a crossing merged into its own oracle point."""
        want = _outcome(reference_intersections.merged_crossings, *pair)
        for tol in _FLAG_TOLS:
            got = _outcome(lambda c1, c2: fl.curve_intersections(c1, c2, tol), *pair)
            if want is DegenerateOverlap or got is DegenerateOverlap:
                assert got is want
                return
            assert len(got) == len(want)
            left = [(np.array(members), sine) for _x, _y, sine, members in want]
            for point, transverse in got:
                gaps = [min(_wrapped_gap(point, m) for m in members) for members, _ in left]
                members, sine = left.pop(int(np.argmin(gaps)))
                assert min(gaps) <= 1e-9
                assert transverse == (sine > tol)

    def test_corner_crossing_keeps_smaller_sine(self):
        line, corner = _corner_pair(0.2, 0.5, 0.05, 1.5)
        # the return leg crosses at x ~ 0.234 (sine ~ 0.61); the corner at
        # x = 0.5 has sines 0.05 and ~ 0.83 and must keep 0.05
        at_tol = {tol: [t for _, t in fl.curve_intersections(line, corner, tol)]
                  for tol in _FLAG_TOLS}
        assert at_tol == {1e-3: [True, True], 1e-2: [True, True],
                          0.1: [True, False], 0.5: [True, False]}


class TestRepair:
    def test_demo_repair(self):
        l1, l2 = fl.demo_curves()
        report = fl.repair_transversality(l1, l2)
        assert report["pass"]
        assert report["displacement"] == pytest.approx([0.0, -0.05])
        assert report["intersections_before"] == {"count": 1, "non_transverse": 1}
        assert report["intersections_after"] == {"count": 0, "non_transverse": 0}
        assert report["parity"] == {"target": 0, "after": 0}
        # the time-1 flow of the suspension is the whole translation
        assert report["suspension_error"] < 1e-6

    def test_mixed_curve_repair(self):
        l1 = fl.TorusCurve.line(1, 0)
        mixed = fl.TorusCurve.from_function(
            lambda s: np.stack(
                [s, 0.1 * (1 - np.cos(2 * np.pi * s)) * np.cos(2 * np.pi * s)], axis=-1),
            n=8192)
        before = fl.curve_intersections(l1, mixed)
        assert len(before) == 3
        assert sum(1 for _, t in before if not t) == 1
        report = fl.repair_transversality(l1, mixed)
        assert report["pass"]
        assert report["intersections_after"] == {"count": 2, "non_transverse": 0}

    def test_nothing_to_repair(self):
        a = fl.TorusCurve.line(1, 0)
        c = fl.TorusCurve.line(1, 0, offset=0.5)
        with pytest.raises(NothingToRepair):
            fl.repair_transversality(a, c)

    def test_suspension_field_shape(self):
        field = fl.SuspensionField(np.array([0.0, -0.05]))
        values = [field((0.0, 0.1, 0.2)), field((0.5, 0.1, 0.2))]
        assert [len(v) for v in values] == [3, 3]
        assert [v[0] for v in values] == [1.0, 1.0]
        assert values[0][2] == 0.0  # ramp flat at t = 0
        assert values[1][2] < 0.0


class TestCollar:
    def test_default_profiles_pass(self):
        report = fl.collar_reference_field()
        assert report["pass"]
        assert report["min_norm"] >= 0.5
        assert np.allclose(report["boundary_field"], [1.0, 0.0, 0.0], atol=1e-12)

    def test_vanishing_profiles_detected(self):
        f = lambda r: np.clip((np.asarray(r) - 0.6) / 0.4, 0.0, 1.0)
        g = lambda r: np.maximum(0.0, 1.0 - 2.5 * np.asarray(r))
        with pytest.raises(VanishingField):
            fl.collar_reference_field(f, g)

    def test_non_monotone_profile_rejected(self):
        f = lambda r: np.asarray(r) + 0.3 * np.sin(2 * np.pi * np.asarray(r))
        with pytest.raises(ValueError):
            fl.collar_reference_field(f_profile=f)

    def test_bad_endpoints_rejected(self):
        with pytest.raises(ValueError):
            fl.collar_reference_field(f_profile=lambda r: 0.5 * np.asarray(r))

    def test_verify_collar_report(self):
        report = fl.verify_collar()
        assert report["model"] == "collar" and report["pass"]


class TestRoundHandleReport:
    def test_verify_round_handle(self):
        report = fl.verify_round_handle()
        assert report["pass"]
        assert report["orbits"][0]["closure_error"] < 1e-9
        assert report["decay_error"] < 1e-6
        assert len(report["orbits"]) == 1

    def test_contraction_bound(self):
        traj = fl.rk4_integrate(fl.RoundHandleField(), np.array([0.0, 0.5]), 1e-3, 10.0)
        assert abs(traj.end[1]) < 1e-4 * 0.5


def _blows_up_at(k, dt):
    """A 1-D field of speed 1 that turns infinite past x = (k + 0.5) * dt,
    so RK4 started at 0 first produces a non-finite increment at step k."""
    class BlowsUp:
        dim = 1
        circle_mask = (False,)

        def __call__(self, points):
            points = np.asarray(points, dtype=float)
            return np.where(points >= (k + 0.5) * dt, np.inf, 1.0)

    return BlowsUp()


def _non_finite_message(integrate, field, x0, dt, T):
    with pytest.raises(NonFinite) as info:
        integrate(field, x0, dt, T)
    return str(info.value)


class TestNumericsMatchReference:
    """The float RK4, the collar's r-axis check and the grid boundary check
    give the floats of the numpy references in reference_numerics."""

    @staticmethod
    def assert_same_trajectory(field, oracle, x0, dt, T):
        got = fl.rk4_integrate(field, x0, dt, T)
        want = reference_numerics.rk4_integrate(oracle, x0, dt, T)
        assert np.array_equal(got.points, want.points)
        assert np.array_equal(got.times, want.times)

    def test_round_handle_point_and_batch(self):
        field, oracle = fl.RoundHandleField(), reference_numerics.RoundHandleField()
        self.assert_same_trajectory(field, oracle, np.array([0.7, 0.5]), 1e-3, 10.0)
        starts = np.stack([np.linspace(-0.3, 2.9, 9), np.linspace(-0.5, 0.5, 9)], axis=-1)
        self.assert_same_trajectory(field, oracle, starts, 1e-2, 3.0)
        self.assert_same_trajectory(fl.RoundHandleField("repelling"),
                                    reference_numerics.RoundHandleField("repelling"), starts, 1e-2, 3.0)

    @pytest.mark.parametrize("lam", [2, -2, 3, 5, 20, 21, -21])
    def test_torus_row_signed_batch(self, lam):
        # the oracle runs the detection's six starts as one batch with a
        # per-row sign; the package runs five forward and one backward
        starts = _detection_starts()
        batch = reference_numerics.rk4_integrate(
            reference_numerics.RowSigned(reference_numerics.TorusChartField(lam), (1.0, 1.0, 1.0, -1.0, 1.0, 1.0)),
            starts, 1e-3, 1.0)
        field = fl.TorusChartField(lam)
        ahead = fl.rk4_integrate(field, np.delete(starts, 3, axis=0), 1e-3, 1.0)
        behind = fl.rk4_integrate(fl._Backward(field), starts[3], 1e-3, 1.0)
        assert np.array_equal(ahead.points, np.delete(batch.points, 3, axis=1))
        assert np.array_equal(behind.points, batch.points[:, 3])
        orbits = [traj.points for traj, _signs in fl.detect_torus_orbits(field)]
        assert np.array_equal(orbits[0], batch.points[:, 0]) and np.array_equal(orbits[1], batch.points[:, 3])

    def test_suspension_field(self):
        # every 8th of the 513 starts: the float path steps each start on its
        # own, at about 10 us a step
        field, starts = _demo_suspension()
        self.assert_same_trajectory(field, reference_numerics.SuspensionField(field), starts[::8], 1e-3, 1.0)

    @pytest.mark.parametrize("profiles", [
        (None, None),
        (lambda r: np.asarray(r) ** 2, lambda r: (1.0 - np.asarray(r)) ** 3),
        (lambda r: np.sin(0.5 * np.pi * np.asarray(r)), lambda r: np.cos(0.5 * np.pi * np.asarray(r))),
    ], ids=["default", "power", "trig"])
    def test_collar_min_norm(self, profiles):
        f, g = profiles
        report = fl.collar_reference_field(f, g)
        f = f or (lambda r: fl.smoothstep(r))
        g = g or (lambda r: 1.0 - fl.smoothstep(r))
        assert report["min_norm"] == reference_numerics.collar_min_norm(f, g)

    def test_collar_vanishing_message(self):
        f = lambda r: np.clip((np.asarray(r) - 0.6) / 0.4, 0.0, 1.0)
        g = lambda r: np.maximum(0.0, 1.0 - 2.5 * np.asarray(r))
        with pytest.raises(VanishingField) as got:
            fl.collar_reference_field(f, g)
        with pytest.raises(VanishingField) as want:
            reference_numerics.collar_min_norm(f, g)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("lam", [s * m for m in range(1, 30) for s in (1, -1)])
    def test_boundary_max_error(self, lam):
        got = fl.boundary_max_error(fl.TorusChartField(lam))
        assert got == reference_numerics.boundary_max_error(reference_numerics.TorusChartField(lam))

    @pytest.mark.parametrize("k", [0, 1, 7, 98])
    def test_non_finite_names_the_same_step(self, k):
        field = _blows_up_at(k, 0.01)
        got = _non_finite_message(fl.rk4_integrate, field, np.array([0.0]), 0.01, 1.0)
        want = _non_finite_message(reference_numerics.rk4_integrate, field, np.array([0.0]), 0.01, 1.0)
        assert got == want and got.endswith(f"step {k}")

    @pytest.mark.parametrize("field,oracle,x0", [
        (fl.RoundHandleField(), reference_numerics.RoundHandleField(), np.array([0.0, np.nan])),
        (fl.TorusChartField(3), reference_numerics.TorusChartField(3), np.array([np.inf, 0.0, 0.0])),
        (fl.TorusChartField(2), reference_numerics.TorusChartField(2), np.array([[0.0, 0.0, 0.0], [0.0, np.nan, 0.0]])),
    ], ids=["round-handle", "torus", "batch"])
    def test_non_finite_start_names_step_0(self, field, oracle, x0):
        got = _non_finite_message(fl.rk4_integrate, field, x0, 1e-3, 1.0)
        with np.errstate(invalid="ignore"):
            want = _non_finite_message(reference_numerics.rk4_integrate, oracle, x0, 1e-3, 1.0)
        assert got == want and got.endswith("step 0")

    def test_non_finite_coordinate_the_field_ignores_is_caught(self):
        # the round handle's field never reads t, so a per-step check of the
        # increment passes a nan t along; the final-state check does not
        with pytest.raises(NonFinite, match="step 0$"):
            fl.rk4_integrate(fl.RoundHandleField(), np.array([np.nan, 0.5]), 1e-3, 1.0)

    @pytest.mark.parametrize("ops,x0,T", [
        ((lambda x: 1.0 / math.sqrt(1.0 - x), lambda x: 1.0 / np.sqrt(1.0 - x)), 0.0, 1.0),
        ((lambda x: 1.0 / math.floor(2.0 - x), lambda x: 1.0 / np.floor(2.0 - x)), 0.0, 2.0),
        ((math.exp, np.exp), 0.0, 2.0),
    ], ids=["ValueError", "ZeroDivisionError", "OverflowError"])
    def test_field_exception_names_the_oracle_step(self, ops, x0, T):
        # math raises past its domain where numpy returns nan or inf: the rest
        # of the path is non-finite, from the step where numpy's value was
        float_op, array_op = ops
        got = _non_finite_message(fl.rk4_integrate, _Line(float_op), np.array([x0]), 0.01, T)
        with np.errstate(all="ignore"):
            want = _non_finite_message(reference_numerics.rk4_integrate, _Line(array_op), np.array([x0]), 0.01, T)
        assert got == want and not got.endswith("step 0")


class _Line:
    """dx/dt = op(x) on a line, for a float op on a one-point list or an
    array op on a (1,) array."""

    dim = 1
    circle_mask = (False,)

    def __init__(self, op):
        self.op = op

    def __call__(self, point):
        return (self.op(point[0]),) if isinstance(point, list) else self.op(np.asarray(point, dtype=float))


@st.composite
def _oracle_cases(draw):
    """A float chart field, its numpy oracle, starts and a step."""
    model = draw(st.sampled_from(["torus", "torus backward", "attracting", "repelling"]))
    if model.startswith("torus"):
        lam = draw(st.integers(1, 21)) * draw(st.sampled_from([1, -1]))
        field, oracle = fl.TorusChartField(lam), reference_numerics.TorusChartField(lam)
        if model == "torus backward":
            field, oracle = fl._Backward(field), _Negated(oracle)
        coordinate = [st.floats(-2.0, 2.0), st.floats(-1.5, 1.5), st.floats(-2.0, 2.0)]
    else:
        field, oracle = fl.RoundHandleField(model), reference_numerics.RoundHandleField(model)
        coordinate = [st.floats(-2.0, 2.0), st.floats(-1.0, 1.0)]
    starts = draw(st.lists(st.tuples(*coordinate), min_size=1, max_size=4))
    dt = draw(st.sampled_from([1e-3, 5e-4, 1e-2]))
    return field, oracle, np.array(starts), dt, draw(st.integers(1, 120)) * dt


class TestFloatPathMatchesOracle:
    """RK4 in float arithmetic, one start at a time, against the numpy batch
    of the oracle fields, bit for bit."""

    @given(case=_oracle_cases())
    @settings(max_examples=40, deadline=None)
    def test_same_floats(self, case):
        field, oracle, starts, dt, T = case
        got = fl.rk4_integrate(field, starts, dt, T)
        want = reference_numerics.rk4_integrate(oracle, starts, dt, T)
        assert np.array_equal(got.points, want.points) and np.array_equal(got.times, want.times)

    def test_torus_field_on_one_point(self):
        rng = np.random.default_rng(3)
        points = rng.uniform(-3.0, 3.0, (200, 3))
        for lam in (1, -4, 21):
            want = reference_numerics.TorusChartField(lam, g_shift=0.25)(points)
            got = np.array([fl.TorusChartField(lam, g_shift=0.25)(p) for p in points.tolist()])
            assert np.array_equal(got, want)


def _detection_starts():
    eps = 1e-4
    starts = []
    for b_star in (0.25, 0.75):
        x0 = np.array([(-b_star) % 1.0, 0.0, 0.0])
        starts += [x0, x0 + np.array([-eps, 0.0, 0.0]), x0 + np.array([0.0, eps, 0.0])]
    return np.array(starts)


def _demo_suspension():
    """The glue demo's suspension field and its (513, 3) starts (0, a, b)."""
    l1, l2 = fl.demo_curves()
    field = fl.SuspensionField(fl.repair_transversality(l1, l2)["displacement"])
    return field, np.concatenate([np.zeros((len(l1.points), 1)), l1.points % 1.0], axis=1)


def _torus_grid():
    """Another suspension, and starts on a 24 x 24 grid over three periods of the torus."""
    axis = np.linspace(-1.0, 2.0, 24)
    a, b = np.meshgrid(axis, axis, indexing="ij")
    ab = np.stack([a.ravel(), b.ravel()], axis=-1)
    return fl.SuspensionField(np.array([0.13, -0.2])), np.concatenate([np.zeros((len(ab), 1)), ab], axis=1)


class _SuspensionBlowsUp(fl.SuspensionField):
    """The suspension with an infinite a-velocity from t = limit on."""

    def __init__(self, displacement, limit):
        super().__init__(displacement)
        self.limit = limit

    def __call__(self, point):
        return super().__call__(point) if point[0] < self.limit else (1.0, math.inf, 0.0)


class TestEndStateOnly:
    """flow_suspension steps the suspension on one shared time track: the
    end state of the (513, 3) numpy oracle run and of rk4_integrate."""

    @pytest.mark.parametrize("case", [_demo_suspension, _torus_grid], ids=["suspension", "torus-batch"])
    def test_end_state_is_bit_identical(self, case):
        field, starts = case()
        ends = fl.flow_suspension(field, starts[:, 1:], 1e-3, 1.0)
        want = reference_numerics.rk4_integrate(reference_numerics.SuspensionField(field), starts, 1e-3, 1.0)
        assert np.array_equal(ends, want.end[:, 1:])
        some = fl.rk4_integrate(field, starts[::16], 1e-3, 1.0)
        assert np.array_equal(ends[::16], some.end[:, 1:])

    @pytest.mark.parametrize("k", [0, 1, 7, 98])
    def test_non_finite_names_the_same_step(self, k):
        demo, starts = _demo_suspension()
        field = _SuspensionBlowsUp(demo.displacement, (k + 0.5) * 0.01)
        with pytest.raises(NonFinite) as info:
            fl.flow_suspension(field, starts[:, 1:], 0.01, 1.0)
        got = str(info.value)
        assert got == _non_finite_message(fl.rk4_integrate, field, starts[:3], 0.01, 1.0)
        assert got.endswith(f"step {k}")

    def test_non_finite_start_names_step_0(self):
        field, starts = _demo_suspension()
        starts[7, 2] = np.nan
        with pytest.raises(NonFinite) as info:
            fl.flow_suspension(field, starts[:, 1:], 1e-3, 1.0)
        assert str(info.value) == _non_finite_message(fl.rk4_integrate, field, starts[:16], 1e-3, 1.0)
        assert str(info.value).endswith("step 0")

    def test_glue_demo_traced_peak(self):
        # the full (1001, 513, 3) suspension path alone would be 12.3 MB
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fl.verify_glue_demo()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert peak <= 2_000_000
