"""Numerical checks of the local vector-field models.

Tolerances here are frozen: boundary agreement 1e-12 (observed ~1e-15),
orbit closure 1e-6 at dt = 1e-3, transversality threshold 1e-3 on the
sine of the crossing angle.
"""

import math

import numpy as np
import pytest

from msflow.errors import (
    DegenerateOverlap,
    NonFinite,
    NothingToRepair,
    OrbitNotClosed,
    StepTooLarge,
    VanishingField,
    ZeroLambda,
)
from msflow import flowlab as fl


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
        attract = fl.round_handle_field("attracting")
        repel = fl.round_handle_field("repelling")
        p = np.array([0.0, 0.5])
        assert attract(p)[1] == -0.5 and repel(p)[1] == 0.5
        with pytest.raises(ValueError):
            fl.round_handle_field("sideways")


class TestRk4:
    def test_constant_speed_loop_closes(self):
        traj = fl.rk4_integrate(fl.round_handle_field(), np.array([0.0, 0.0]), 1e-3, 1.0)
        assert fl.wrapped_distance(traj.end, traj.start, (True, False)) < 1e-9

    def test_exponential_decay_accuracy(self):
        traj = fl.rk4_integrate(fl.round_handle_field(), np.array([0.0, 0.5]), 1e-3, 10.0)
        assert abs(traj.end[1] - 0.5 * math.exp(-10.0)) < 1e-6

    def test_fourth_order_convergence(self):
        report, _ = fl.verify_round_handle()
        assert report["order_ratio"] >= 8.0

    def test_step_validation(self):
        field = fl.round_handle_field()
        with pytest.raises(ValueError):
            fl.rk4_integrate(field, np.array([0.0, 0.0]), 2.0, 1.0)
        with pytest.raises(ValueError):
            fl.rk4_integrate(field, np.array([0.0, 0.0]), -0.1, 1.0)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            fl.rk4_integrate(fl.round_handle_field(), np.array([0.0, 0.0, 0.0]), 0.1, 1.0)

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
        field = fl.round_handle_field()
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


class TestRepair:
    def test_demo_repair(self):
        l1, l2 = fl.demo_curves()
        isotopy, report = fl.repair_transversality(l1, l2)
        assert report["pass"]
        assert report["displacement"] == pytest.approx([0.0, -0.05])
        assert report["intersections_before"] == {"count": 1, "non_transverse": 1}
        assert report["intersections_after"] == {"count": 0, "non_transverse": 0}
        assert report["parity"] == {"target": 0, "after": 0}
        assert report["suspension_error"] < 1e-6
        assert np.allclose(isotopy(0.0, np.zeros(2)), [0.0, 0.0])
        assert np.allclose(isotopy(1.0, np.zeros(2)), [0.0, -0.05])

    def test_mixed_curve_repair(self):
        l1 = fl.TorusCurve.line(1, 0)
        mixed = fl.TorusCurve.from_function(
            lambda s: np.stack(
                [s, 0.1 * (1 - np.cos(2 * np.pi * s)) * np.cos(2 * np.pi * s)], axis=-1),
            n=8192)
        before = fl.curve_intersections(l1, mixed)
        assert len(before) == 3
        assert sum(1 for _, t in before if not t) == 1
        _isotopy, report = fl.repair_transversality(l1, mixed)
        assert report["pass"]
        assert report["intersections_after"] == {"count": 2, "non_transverse": 0}

    def test_nothing_to_repair(self):
        a = fl.TorusCurve.line(1, 0)
        c = fl.TorusCurve.line(1, 0, offset=0.5)
        with pytest.raises(NothingToRepair):
            fl.repair_transversality(a, c)

    def test_suspension_field_shape(self):
        isotopy = fl.TranslationIsotopy(np.array([0.0, -0.05]))
        field = fl.SuspensionField(isotopy)
        values = field(np.array([[0.0, 0.1, 0.2], [0.5, 0.1, 0.2]]))
        assert values.shape == (2, 3)
        assert np.allclose(values[:, 0], 1.0)
        assert values[0][2] == 0.0  # ramp flat at t = 0


class TestCollar:
    def test_default_profiles_pass(self):
        field, report = fl.collar_reference_field()
        assert report["pass"]
        assert report["min_norm"] >= 0.5
        assert np.allclose(report["boundary_field"], [1.0, 0.0, 0.0], atol=1e-12)
        assert np.allclose(field(np.zeros(3)), [1.0, 0.0, 0.0], atol=1e-12)

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
        report, orbits = fl.verify_round_handle()
        assert report["pass"]
        assert report["orbits"][0]["closure_error"] < 1e-9
        assert report["decay_error"] < 1e-6
        assert len(orbits) == 1

    def test_contraction_bound(self):
        traj = fl.rk4_integrate(fl.round_handle_field(), np.array([0.0, 0.5]), 1e-3, 10.0)
        assert abs(traj.end[1]) < 1e-4 * 0.5
