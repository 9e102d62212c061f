"""Numerical checks of the explicit local vector-field models.

Charts use unit-circumference circles throughout.  The torus-destruction
model lives on S^1 x [-1, 1] x S^1 with coordinates (t, x, z); its two
periodic orbits sit on the invariant torus {x = 0} along the circles
b = lambda*z - t = 1/4 and 3/4.  The b = 3/4 circle repels within the
torus with one-period factor exp(2*pi*(lambda^2 + 1)), far too stiff to
close up under forward float integration, so it is traced backward in
time (where it attracts); Floquet signs are always measured forward.

The integrated chart fields evaluate one point at a time in float
arithmetic, and RK4 steps each start on its own: at a few points per run,
numpy's per-call overhead would outweigh its arithmetic.  The operations
are those of the array formulas in the tests' numpy oracles, in the same
order, so the floats are the same.  The glue-demo suspension reads only
time, so each of its RK4 steps is taken once, by the same stepper, on one
time track, and its increment is added to all starts as arrays.

Curves on the flat unit torus are stored as lifted polylines whose
endpoint difference is the integer homology class.  Each segment is
placed in the period of its wrapped midpoint, and intersection tests
translate candidate segments into a common fundamental domain, so they
are exact up to float arithmetic, not up to wrapping artifacts.  Segments
reaching half a period are first cut shorter, so two segments meet at one
translate at most.  Segments are bucketed by midpoint in a dict, in cells
at least as wide as the longest segment extent, so crossing segments
always lie in neighbouring cells; the few candidate pairs are evaluated
one at a time in float arithmetic.
"""

from __future__ import annotations

import bisect
import math
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DegenerateOverlap,
    NonFinite,
    NothingToRepair,
    OrbitNotClosed,
    RepairFailed,
    StepTooLarge,
    VanishingField,
    ZeroLambda,
)

DT_DEFAULT = 1e-3
CLOSURE_TOL = 1e-6
# RK4 is stable for y' = -k*y exactly when k*dt <= 2.7853 (Hairer-Wanner, ODEs II)
RK4_STABILITY = 2.785
CROSS_TOL = 1e-3
BOUNDARY_TOL = 1e-12


def smoothstep(u: "np.ndarray | float") -> "np.ndarray | float":
    """Cubic ramp 3u^2 - 2u^3 clamped to [0, 1]."""
    u = np.clip(u, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def default_bump(x: float) -> float:
    """sin^2(pi*x/2): vanishes at 0, equals 1 at x = +-1, smooth and even."""
    s = math.sin(0.5 * math.pi * x)
    return s * s


# ---------------------------------------------------------------------------
# Chart fields
#
# An integrated chart field has a dimension `dim`, a `circle_mask` naming its
# circle coordinates, and maps one dim-long point to a tuple of floats.

@dataclass(frozen=True, eq=False)
class TorusChartField:
    """The torus-destruction model field on (t, x, z).

    F = f*(lam, 0, 1) + (0, -x, 0) + g*(-1, 0, lam), where f interpolates
    between 1 on {x = 0} and (lam+1)/(lam^2+1) at x = +-1, and g between
    cos(2*pi*(lam*z - t)) and (lam-1)/(lam^2+1).  At x = +-1 the field is
    (1, -x, 1) exactly.  `g_shift` adds a constant to g; it exists to test
    the failure path where the invariant circles disappear.
    """

    lam: int
    g_shift: float = 0.0

    dim = 3
    circle_mask = (True, False, True)

    def __post_init__(self) -> None:
        if not isinstance(self.lam, int) or isinstance(self.lam, bool) or self.lam == 0:
            raise ZeroLambda("the torus-destruction model needs a nonzero integer coefficient")

    def __call__(self, point) -> tuple[float, float, float]:
        t, x, z = point
        lam = self.lam
        rho = default_bump(x)
        flat = 1.0 - rho
        f = flat + rho * (lam + 1) / (lam * lam + 1)
        g = flat * math.cos(2.0 * math.pi * (lam * z - t)) + rho * (lam - 1) / (lam * lam + 1)
        g = g + self.g_shift
        return f * lam - g, -x, f + g * lam


@dataclass(frozen=True, eq=False)
class RoundHandleField:
    """dt - x dx (attracting) or dt + x dx (repelling) on S^1 x [-1, 1]."""

    stability: str = "attracting"

    dim = 2
    circle_mask = (True, False)

    def __post_init__(self) -> None:
        if self.stability not in ("attracting", "repelling"):
            raise ValueError(f"unknown stability {self.stability!r}")

    def __call__(self, point) -> tuple[float, float]:
        sign = -1.0 if self.stability == "attracting" else 1.0
        return 1.0, sign * point[1]


class _Backward:
    """A chart field negated, so that integrating it runs the flow backward
    in time; negation is exact."""

    def __init__(self, field) -> None:
        self.field = field
        self.dim = field.dim
        self.circle_mask = field.circle_mask

    def __call__(self, point) -> tuple[float, ...]:
        return tuple(-v for v in self.field(point))


# ---------------------------------------------------------------------------
# Integration

@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled integral curve: times[i] = i*dt, points[i] the chart point
    (circle coordinates wrapped into [0, 1)); a batch of starts adds the
    batch's axes after the first."""

    times: np.ndarray
    points: np.ndarray

    @property
    def start(self) -> np.ndarray:
        return self.points[0]

    @property
    def end(self) -> np.ndarray:
        return self.points[-1]


def wrapped_delta(a: np.ndarray, b: np.ndarray, circle_mask) -> np.ndarray:
    """Componentwise a - b with circle coordinates reduced to [-1/2, 1/2)."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    mask = np.asarray(circle_mask)
    d[..., mask] = (d[..., mask] + 0.5) % 1.0 - 0.5
    return d


def wrapped_distance(a: np.ndarray, b: np.ndarray, circle_mask) -> float:
    return float(np.max(np.abs(wrapped_delta(a, b, circle_mask))))


def _step_count(dt: float, T: float) -> int:
    if not 0 < dt <= T < math.inf:  # also false for nan
        raise ValueError("need 0 < dt <= T, both finite")
    return max(1, int(round(T / dt)))


def _non_finite(step: int) -> NonFinite:
    return NonFinite(f"field evaluation produced a non-finite value near step {step}")


# where numpy returns nan or inf, float arithmetic and `math` raise one of these
_FLOAT_ERRORS = (ValueError, ZeroDivisionError, OverflowError)


def _rk4_step(field, y: list, dt: float) -> list:
    """One classical RK4 step of `field` from the float list y, unwrapped."""
    half, sixth = 0.5 * dt, dt / 6.0
    k1 = field(y)
    k2 = field([a + half * b for a, b in zip(y, k1)])
    k3 = field([a + half * b for a, b in zip(y, k2)])
    k4 = field([a + dt * b for a, b in zip(y, k3)])
    return [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


def rk4_integrate(field, x0, dt: float, T: float) -> Trajectory:
    """Classical Runge-Kutta 4 with circle coordinates wrapped each step.

    dt and T must be finite with 0 < dt <= T.  The step count is
    round(T / dt), so T is honored to the nearest step.  Field evaluations
    are not wrapped mid-step; all chart fields here are periodic in their
    circle coordinates, which keeps stages smooth across the seam.

    x0 is one point or an array of them (last axis of length field.dim).
    Each start is stepped on its own in float arithmetic, and every state
    is written into the preallocated (n+1,) + x0.shape array of points.
    A field that raises ValueError, ZeroDivisionError or OverflowError
    (math.cos(inf), say) where numpy would return nan or inf leaves the
    rest of its start's path nan.  A non-finite coordinate stays
    non-finite under x + step and the wrap, so finiteness is checked once,
    on the final states; only then is the first non-finite state searched
    for, and NonFinite names the step that led to it (step 0 for a
    non-finite start).
    """
    n = _step_count(dt, T)
    x = np.asarray(x0, dtype=float)
    dim = field.dim
    if x.shape[-1] != dim:
        raise ValueError(f"points of dimension {x.shape[-1]} in a {dim}-dimensional chart")
    circles = [j for j, circle in enumerate(field.circle_mask) if circle]
    points = np.empty((n + 1,) + x.shape, dtype=float)
    paths = points.reshape(n + 1, -1, dim)  # a view: one column per start
    for column, y in enumerate(x.reshape(-1, dim).tolist()):
        path = paths[:, column]
        for j in circles:
            y[j] %= 1.0
        path[0] = y
        try:
            for i in range(1, n + 1):
                y = _rk4_step(field, y, dt)
                for j in circles:
                    y[j] %= 1.0
                path[i] = y
        except _FLOAT_ERRORS:
            path[i:] = math.nan
    if not np.isfinite(points[-1]).all():
        first = bisect.bisect_left(range(n + 1), True, key=lambda k: not np.isfinite(points[k]).all())
        raise _non_finite(max(first - 1, 0))
    return Trajectory(times=np.arange(n + 1) * dt, points=points)


# ---------------------------------------------------------------------------
# Orbit detection for the torus-destruction model

_ORBIT_B = (0.25, 0.75)


def detect_torus_orbits(field: TorusChartField, dt: float = DT_DEFAULT,
                        tol: float = CLOSURE_TOL):
    """Locate the two periodic orbits of the model and their Floquet signs.

    Returns [(trajectory, (sign_within_torus, sign_transverse)), ...] for the
    circles b = 1/4 and b = 3/4, in that order.  Signs are -1 (contracting)
    or +1 (expanding), measured by forward integration of perturbed starts.
    The b = 3/4 trajectory itself is integrated backward; see the module
    docstring.  Each orbit is traced in the direction where it attracts, at
    the in-torus rate 2*pi*(lam^2 + 1); a step outside RK4's stability
    interval for that rate raises StepTooLarge before any integration, since
    the numerics could not tell a closed orbit from a missed one.
    """
    largest_lam = math.isqrt(max(0, math.floor(RK4_STABILITY / (2.0 * math.pi * dt) - 1)))
    try:
        rate = 2.0 * math.pi * (field.lam ** 2 + 1)
    except OverflowError:  # lam^2 + 1 beyond the float range: past every step's bound
        import decimal  # only here; Decimal counts digits without str()'s size limit

        digits = decimal.Decimal(abs(field.lam)).adjusted() + 1
        raise StepTooLarge(
            f"lambda with {digits} digits is too large for float arithmetic, so its in-torus "
            f"rate has no stable RK4 step (at dt={dt:g}, |lambda| <= {largest_lam} resolves)") from None
    if rate * dt > RK4_STABILITY:
        raise StepTooLarge(
            f"lambda={field.lam} is too stiff for RK4 step dt={dt:g}: its in-torus rate "
            f"{rate:.4g} needs a step of at most {RK4_STABILITY / rate:.3e} "
            f"(at dt={dt:g}, |lambda| <= {largest_lam} resolves)")
    eps = 1e-4
    orbit_starts = np.array([[(-b_star) % 1.0, 0.0, 0.0] for b_star in _ORBIT_B])
    # b = lam*z - t, so shifting t by -eps shifts b by +eps
    perturbed_b = orbit_starts + np.array([-eps, 0.0, 0.0])
    perturbed_x = orbit_starts + np.array([0.0, eps, 0.0])
    # one forward run: the b = 1/4 orbit, then the b- and x-perturbations of
    # both orbits; the b = 3/4 orbit runs backward on its own
    ahead = rk4_integrate(field, np.concatenate([orbit_starts[:1], perturbed_b, perturbed_x]), dt, 1.0)
    behind = rk4_integrate(_Backward(field), orbit_starts[1], dt, 1.0)
    results = []
    for k, (b_star, orbit) in enumerate(zip(_ORBIT_B, (ahead.points[:, 0], behind.points))):
        err = wrapped_distance(orbit[-1], orbit[0], field.circle_mask)
        if err > tol:
            raise OrbitNotClosed(
                f"orbit at b={b_star} failed to close: error {err:.3e} exceeds {tol:.1e}")
        end_b, end_x = ahead.end[1 + k], ahead.end[3 + k]
        b_end = (field.lam * end_b[2] - end_b[0]) % 1.0
        after_b = abs((b_end - b_star + 0.5) % 1.0 - 0.5)
        sign_b = 1 if after_b > eps else -1
        sign_x = 1 if abs(end_x[1]) > eps else -1
        results.append((Trajectory(ahead.times, orbit), (sign_b, sign_x)))
    return results


# ---------------------------------------------------------------------------
# Curves on the flat torus

@dataclass(frozen=True, eq=False)
class TorusCurve:
    """Closed curve on the unit torus, stored as a lifted polyline.

    `points` has shape (N+1, 2); the difference points[-1] - points[0] must
    be (within 1e-9 of) an integer vector, the curve's homology class.
    """

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError("a curve needs an (N+1, 2) array of lifted points")
        if not np.isfinite(pts).all():
            raise ValueError("curve points must be finite")
        gap = pts[-1] - pts[0]
        if np.max(np.abs(gap - np.round(gap))) > 1e-9:
            raise OrbitNotClosed(f"curve endpoints differ by non-integer vector {gap}")
        object.__setattr__(self, "points", pts)

    @property
    def homology_class(self) -> tuple[int, int]:
        gap = self.points[-1] - self.points[0]
        return int(round(gap[0])), int(round(gap[1]))

    @staticmethod
    def line(p: int, q: int, offset: float = 0.0, n: int = 512) -> "TorusCurve":
        """The (p, q)-line, displaced by `offset` along its unit normal."""
        if p == 0 and q == 0:
            raise ValueError("a line needs a nonzero direction class")
        if n < 512:
            raise ValueError("sample polylines with at least 512 points")
        s = np.linspace(0.0, 1.0, n + 1)
        norm = math.hypot(p, q)
        normal = np.array([-q / norm, p / norm])
        return TorusCurve(np.outer(s, [p, q]) + offset * normal)

    @staticmethod
    def from_function(fn: Callable[[np.ndarray], np.ndarray], n: int = 4096) -> "TorusCurve":
        """Sample fn over s in [0, 1]; fn returns lifted points of shape (len(s), 2)."""
        if n < 512:
            raise ValueError("sample polylines with at least 512 points")
        s = np.linspace(0.0, 1.0, n + 1)
        return TorusCurve(np.asarray(fn(s), dtype=float))

    def translate(self, vec) -> "TorusCurve":
        return TorusCurve(self.points + np.asarray(vec, dtype=float))


def _short_segments(points: np.ndarray):
    """The points and segment deltas of a lifted polyline, and its largest
    extent (coordinate of a delta).  When that reaches 1/2, every segment
    of extent m >= 1/2 is first cut into floor(2m) + 1 equal pieces, each
    of extent below 1/2; otherwise the points are used as they are."""
    deltas = points[1:] - points[:-1]
    e = float(np.abs(deltas).max())
    if e < 0.5:
        return points, deltas, e
    pieces = np.floor(2.0 * np.abs(deltas).max(axis=1)).astype(np.int64) + 1
    seg = np.repeat(np.arange(len(deltas)), pieces)
    step = np.arange(len(seg)) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    points = np.vstack([points[seg] + (step / pieces[seg])[:, None] * deltas[seg], points[-1:]])
    deltas = points[1:] - points[:-1]
    return points, deltas, float(np.abs(deltas).max())


def _segments(points: np.ndarray, deltas: np.ndarray, cells: int):
    """Columns of segment starts, deltas, wrapped midpoints and lengths, as
    array('d') (start x, start y, delta x, delta y, mid x, mid y, length),
    and the grid cell (x, y) of each midpoint.  Each start is its midpoint
    less half its delta, so a segment straddling a seam keeps its start and
    midpoint in one period."""
    mids = (points[:-1] + 0.5 * deltas) % 1.0
    starts = mids - 0.5 * deltas
    lengths = np.sqrt(deltas[:, 0] * deltas[:, 0] + deltas[:, 1] * deltas[:, 1])
    cols = [array("d", col.tobytes()) for col in (*starts.T, *deltas.T, *mids.T, lengths)]
    return cols, np.floor(mids * cells).astype(np.int64)


_NEIGHBOURS = tuple((ox, oy) for ox in (-1, 0, 1) for oy in (-1, 0, 1))


def _cell_ids(cell: np.ndarray, cells: int) -> list:
    cell = cell % cells
    return (cell[..., 0] * cells + cell[..., 1]).tolist()


def curve_intersections(c1: TorusCurve, c2: TorusCurve, tol: float = CROSS_TOL):
    """All intersection points of two torus curves with transversality flags.

    Each reported point is in [0, 1)^2; the flag is True iff the sine of the
    crossing angle exceeds `tol`.  A pair of collinear overlapping segments
    raises DegenerateOverlap since no crossing angle exists there.

    Segments whose extent (largest delta coordinate) reaches 1/2 are first
    cut into equal pieces of extent below 1/2, so crossing segments meet at
    exactly one translate, the integer vector nearest their midpoints'
    difference.  Segments of c2 are bucketed by midpoint in a dict, on a
    grid of floor(1/e) cells per circle, e the largest extent: crossing
    segments have midpoints within e of each other in each coordinate, so
    they lie in neighbouring cells.  Each segment of c1 is tested against
    the segments in its (deduplicated) neighbour cells, in float
    arithmetic, with c2's segment moved by that translate.  A crossing at a
    shared vertex is found by both segments; such duplicates merge into one
    point that keeps the smaller sine.
    """
    p1, d1, e1 = _short_segments(c1.points)
    p2, d2, e2 = _short_segments(c2.points)
    # at most 2^31 cells per circle, so a cell's id x * cells + y fits in int64
    cells = math.floor(1.0 / max(e1, e2, 2.0 ** -31))
    seg1, cell1 = _segments(p1, d1, cells)
    (s2x, s2y, d2x, d2y, m2x, m2y, n2), cell2 = _segments(p2, d2, cells)
    buckets: dict[int, list[int]] = {}
    for j, cell in enumerate(_cell_ids(cell2, cells)):
        buckets.setdefault(cell, []).append(j)

    # a length, so that cutting a segment changes no test: a crossing may lie
    # this far past a segment's end, and parallel segments this close share a line
    eps = 1e-9
    found: list[tuple[float, float, float]] = []  # (x, y, |unit cross|)
    near = _cell_ids(cell1[:, None, :] + _NEIGHBOURS, cells)  # 9 cell ids per c1 segment
    for (px, py, rx, ry, mx, my, n1), ids in zip(zip(*seg1), near):
        for j in (j for cell in set(ids) for j in buckets.get(cell, ())):
            wx, wy, m = d2x[j], d2y[j], n2[j]
            scale = n1 * m
            if scale == 0.0:
                continue
            qx = s2x[j] + round(mx - m2x[j]) - px
            qy = s2y[j] + round(my - m2y[j]) - py
            rw = rx * wy - ry * wx
            if abs(rw) <= 1e-12 * scale:
                # parallel; sharing more than eps of length on one line is degenerate
                if abs(qx * ry - qy * rx) <= eps * n1:
                    rr = rx * rx + ry * ry
                    t0 = (qx * rx + qy * ry) / rr
                    t1 = t0 + (wx * rx + wy * ry) / rr
                    if (min(max(t0, t1), 1.0) - max(min(t0, t1), 0.0)) * n1 > eps:
                        raise DegenerateOverlap("curves share a positive-length segment")
                continue
            s = (qx * wy - qy * wx) / rw
            u = (qx * ry - qy * rx) / rw
            if -eps <= s * n1 <= n1 + eps and -eps <= u * m <= m + eps:
                found.append(((px + s * rx) % 1.0, (py + s * ry) % 1.0, abs(rw) / scale))

    merged: list[list[float]] = []
    for x, y, cr in sorted(found):
        # the kept crossings are in x order, so only those less than 2e-7
        # below x, or near 0 when x is near 1, can lie within 1e-7 of (x, y)
        head = bisect.bisect_right(merged, x - 1.0 + 2e-7, key=lambda entry: entry[0])
        tail = bisect.bisect_left(merged, x - 2e-7, key=lambda entry: entry[0])
        for entry in merged[:head] + merged[tail:]:
            dx = (x - entry[0] + 0.5) % 1.0 - 0.5
            dy = (y - entry[1] + 0.5) % 1.0 - 0.5
            if abs(dx) <= 1e-7 and abs(dy) <= 1e-7:
                entry[2] = min(entry[2], cr)
                break
        else:
            merged.append([x, y, cr])
    return [(np.array([x, y]), cr > tol) for x, y, cr in merged]


# ---------------------------------------------------------------------------
# Transversality repair (curve-level gluing adjustment)

class SuspensionField:
    """The suspension (1, ramp'(t) * displacement) of the translation
    isotopy p -> p + ramp(t) * displacement, on [0, 1] x T^2 with
    coordinates (t, a, b).  ramp(t) = smoothstep((t - eps) / (1 - 2*eps)),
    so the isotopy is the identity for t < eps and the whole translation
    for t > 1 - eps.  The field reads only t."""

    eps = 0.1
    dim = 3
    circle_mask = (False, True, True)

    def __init__(self, displacement) -> None:
        self.displacement = tuple(float(v) for v in displacement)

    def __call__(self, point) -> tuple[float, float, float]:
        # derivative of the clamped cubic ramp, zero outside (eps, 1-eps)
        u = (point[0] - self.eps) / (1.0 - 2.0 * self.eps)
        du = (6.0 * u * (1.0 - u) if 0.0 < u < 1.0 else 0.0) / (1.0 - 2.0 * self.eps)
        return 1.0, du * self.displacement[0], du * self.displacement[1]


def flow_suspension(field: SuspensionField, ab, dt: float, T: float) -> np.ndarray:
    """Where RK4 on `field` takes (0, a, b) by time T, for every row (a, b)
    of `ab`: the wrapped (a, b) columns of rk4_integrate's end state.

    The field reads only t, and every start has t = 0, so RK4's stages are
    the same for every start.  Each step is taken once, by rk4_integrate's
    stepper from (t, 0, 0), and its (a, b) increment is added to all starts
    with one array add and the wrap.  NonFinite names the same step as
    rk4_integrate would.
    """
    n = _step_count(dt, T)
    ab = np.remainder(np.asarray(ab, dtype=float), 1.0)
    if not np.isfinite(ab).all():
        raise _non_finite(0)
    t = 0.0
    for i in range(n):
        # da is 0.0 + the a-increment: the two differ only in a zero's sign,
        # which adds the same to ab, since the remainder leaves no -0.0 there
        t, da, db = _rk4_step(field, [t, 0.0, 0.0], dt)
        if not (math.isfinite(da) and math.isfinite(db)):
            raise _non_finite(i)
        ab += (da, db)
        np.remainder(ab, 1.0, out=ab)
    return ab


_REPAIR_CANDIDATES = (-0.05, 0.05, -0.1, 0.1, -0.15, 0.15, -0.2, 0.2)


def repair_transversality(l1: TorusCurve, l2: TorusCurve, tol: float = CROSS_TOL) -> dict:
    """Isotope `l1` until every intersection with `l2` is transverse.

    Tries normal displacements of growing size; a candidate is accepted when
    all intersections are transverse and their count has the parity of the
    homological intersection number |p1*q2 - q1*p2|.  Returns a JSON-ready
    report.  The suspension field of the chosen translation is integrated
    as a cross-check: its time-1 flow must move `l1` by the displacement.
    """
    before = curve_intersections(l1, l2, tol)
    bad = sum(1 for _, transverse in before if not transverse)
    if bad == 0:
        raise NothingToRepair("every intersection is already transverse")

    p1, q1 = l1.homology_class
    p2, q2 = l2.homology_class
    parity = abs(p1 * q2 - q1 * p2) % 2
    norm = math.hypot(p1, q1)
    normal = np.array([-q1 / norm, p1 / norm])

    chosen = None
    after = None
    for d in _REPAIR_CANDIDATES:
        try:
            candidate = curve_intersections(l1.translate(d * normal), l2, tol)
        except DegenerateOverlap:
            continue
        if all(t for _, t in candidate) and len(candidate) % 2 == parity:
            chosen, after = d, candidate
            break
    if chosen is None:
        raise RepairFailed("no candidate displacement made all intersections transverse")

    field = SuspensionField(chosen * normal)
    starts = l1.points % 1.0
    flowed = flow_suspension(field, starts, DT_DEFAULT, 1.0)
    suspension_error = wrapped_distance(flowed, starts + field.displacement, (True, True))

    return {
        "model": "glue-demo",
        "displacement": list(field.displacement),
        "intersections_before": {"count": len(before), "non_transverse": bad},
        "intersections_after": {"count": len(after), "non_transverse": 0},
        "parity": {"target": parity, "after": len(after) % 2},
        "suspension_error": suspension_error,
        "pass": bool(suspension_error < CLOSURE_TOL),
    }


# ---------------------------------------------------------------------------
# Collar reference field

def collar_reference_field(f_profile: Callable | None = None,
                           g_profile: Callable | None = None) -> dict:
    """Check the collar interpolation field (g(r), f(r), 0) on [0, 1] x T^2
    with coordinates (r, fiber, base).

    f must ramp up from 0 to 1 and g down from 1 to 0 (monotonically); the
    field must never vanish on a 64^3 sample grid of the collar, and it
    equals (1, 0, 0) at the boundary r = 0.  Returns a JSON-ready report.

    The field reads only r, so its sup-norm max(|g|, |f|) is evaluated once
    per r sample of the grid's axis linspace(0, 1, 64); those samples take
    every value the field has on the whole grid.
    """
    f = f_profile if f_profile is not None else (lambda r: smoothstep(r))
    g = g_profile if g_profile is not None else (lambda r: 1.0 - smoothstep(r))
    fine = np.linspace(0.0, 1.0, 1025)
    fv = np.asarray(f(fine), dtype=float)
    gv = np.asarray(g(fine), dtype=float)
    if abs(fv[0]) > 1e-12 or abs(fv[-1] - 1.0) > 1e-12:
        raise ValueError("f must satisfy f(0) = 0 and f(1) = 1")
    if abs(gv[0] - 1.0) > 1e-12 or abs(gv[-1]) > 1e-12:
        raise ValueError("g must satisfy g(0) = 1 and g(1) = 0")
    if np.any(np.diff(fv) < -1e-12):
        raise ValueError("f must be non-decreasing")
    if np.any(np.diff(gv) > 1e-12):
        raise ValueError("g must be non-increasing")

    axis = np.linspace(0.0, 1.0, 64)
    ga, fa = g(axis), f(axis)
    norms = np.maximum(np.abs(ga), np.abs(fa))
    min_norm = float(norms.min())
    if min_norm <= 0.0:
        raise VanishingField(f"field vanishes near r = {axis[int(norms.argmin())]:.4f}")
    return {
        "model": "collar",
        "min_norm": min_norm,
        "boundary_field": [float(ga[0]), float(fa[0]), 0.0],
        # the endpoint checks above already hold the boundary field to (1, 0, 0);
        # a nan min_norm, from a nan in a profile, fails here
        "pass": bool(min_norm > 0.0),
    }


# ---------------------------------------------------------------------------
# Verification reports

def boundary_max_error(field: TorusChartField) -> float:
    """Largest deviation of the field from (1, -x, 1) over 100 boundary points.

    The points lie on an evenly spaced 10 x 10 (t, z) grid with x alternating
    between +1 and -1.  The field's bump, default_bump, is exactly 1.0 at
    x = +-1, so the field is constant on each boundary torus and any fixed
    points give the same maximum.
    """
    k = np.arange(100)
    t, z = (k // 10) / 10, (k % 10) / 10
    x = np.where(k % 2 == 0, 1.0, -1.0)
    values = np.array([field(point) for point in np.stack([t, x, z], axis=-1).tolist()])
    target = np.stack([np.ones(100), -x, np.ones(100)], axis=-1)
    return float(np.max(np.abs(values - target)))


def verify_torus_model(lam: int, tol: float = CLOSURE_TOL):
    """Full check of the torus-destruction model at one coefficient.

    Returns (report, orbits); `orbits` are the detected trajectories for an
    optional CSV dump.  Raises OrbitNotClosed if either orbit fails to close.
    """
    field = TorusChartField(lam)
    orbits = detect_torus_orbits(field, tol=tol)
    expected_signs = ((-1, -1), (1, -1))
    entries = []
    signs_ok = True
    for (traj, signs), b_star, expected in zip(orbits, _ORBIT_B, expected_signs):
        err = wrapped_distance(traj.end, traj.start, field.circle_mask)
        entries.append({"b": b_star, "closure_error": err, "floquet": list(signs)})
        signs_ok = signs_ok and signs == expected
    bmax = boundary_max_error(field)
    report = {
        "model": "torus-destruction",
        "lambda": lam,
        "orbits": entries,
        "boundary_max_error": bmax,
        "pass": bool(signs_ok and bmax < BOUNDARY_TOL),
    }
    return report, orbits


def verify_round_handle() -> dict:
    """Check the round-handle model: closed orbit, decay rate, and RK4 order.

    The order ratio compares endpoint errors against the exact solution
    x(1) = 0.5*exp(-1) from x0 = 0.5 at step sizes 0.05 and 0.025; fourth
    order predicts a ratio near 16, and anything >= 8 passes.
    """
    field = RoundHandleField("attracting")
    orbit = rk4_integrate(field, np.array([0.0, 0.0]), DT_DEFAULT, 1.0)
    closure = wrapped_distance(orbit.end, orbit.start, field.circle_mask)

    decay = rk4_integrate(field, np.array([0.0, 0.5]), DT_DEFAULT, 10.0)
    decay_err = abs(decay.end[1] - 0.5 * math.exp(-10.0))

    exact = 0.5 * math.exp(-1.0)
    errs = []
    for step in (0.05, 0.025):
        traj = rk4_integrate(field, np.array([0.0, 0.5]), step, 1.0)
        errs.append(abs(traj.end[1] - exact))
    ratio = errs[0] / errs[1] if errs[1] > 0 else math.inf
    report = {
        "model": "round-handle",
        "orbits": [{"closure_error": closure}],
        "decay_error": decay_err,
        "order_ratio": ratio,
        "pass": bool(closure < 1e-9 and decay_err < 1e-6 and ratio >= 8.0),
    }
    return report


def demo_curves() -> tuple[TorusCurve, TorusCurve]:
    """The tangency demonstration pair: a horizontal line and a curve
    touching it at a single point."""
    l1 = TorusCurve.line(1, 0, offset=0.0)
    l2 = TorusCurve.from_function(
        lambda s: np.stack([s, 0.1 * (1.0 - np.cos(2.0 * np.pi * s))], axis=-1), n=4096)
    return l1, l2


def verify_glue_demo() -> dict:
    """Run the transversality repair on the demonstration pair."""
    return repair_transversality(*demo_curves())


def verify_collar() -> dict:
    """Check the collar field with the default smoothstep profiles."""
    return collar_reference_field()
