"""Straightforward numpy references for the numerics of ``flowlab``.

Each function or field here does the work the simple way: the chart fields
evaluate arrays of points with numpy, RK4 steps a whole batch of points
with a fresh wrapped copy and a finiteness check at every step, the
collar field is evaluated on the full 64^3 grid, and the boundary
check runs at seeded random points.  They are test oracles for the
package's float and in-place versions, not used by the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from msflow.errors import NonFinite, VanishingField
from msflow.flowlab import Trajectory


@dataclass(frozen=True, eq=False)
class TorusChartField:
    """flowlab.TorusChartField on arrays of points."""

    lam: int
    g_shift: float = 0.0

    dim = 3
    circle_mask = (True, False, True)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        t, x, z = points[..., 0], points[..., 1], points[..., 2]
        lam = self.lam
        s = np.sin(0.5 * np.pi * x)
        rho = s * s
        flat = 1.0 - rho
        f = flat + rho * (lam + 1) / (lam * lam + 1)
        g = flat * np.cos(2.0 * np.pi * (lam * z - t)) + rho * (lam - 1) / (lam * lam + 1)
        g = g + self.g_shift
        out = np.empty_like(points)
        out[..., 0] = f * lam - g
        out[..., 1] = -x
        out[..., 2] = f + g * lam
        return out


@dataclass(frozen=True, eq=False)
class RoundHandleField:
    """flowlab.RoundHandleField on arrays of points."""

    stability: str = "attracting"

    dim = 2
    circle_mask = (True, False)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        out = np.empty_like(points)
        out[..., 0] = 1.0
        sign = -1.0 if self.stability == "attracting" else 1.0
        out[..., 1] = sign * points[..., 1]
        return out


class SuspensionField:
    """A flowlab.SuspensionField on arrays of points."""

    dim = 3
    circle_mask = (False, True, True)

    def __init__(self, field) -> None:
        self.field = field

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        eps = self.field.eps
        u = (points[..., 0] - eps) / (1.0 - 2.0 * eps)
        inside = (u > 0.0) & (u < 1.0)
        du = np.where(inside, 6.0 * u * (1.0 - u), 0.0) / (1.0 - 2.0 * eps)
        out = np.empty_like(points)
        out[..., 0] = 1.0
        out[..., 1] = du * self.field.displacement[0]
        out[..., 2] = du * self.field.displacement[1]
        return out


class RowSigned:
    """A chart field scaled by +1.0 or -1.0 per row of a batch of points; a
    -1.0 row is integrated backward in time.  The sign is exact, so each row
    follows the same floats as a run of the field or its negation alone."""

    def __init__(self, field, signs) -> None:
        self.field = field
        self.signs = np.asarray(signs, dtype=float)[:, None]
        self.dim = field.dim
        self.circle_mask = field.circle_mask

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.signs * self.field(points)


def _wrap(points, mask):
    out = np.array(points, dtype=float)
    out[..., mask] %= 1.0
    return out


def rk4_integrate(field, x0, dt: float, T: float) -> Trajectory:
    mask = np.asarray(field.circle_mask)
    x = _wrap(np.asarray(x0, dtype=float), mask)
    n = max(1, int(round(T / dt)))
    points = np.empty((n + 1,) + x.shape, dtype=float)
    points[0] = x
    for i in range(n):
        k1 = field(x)
        k2 = field(x + 0.5 * dt * k1)
        k3 = field(x + 0.5 * dt * k2)
        k4 = field(x + dt * k3)
        step = (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(step).all():
            raise NonFinite(f"field evaluation produced a non-finite value near step {i}")
        x = _wrap(x + step, mask)
        points[i + 1] = x
    return Trajectory(times=np.arange(n + 1) * dt, points=points)


def collar_min_norm(f_profile, g_profile) -> float:
    """Smallest sup-norm of the collar field (g(r), f(r), 0) over the 64^3
    grid of (r, fiber, base); raises VanishingField naming the r of the
    first zero."""
    axis = np.linspace(0.0, 1.0, 64)
    r, _fiber, _base = np.meshgrid(axis, axis, axis, indexing="ij")
    values = np.stack([g_profile(r), f_profile(r), np.zeros_like(r)], axis=-1)
    norms = np.max(np.abs(values), axis=-1)
    min_norm = float(norms.min())
    if min_norm <= 0.0:
        where = np.unravel_index(int(norms.argmin()), norms.shape)
        raise VanishingField(f"field vanishes near r = {axis[where[0]]:.4f}")
    return min_norm


def boundary_max_error(field, n_points: int = 100) -> float:
    """flowlab.boundary_max_error at seeded random (t, z), for an array field."""
    rng = np.random.default_rng(0)
    t = rng.random(n_points)
    z = rng.random(n_points)
    x = np.where(np.arange(n_points) % 2 == 0, 1.0, -1.0)
    pts = np.stack([t, x, z], axis=-1)
    target = np.stack([np.ones(n_points), -x, np.ones(n_points)], axis=-1)
    return float(np.max(np.abs(field(pts) - target)))
