"""Straightforward references for the in-place numerics of ``flowlab``.

Each function here does the work the simple way: RK4 with a fresh wrapped
copy and a finiteness check at every step, the collar field evaluated on
the full grid_side^3 grid, and the boundary check at seeded random points.
They are test oracles for the package's versions, not used by the package.
"""

from __future__ import annotations

import numpy as np

from msflow.errors import NonFinite, VanishingField
from msflow.flowlab import CollarField, Trajectory


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
    return Trajectory(times=np.arange(n + 1) * dt, points=points, step=dt)


def collar_min_norm(f_profile, g_profile, grid_side: int = 64) -> float:
    """Smallest sup-norm of the collar field over the grid_side^3 grid;
    raises VanishingField naming the r of the first zero."""
    field = CollarField(f_profile, g_profile)
    axis = np.linspace(0.0, 1.0, grid_side)
    r, th1, th2 = np.meshgrid(axis, axis, axis, indexing="ij")
    values = field(np.stack([r, th1, th2], axis=-1))
    norms = np.max(np.abs(values), axis=-1)
    min_norm = float(norms.min())
    if min_norm <= 0.0:
        where = np.unravel_index(int(norms.argmin()), norms.shape)
        raise VanishingField(f"field vanishes near r = {axis[where[0]]:.4f}")
    return min_norm


def boundary_max_error(field, n_points: int = 100) -> float:
    rng = np.random.default_rng(0)
    t = rng.random(n_points)
    z = rng.random(n_points)
    x = np.where(np.arange(n_points) % 2 == 0, 1.0, -1.0)
    pts = np.stack([t, x, z], axis=-1)
    target = np.stack([np.ones(n_points), -x, np.ones(n_points)], axis=-1)
    return float(np.max(np.abs(field(pts) - target)))
