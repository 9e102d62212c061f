"""Per-pair reference for ``flowlab.curve_intersections``.

The straightforward version: bucket segment midpoints in a dict on a grid
of at most 64 cells per circle, gather the candidates of all nine
neighbour cells (repeats included), evaluate each pair with numpy vector
operations, and de-duplicate crossings by comparing each against every
crossing kept so far.  It is the test oracle for the package's bucket
loop, not used by the package.
"""

from __future__ import annotations

import numpy as np

from msflow.errors import DegenerateOverlap
from msflow.flowlab import CROSS_TOL


def _segment_data(points):
    # each start is its wrapped midpoint less half the delta: one period per segment
    deltas = points[1:] - points[:-1]
    mids = (points[:-1] + 0.5 * deltas) % 1.0
    return mids - 0.5 * deltas, deltas, mids


def _cross(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def merged_crossings(c1, c2):
    """One [x, y, |unit cross|] per crossing, duplicates keeping the smaller sine."""
    s1, d1, m1 = _segment_data(c1.points)
    s2, d2, m2 = _segment_data(c2.points)
    # buckets at least as wide as the largest segment extent, at most 64 per circle
    extent = max(np.abs(d1).max(), np.abs(d2).max())
    cells = 64 if extent <= 1 / 64 else max(1, int(1 / extent))
    buckets: dict[tuple[int, int], list[int]] = {}
    for j, mid in enumerate(m2):
        buckets.setdefault((int(mid[0] * cells) % cells, int(mid[1] * cells) % cells), []).append(j)

    eps = 1e-9
    found: list[tuple[float, float, float]] = []  # (x, y, |unit cross|)
    for i in range(len(s1)):
        cx, cy = int(m1[i][0] * cells) % cells, int(m1[i][1] * cells) % cells
        candidates: list[int] = []
        for ox in (-1, 0, 1):
            for oy in (-1, 0, 1):
                candidates += buckets.get(((cx + ox) % cells, (cy + oy) % cells), [])
        p, r = s1[i], d1[i]
        for j in candidates:
            # integer translate bringing segment j next to segment i
            q, w = s2[j] + np.round(m1[i] - m2[j]), d2[j]
            rw = _cross(r, w)
            qp = q - p
            scale = np.linalg.norm(r) * np.linalg.norm(w)
            if scale == 0.0:
                continue
            if abs(rw) <= 1e-12 * scale:
                # parallel; collinear overlap of positive length is degenerate
                if abs(_cross(qp, r)) <= 1e-9 * max(np.linalg.norm(r), 1.0):
                    rr = float(r @ r)
                    t0 = float(qp @ r) / rr
                    t1 = t0 + float(w @ r) / rr
                    lo, hi = min(t0, t1), max(t0, t1)
                    if min(hi, 1.0) - max(lo, 0.0) > 1e-9:
                        raise DegenerateOverlap("curves share a positive-length segment")
                continue
            s = _cross(qp, w) / rw
            u = _cross(qp, r) / rw
            if -eps <= s <= 1 + eps and -eps <= u <= 1 + eps:
                pt = (p + s * r) % 1.0
                found.append((float(pt[0]), float(pt[1]), abs(rw) / scale))

    merged: list[list[float]] = []
    for x, y, cr in sorted(found):
        for entry in merged:
            dx = (x - entry[0] + 0.5) % 1.0 - 0.5
            dy = (y - entry[1] + 0.5) % 1.0 - 0.5
            if abs(dx) <= 1e-7 and abs(dy) <= 1e-7:
                entry[2] = min(entry[2], cr)
                break
        else:
            merged.append([x, y, cr])
    merged.sort(key=lambda e: (e[0], e[1]))
    return merged


def curve_intersections(c1, c2, tol: float = CROSS_TOL):
    return [(np.array([x, y]), cr > tol) for x, y, cr in merged_crossings(c1, c2)]
