"""Brute-force reference for ``flowlab.curve_intersections``.

Grid-free and frame-free: every segment of one curve is tested against
every segment of the other at every integer translate within the two
segments' extents, with numpy vector operations over chunks of segment
pairs.  Crossings closer than 1e-7 (wrapped) merge into one that keeps the
smaller sine, by comparing each against every crossing kept so far.  It
shares no code with the package's bucket loop and is not used by it.
"""

from __future__ import annotations

import numpy as np

from msflow.errors import DegenerateOverlap

# segment pairs per chunk, so a chunk's arrays stay a few MB
_CHUNK = 1 << 18
# slack on the translate range, more than the 1e-9 a crossing may lie past
# a segment's end
_PAD = 1e-6


def _cross(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _translates(a, r, b, w):
    """Segment indices (i, j) and integer vectors k for which segment i of
    the first curve and segment j of the second, moved by k, can meet."""
    i, j, lo, count = [], [], [], []
    rows = max(1, _CHUNK // len(b))
    for first in range(0, len(a), rows):
        # a + s*r = b + k + u*w with s, u in [0, 1] bounds each coordinate of k
        gap = a[first:first + rows, None, :] - b[None, :, :]
        low = np.ceil(gap + np.minimum(r, 0.0)[first:first + rows, None, :]
                      - np.maximum(w, 0.0)[None, :, :] - _PAD)
        high = np.floor(gap + np.maximum(r, 0.0)[first:first + rows, None, :]
                        - np.minimum(w, 0.0)[None, :, :] + _PAD)
        ii, jj = np.nonzero(np.all(low <= high, axis=-1))
        i.append(ii + first)
        j.append(jj)
        lo.append(low[ii, jj])
        count.append((high[ii, jj] - low[ii, jj] + 1).astype(np.int64))
    i, j, lo, count = (np.concatenate(x) for x in (i, j, lo, count))
    # one row per (pair, translate): enumerate each pair's box of translates
    total = count[:, 0] * count[:, 1]
    pair = np.repeat(np.arange(len(i)), total)
    at = np.arange(len(pair)) - np.repeat(np.cumsum(total) - total, total)
    k = lo[pair] + np.stack([at // count[pair, 1], at % count[pair, 1]], axis=-1)
    return i[pair], j[pair], k


def merged_crossings(c1, c2):
    """One [x, y, |unit cross|, members] per crossing, duplicates keeping the
    smaller sine; members lists the (x, y) of every crossing merged into it,
    any of which the package may report, since which comes first in x order
    can turn on float rounding."""
    a, r = c1.points[:-1], np.diff(c1.points, axis=0)
    b, w = c2.points[:-1], np.diff(c2.points, axis=0)
    i, j, k = _translates(a, r, b, w)
    p, r, q, w = a[i], r[i], b[j] + k - a[i], w[j]
    rw = _cross(r, w)
    n1, n2 = np.linalg.norm(r, axis=-1), np.linalg.norm(w, axis=-1)
    scale = n1 * n2
    live = scale != 0.0
    parallel = live & (np.abs(rw) <= 1e-12 * scale)

    # a crossing may lie 1e-9 (in length) past a segment's end; parallel
    # segments within 1e-9 of one line sharing more than 1e-9 of it are degenerate
    eps = 1e-9
    collinear = parallel & (np.abs(_cross(q, r)) <= eps * n1)
    rr = np.sum(r * r, axis=-1)[collinear]
    t0 = np.sum(q * r, axis=-1)[collinear] / rr
    t1 = t0 + np.sum(w * r, axis=-1)[collinear] / rr
    shared = np.minimum(np.maximum(t0, t1), 1.0) - np.maximum(np.minimum(t0, t1), 0.0)
    if np.any(shared * n1[collinear] > eps):
        raise DegenerateOverlap("curves share a positive-length segment")

    crossing = live & ~parallel
    p, r, q, w, rw, scale, n1, n2 = (x[crossing] for x in (p, r, q, w, rw, scale, n1, n2))
    s = _cross(q, w) / rw
    u = _cross(q, r) / rw
    hit = (-eps <= s * n1) & (s * n1 <= n1 + eps) & (-eps <= u * n2) & (u * n2 <= n2 + eps)
    points = (p[hit] + s[hit, None] * r[hit]) % 1.0
    sines = np.abs(rw[hit]) / scale[hit]
    found = sorted((float(x), float(y), float(cr)) for (x, y), cr in zip(points, sines))

    merged: list[list] = []
    for x, y, cr in found:
        for entry in merged:
            dx = (x - entry[0] + 0.5) % 1.0 - 0.5
            dy = (y - entry[1] + 0.5) % 1.0 - 0.5
            if abs(dx) <= 1e-7 and abs(dy) <= 1e-7:
                entry[2] = min(entry[2], cr)
                entry[3].append((x, y))
                break
        else:
            merged.append([x, y, cr, [(x, y)]])
    return merged

