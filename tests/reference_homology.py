"""Straightforward references for the graph presentation and class vectors of ``homology``.

Each function here does the work the simple way: every class of a
generator is a full-width vector, a gamma class is expanded through its own
vector, and each gluing row is the sum of four full-width vectors embedded
at their pieces' offsets.  They are test oracles for the package's
versions, which write coefficients straight into their generator columns,
and are not used by the package.
"""

from __future__ import annotations

from msflow.homology import IntMatrix, _core_pair, _generator_names
from msflow.manifolds import _require_int, spanning_tree


def _fiber_rows(m, width):
    h = 2 * m.genus
    rows = []
    for j, f in enumerate(m.fibers):
        row = [0] * width
        row[h] = -f.q
        row[h + 1 + j] = f.p
        rows.append(tuple(row))
    return rows


def fiber_vector(m):
    vec = [0] * len(_generator_names(m))
    vec[2 * m.genus] = 1
    return tuple(vec)


def core_class_vector(m, j):
    """[gamma_j] in generator coordinates: h for j = 0, r_j*mu_j + s_j*h else."""
    vec = [0] * len(_generator_names(m))
    h = 2 * m.genus
    if j == 0:
        vec[h] = 1
    else:
        r, s = _core_pair(m.fibers[j - 1])
        vec[h] = s
        vec[h + j] = r
    return tuple(vec)


def expr_to_vector(m, c):
    vec = [0] * len(_generator_names(m))
    for i, coeff in enumerate(c.lam):
        vec[2 * i] += coeff
    for j, coeff in enumerate(c.alpha):
        if coeff:
            core = core_class_vector(m, j)
            for idx, entry in enumerate(core):
                vec[idx] += coeff * entry
    if c.tau:
        base = 2 * m.genus + 1 + m.n
        for cidx, coeff in enumerate(c.tau):
            vec[base + cidx] += coeff
    return tuple(vec)


def section_vector(p, slot):
    """Class of the section curve on a boundary slot, in piece generators."""
    vec = [0] * len(_generator_names(p))
    mu_base = 2 * p.genus + 1
    delta_base = mu_base + p.n
    if slot == 0:
        for j in range(p.n):
            vec[mu_base + j] = -1
        for c in range(p.boundary - 1):
            vec[delta_base + c] = -1
    else:
        vec[delta_base + slot - 1] = 1
    return tuple(vec)


def graph_presentation(g):
    """(generator names, relations, piece offsets, non-tree edges) of a graph manifold."""
    offsets = []
    names = []
    for i, pc in enumerate(g.pieces):
        offsets.append(len(names))
        names += [f"p{i}.{name}" for name in _generator_names(pc)]
    _tree, nontree = spanning_tree(g.l, g.edges)
    names += [f"t{idx}" for idx in nontree]
    width = len(names)

    def embedded(piece, local):
        vec = [0] * width
        for k, entry in enumerate(local):
            vec[offsets[piece] + k] = entry
        return vec

    rows = []
    for i, pc in enumerate(g.pieces):
        for local in _fiber_rows(pc, len(_generator_names(pc))):
            rows.append(tuple(embedded(i, local)))
    for e in g.edges:
        (a, b), (c, d) = e.matrix
        h_a = embedded(e.piece_a, fiber_vector(g.pieces[e.piece_a]))
        s_a = embedded(e.piece_a, section_vector(g.pieces[e.piece_a], e.slot_a))
        h_b = embedded(e.piece_b, fiber_vector(g.pieces[e.piece_b]))
        s_b = embedded(e.piece_b, section_vector(g.pieces[e.piece_b], e.slot_b))
        rows.append(tuple(x - a * y - c * z for x, y, z in zip(h_a, h_b, s_b)))
        rows.append(tuple(x - b * y - d * z for x, y, z in zip(s_a, h_b, s_b)))
    return tuple(names), IntMatrix.from_rows(rows, width), tuple(offsets), nontree


def graph_class_vector(g, per_piece, cycles):
    names, _relations, offsets, nontree = graph_presentation(g)
    vec = [0] * len(names)
    for i, (pc, expr) in enumerate(zip(g.pieces, per_piece)):
        for k, entry in enumerate(expr_to_vector(pc, expr)):
            vec[offsets[i] + k] = entry
    t_base = len(names) - len(nontree)
    for k, entry in enumerate(cycles):
        vec[t_base + k] = _require_int(entry, f"cycle coordinate {k}")
    return tuple(vec)
