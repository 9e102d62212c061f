"""First homology of Seifert and graph manifolds by integer presentation matrices.

The closed Seifert presentation uses generators
(a_1, b_1, ..., a_g, b_g, h, mu_1, ..., mu_n) where h is the regular fiber
and mu_j the meridian of the j-th exceptional torus.  Relations are

* the closing row        e*h + mu_1 + ... + mu_n = 0, and
* one fiber row per j    p_j*mu_j - q_j*h = 0.

The sign in the fiber row is the one that makes the (g=0, e=-1) surgeries
(2,1), (3,1), (5,1) produce the trivial group, which pins the orientation
convention for the whole module.  Bounded pieces keep the same generators
plus boundary classes delta_1..delta_{k-1} and drop the closing row; the
section curve on boundary slot 0 is then the combination
-sum(delta_c) - sum(mu_j).

Everything is exact arbitrary-precision integer arithmetic.  A presentation
is a tuple of sparse rows, one per relation, each a tuple of (column, value)
pairs with strictly increasing columns and no zero values; it keeps this one
form from the builder through the elimination to the certificate check.  A
group runs one sparse elimination of its relations and keeps the logged row
and column operations instead of dense transforms U and V, whose entries grow
to thousands of bits on large presentations; class queries replay those
operations on the class vector.  `IntMatrix` and `smith_normal_form` are the
dense reference with explicit U and V; no homology path builds or calls them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import DimensionMismatch, InvalidInput
from .manifolds import (
    GraphManifold,
    Gluing,
    HomologyClassExpr,
    SeifertClosed,
    SeifertPiece,
    _require_int,
    spanning_tree,
    validate_class,
)

# Cached groups keep their elimination logs, one triple per row or column operation.
_CACHE_SIZE = 16

# Relations x generators.  The presentation is stored sparse, but elimination
# rescans its remaining entries after each pivot, and those scans grow with this
# product.  Under it, a 1,000-piece chain of genus-0 pieces (1,998 x 1,998) takes
# 1.6-2.4 s and 31 MB, and the longest ladder admitted, g = 0 with fibers
# 2/1;3/1;...;2000/1 (2,000 x 2,000), 66 s and 640 MB.
MAX_PRESENTATION_CELLS = 4_000_000

# One relation per row, as (column, value) pairs: columns strictly increasing, no zero values.
SparseRows = tuple[tuple[tuple[int, int], ...], ...]


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix with explicit shape (rows may be zero)."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        entries = tuple(tuple(_require_int(v, "matrix entry") for v in row) for row in self.entries)
        if len(entries) != self.rows or any(len(r) != self.cols for r in entries):
            raise DimensionMismatch(f"entries do not form a {self.rows}x{self.cols} matrix")
        object.__setattr__(self, "entries", entries)

    @staticmethod
    def from_rows(rows: "list[tuple[int, ...]] | tuple[tuple[int, ...], ...]", cols: int) -> "IntMatrix":
        return IntMatrix(len(rows), cols, tuple(rows))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows,
                         tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = tuple(
            tuple(sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
                  for j in range(other.cols))
            for i in range(self.rows))
        return IntMatrix(self.rows, other.cols, out)

    def det(self) -> int:
        """Determinant by fraction-free Gaussian elimination (Bareiss)."""
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [list(r) for r in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class SNFResult:
    """Smith normal form S = U @ A @ V with unimodular transforms U, V."""

    u: IntMatrix
    s: IntMatrix
    v: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.s.entries[i][i] for i in range(min(self.s.rows, self.s.cols)))


def smith_normal_form(a: IntMatrix) -> SNFResult:
    """Diagonalize A over the integers, tracking the row and column transforms.

    The returned diagonal is non-negative and satisfies the divisibility chain
    d_1 | d_2 | ...; U and V collect the elementary row and column operations,
    so U @ A @ V = S holds exactly.
    """
    m, n = a.rows, a.cols
    s = [list(row) for row in a.entries]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i: int, j: int) -> None:
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst: int, src: int, factor: int) -> None:
        s[dst] = [x + factor * y for x, y in zip(s[dst], s[src])]
        u[dst] = [x + factor * y for x, y in zip(u[dst], u[src])]

    def add_col(dst: int, src: int, factor: int) -> None:
        for row in s:
            row[dst] += factor * row[src]
        for row in v:
            row[dst] += factor * row[src]

    for t in range(min(m, n)):
        while True:
            pivot = None
            for i in range(t, m):
                for j in range(t, n):
                    if s[i][j] != 0 and (pivot is None or abs(s[i][j]) < abs(s[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                break
            if pivot[0] != t:
                swap_rows(t, pivot[0])
            if pivot[1] != t:
                swap_cols(t, pivot[1])
            dirty = False
            for i in range(t + 1, m):
                if s[i][t] != 0:
                    add_row(i, t, -(s[i][t] // s[t][t]))
                    dirty = dirty or s[i][t] != 0
            for j in range(t + 1, n):
                if s[t][j] != 0:
                    add_col(j, t, -(s[t][j] // s[t][t]))
                    dirty = dirty or s[t][j] != 0
            if dirty:
                continue
            # below/right of the pivot is clear; enforce the divisibility chain
            offender = None
            for i in range(t + 1, m):
                if any(s[i][j] % s[t][t] != 0 for j in range(t + 1, n)):
                    offender = i
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
    for t in range(min(m, n)):
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]
    return SNFResult(IntMatrix(m, m, tuple(tuple(r) for r in u)),
                     IntMatrix(m, n, tuple(tuple(r) for r in s)),
                     IntMatrix(n, n, tuple(tuple(r) for r in v)))


@dataclass(frozen=True)
class _Reduction:
    """A diagonalization D = U @ R @ V kept as its elementary operations.

    D is zero except D[row][col] = sign * d (d > 0) for each entry of
    `pivots`.  U and V are never formed: `row_ops` lists (k, i, f) for
    "row k += f * row i" and `col_ops` lists (j, c, f) for "col j += f * col c",
    each in the order applied.
    """

    pivots: tuple[tuple[int, int, int, int], ...]
    row_ops: tuple[tuple[int, int, int], ...]
    col_ops: tuple[tuple[int, int, int], ...]


def _eliminate(relations: SparseRows, width: int) -> _Reduction:
    """Diagonalize the sparse rows R, `width` columns wide, by integer
    elimination (no divisibility chain).

    Each row is copied into a {col: value} dict, in column order, with a
    column -> rows index.  Every pivot is the candidate least in one key,
    (Markowitz cost (row nnz - 1) * (col nnz - 1), |value|, row, col), so
    fill decides before entry size (Havas, Holt and Rees, "Recognizing badly
    presented Z-modules", 1993).
    The candidates are every entry at the start of a round, then the nonzero
    remainders in the pivot's column, then those in its row.  Row operations
    clear the pivot column; column operations then clear the pivot row and,
    with the column already clear, touch that row only.  A remainder of a
    division by the pivot is smaller in |value|, so within a round each
    pivot is smaller than the last and the round ends; each round empties a
    row and a column, so the loop terminates.
    """
    rows = [dict(row) for row in relations]
    cols: list[set[int]] = [set() for _ in range(width)]
    for r, row in enumerate(rows):
        for j in row:
            cols[j].add(r)
    pivots: list[tuple[int, int, int, int]] = []
    row_ops: list[tuple[int, int, int]] = []
    col_ops: list[tuple[int, int, int]] = []

    def best(entries) -> tuple[int, int] | None:
        key = min((((len(rows[r]) - 1) * (len(cols[c]) - 1), abs(a), r, c) for r, c, a in entries), default=None)
        return None if key is None else key[2:]

    def add(r: int, j: int, delta: int) -> None:
        value = rows[r].get(j, 0) + delta
        if value:
            rows[r][j] = value
            cols[j].add(r)
        else:
            del rows[r][j]
            cols[j].discard(r)

    pivot = best((r, c, a) for r, row in enumerate(rows) for c, a in row.items())
    while pivot is not None:
        r, c = pivot
        a = rows[r][c]
        for k in cols[c] - {r}:
            f = -(rows[k][c] // a)
            if f:
                row_ops.append((k, r, f))
                for j, b in rows[r].items():
                    add(k, j, f * b)
        if len(cols[c]) > 1:
            pivot = best((k, c, rows[k][c]) for k in cols[c] - {r})
            continue
        for j in [j for j in rows[r] if j != c]:
            f = -(rows[r][j] // a)
            if f:
                col_ops.append((j, c, f))
                add(r, j, f * a)
        if len(rows[r]) > 1:
            pivot = best((r, j, b) for j, b in rows[r].items() if j != c)
            continue
        pivots.append((r, c, abs(a), 1 if a > 0 else -1))
        rows[r] = {}
        cols[c] = set()
        pivot = best((r, c, a) for r, row in enumerate(rows) for c, a in row.items())
    return _Reduction(tuple(pivots), tuple(row_ops), tuple(col_ops))


def _invariant_factors(diagonal: list[int]) -> tuple[int, ...]:
    """Fold diagonal entries pairwise into (gcd, lcm) until d_i | d_{i+1}; keep d >= 2."""
    ds = [d for d in diagonal if d > 1]
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            g = math.gcd(ds[i], ds[j])
            ds[i], ds[j] = g, ds[i] // g * ds[j]
    return tuple(d for d in ds if d > 1)


def _solve(relations: SparseRows, reduction: _Reduction, v: tuple[int, ...]) -> tuple[int, ...] | None:
    """Integer x with x @ R = v, from a reduction of the sparse rows R, or None.

    v lies in the row lattice of R iff w = v @ V does in that of D: w must be
    a multiple of d at each pivot column and zero elsewhere.  The witness is
    y @ U with y_row = w_col / (sign * d), and is re-multiplied through R as
    a final guard.
    """
    v = tuple(_require_int(x, "vector entry") for x in v)
    w = list(v)
    for j, c, f in reduction.col_ops:
        w[j] += f * w[c]
    x = [0] * len(relations)
    for r, c, d, sign in reduction.pivots:
        q, rem = divmod(w[c], d)
        if rem:
            return None
        x[r] = sign * q
        w[c] = 0
    if any(w):
        return None  # nonzero on a column without a pivot
    for k, i, f in reversed(reduction.row_ops):
        x[i] += f * x[k]
    image = [0] * len(v)
    for xr, row in zip(x, relations):
        if xr:
            for j, a in row:
                image[j] += xr * a
    if tuple(image) != v:
        raise ArithmeticError("elimination witness failed re-multiplication")
    return tuple(x)


def solve_in_image(a: IntMatrix, v: tuple[int, ...]) -> tuple[int, ...] | None:
    """Return an integer x with A @ x = v, or None when v is not in the image."""
    if len(v) != a.rows:
        raise DimensionMismatch(f"vector of length {len(v)} against {a.rows}x{a.cols} matrix")
    columns = tuple(tuple((i, row[j]) for i, row in enumerate(a.entries) if row[j]) for j in range(a.cols))
    return _solve(columns, _eliminate(columns, a.rows), v)


@dataclass(frozen=True)
class H1Group:
    """H_1 as free rank, invariant factors, and the presentation they came from.

    `presentation` has one sparse row per relation over `generator_names`:
    a tuple of (column, value) pairs, columns strictly increasing, values
    nonzero.  The invariant factors keep only entries >= 2 and satisfy
    d_i | d_{i+1}.
    `reduction` is the one sparse elimination of `presentation`, kept so that
    class queries replay its operations instead of eliminating again; it
    takes no part in equality, hashing, repr or `to_json`.
    """

    free_rank: int
    invariant_factors: tuple[int, ...]
    presentation: SparseRows
    generator_names: tuple[str, ...]
    reduction: _Reduction = field(compare=False, repr=False)

    def describe(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " + ".join(parts) if parts else "0"

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def torsion_order(self) -> int:
        order = 1
        for d in self.invariant_factors:
            order *= d
        return order

    def is_trivial_class(self, vector: tuple[int, ...]) -> bool:
        """Whether the generator-coordinate vector lies in the relation lattice."""
        if len(vector) != len(self.generator_names):
            raise DimensionMismatch(
                f"class vector of length {len(vector)} over {len(self.generator_names)} generators")
        return _solve(self.presentation, self.reduction, vector) is not None

    def to_json(self) -> dict:
        return {
            "group": self.describe(),
            "free_rank": self.free_rank,
            "invariant_factors": list(self.invariant_factors),
            "generators": list(self.generator_names),
        }


def group_from_presentation(relations: SparseRows, names: tuple[str, ...]) -> H1Group:
    """The group of sparse rows in the format of `H1Group.presentation`.  A
    row out of that format raises: elimination would read a repeated column
    as its last value and could pivot on a zero."""
    for row in relations:
        # the columns as given must be exactly the sorted in-range columns of nonzero values
        kept = {j for j, a in row if _require_int(a, "relation entry") and 0 <= j < len(names)}
        if [j for j, _ in row] != sorted(kept):
            raise DimensionMismatch(f"a relation needs nonzero values at increasing columns in range({len(names)})")
    reduction = _eliminate(relations, len(names))
    return H1Group(
        free_rank=len(names) - len(reduction.pivots),
        invariant_factors=_invariant_factors([d for _, _, d, _ in reduction.pivots]),
        presentation=relations,
        generator_names=names,
        reduction=reduction,
    )


# ---------------------------------------------------------------------------
# Seifert manifolds

def _generator_names(m: SeifertClosed | SeifertPiece) -> tuple[str, ...]:
    names = []
    for i in range(1, m.genus + 1):
        names += [f"a{i}", f"b{i}"]
    names.append("h")
    names += [f"mu{j}" for j in range(1, m.n + 1)]
    if isinstance(m, SeifertPiece):
        names += [f"delta{c}" for c in range(1, m.boundary)]
    return tuple(names)


def _presentation(blocks: tuple[SeifertClosed | SeifertPiece, ...],
                  edges: tuple[Gluing, ...] = ()) -> GraphPresentation:
    """Seifert blocks side by side: each brings its generators (prefixed
    ``p<i>.`` when glued), its closing row if closed and one row per fiber;
    each non-tree edge m adds a free generator ``t<m>``, and each edge two
    gluing rows.  Rows are built as {column: value} maps and left as sorted
    nonzero (column, value) pairs once their cell count has been checked
    against MAX_PRESENTATION_CELLS."""
    names: list[str] = []
    rows: list[dict[int, int]] = []
    fiber_cols = []
    for i, pc in enumerate(blocks):
        h = len(names) + 2 * pc.genus
        fiber_cols.append(h)
        names += [f"p{i}.{name}" if edges else name for name in _generator_names(pc)]
        if isinstance(pc, SeifertClosed):
            rows.append({h: pc.euler, **{h + 1 + j: 1 for j in range(pc.n)}})
        rows += [{h: -f.q, h + 1 + j: f.p} for j, f in enumerate(pc.fibers)]
    _tree, nontree = spanning_tree(len(blocks), edges)
    names += [f"t{idx}" for idx in nontree]

    def section(piece: int, slot: int) -> dict[int, int]:
        # slots 1..k-1 carry delta_1..delta_{k-1}; the slot-0 section is minus every mu_j and delta_c
        pc, h = blocks[piece], fiber_cols[piece]
        return {h + pc.n + slot: 1} if slot else {col: -1 for col in range(h + 1, h + pc.n + pc.boundary)}

    # each gluing identifies (fiber, section) of side a with the matrix image
    # of (fiber, section) of side b
    for e in edges:
        (a, b), (c, d) = e.matrix
        fiber_b, section_b = {fiber_cols[e.piece_b]: 1}, section(e.piece_b, e.slot_b)
        for row, x, y in (({fiber_cols[e.piece_a]: 1}, a, c), (section(e.piece_a, e.slot_a), b, d)):
            for terms, k in ((fiber_b, -x), (section_b, -y)):
                for col, v in terms.items():
                    row[col] = row.get(col, 0) + k * v
            rows.append(row)

    width = len(names)
    if len(rows) * width > MAX_PRESENTATION_CELLS:
        raise InvalidInput(f"the presentation has {len(rows)} relations over {width} generators, "
                           f"{len(rows) * width} cells; the limit is {MAX_PRESENTATION_CELLS}")
    # explicit zeros are dropped: a closing row with e = 0 holds one, and so does a
    # gluing row where a matrix entry 0 added 0 * value
    sparse = tuple(tuple(sorted((col, v) for col, v in row.items() if v)) for row in rows)
    return GraphPresentation(tuple(names), sparse, nontree)


@lru_cache(maxsize=_CACHE_SIZE)
def seifert_h1(m: SeifertClosed) -> H1Group:
    """H_1 of a closed Seifert manifold from the surgery presentation."""
    pres = _presentation((m,))
    return group_from_presentation(pres.relations, pres.generator_names)


@lru_cache(maxsize=_CACHE_SIZE)
def piece_h1(p: SeifertPiece) -> H1Group:
    """H_1 of a bounded piece: fiber relations only, no closing row."""
    pres = _presentation((p,))
    return group_from_presentation(pres.relations, pres.generator_names)


def _core_pair(f) -> tuple[int, int]:
    # (r, s) with p*s - q*r = 1 and 0 <= s < |q|
    q = abs(f.q)
    s = 0 if q == 1 else pow(f.p, -1, q)
    r = (f.p * s - 1) // f.q
    return r, s


def expr_to_vector(m: SeifertClosed | SeifertPiece, c: HomologyClassExpr) -> tuple[int, ...]:
    """Expand a (beta, gamma, delta) class into generator coordinates.

    beta_i is realized as the surface generator a_i; gamma_0 is the fiber h
    and gamma_j is r_j*mu_j + s_j*h with p_j*s_j - q_j*r_j = 1; delta_c is
    its own generator (pieces only).  A class not dimensioned for `m` raises
    as in :func:`validate_class`.
    """
    validate_class(m, c)
    vec = [0] * len(_generator_names(m))
    h = 2 * m.genus
    for i, coeff in enumerate(c.lam):
        vec[2 * i] += coeff
    for j, coeff in enumerate(c.alpha):
        if j == 0:
            vec[h] += coeff
        elif coeff:
            r, s = _core_pair(m.fibers[j - 1])
            vec[h] += coeff * s
            vec[h + j] += coeff * r
    for cidx, coeff in enumerate(c.tau or ()):
        vec[h + 1 + m.n + cidx] += coeff
    return tuple(vec)


def fiber_vector(m: SeifertClosed | SeifertPiece) -> tuple[int, ...]:
    """Class of a regular fiber: the generator h."""
    vec = [0] * len(_generator_names(m))
    vec[2 * m.genus] = 1
    return tuple(vec)


# ---------------------------------------------------------------------------
# Graph manifolds

@dataclass(frozen=True)
class GraphPresentation:
    """Assembled presentation of a graph manifold's first homology.

    Generators are the piece generators (prefixed ``p<i>.``), piece by
    piece, followed by one free generator ``t<m>`` per non-tree edge m,
    listed in `nontree_edges`.  The trailing ``len(nontree_edges)``
    coordinates of a class are its image in the cycle space of the gluing
    multigraph.  `relations` are sparse rows in the format of
    `H1Group.presentation`.
    """

    generator_names: tuple[str, ...]
    relations: SparseRows
    nontree_edges: tuple[int, ...]


@lru_cache(maxsize=_CACHE_SIZE)
def graph_presentation(g: GraphManifold) -> GraphPresentation:
    return _presentation(g.pieces, g.edges)


def graph_h1(g: GraphManifold) -> H1Group:
    """H_1 of the glued manifold, over the generators of :func:`graph_presentation`."""
    pres = graph_presentation(g)
    return group_from_presentation(pres.relations, pres.generator_names)


def graph_class_vector(
    g: GraphManifold,
    per_piece: tuple[HomologyClassExpr, ...],
    cycles: tuple[int, ...],
) -> tuple[int, ...]:
    """Assemble per-piece class expressions and one coordinate per non-tree
    edge into a vector over the graph presentation's generators.  A cycle
    coordinate that is not an int (a float, a bool, a string) raises
    MalformedSpec instead of being coerced."""
    pres = graph_presentation(g)
    vec = [x for pc, expr in zip(g.pieces, validate_class(g, per_piece)) for x in expr_to_vector(pc, expr)]
    b1 = len(pres.nontree_edges)
    if len(cycles) != b1:
        raise DimensionMismatch(f"expected {b1} cycle coordinates, got {len(cycles)}")
    return tuple(vec + [_require_int(entry, f"cycle coordinate {k}") for k, entry in enumerate(cycles)])


def class_is_admissible(g: GraphManifold, vector: tuple[int, ...]) -> bool:
    """A class is realizable by a nMS field iff it projects to zero in the
    cycle space of the gluing graph, i.e. its trailing ``t`` coordinates vanish."""
    pres = graph_presentation(g)
    if len(vector) != len(pres.generator_names):
        raise DimensionMismatch(
            f"class vector of length {len(vector)} over {len(pres.generator_names)} generators")
    return not any(vector[len(vector) - len(pres.nontree_edges):])


def class_is_maximal(
    m: SeifertClosed | SeifertPiece | GraphManifold,
    c: "HomologyClassExpr | tuple[HomologyClassExpr, ...]",
) -> bool:
    """Whether every lambda, tau and fiber-slot alpha coefficient avoids
    {-1, 0, 1}; an alpha outside the manifold's `fiber_slots` is forced to
    vanish and is not read.  A class not dimensioned for `m` raises as in
    :func:`validate_class`.
    """
    c = validate_class(m, c)
    if isinstance(m, GraphManifold):
        return all(class_is_maximal(pc, expr) for pc, expr in zip(m.pieces, c))  # type: ignore[arg-type]
    small = {-1, 0, 1}
    coeffs = list(c.lam) + [c.alpha[j] for j in m.fiber_slots] + list(c.tau or ())
    return all(v not in small for v in coeffs)
