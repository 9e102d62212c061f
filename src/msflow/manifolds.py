"""Symbolic presentations of Seifert and graph manifolds.

A closed Seifert manifold is recorded by the genus of its base surface,
the Euler number of the underlying circle bundle, and the list of
surgery coefficients p/q of its exceptional fibers.  A Seifert piece is
the bounded analogue (trivial bundle over a surface with boundary, so
no Euler number).  A graph manifold is a collection of pieces glued
along boundary tori by unimodular matrices.

Conventions fixed here and used by the whole package:

* boundary slots are 0-indexed and ordered per piece;
* a gluing matrix [[a, b], [c, d]] acts column-wise on the ordered
  (fiber, section) basis of the target torus, i.e. edge (i, si, j, sj)
  identifies fiber_i = a*fiber_j + c*section_j and
  section_i = b*fiber_j + d*section_j;
* homology classes of vector fields are written in the coefficient
  basis (beta_1..beta_g, gamma_0..gamma_n, delta_1..delta_{k-1}), where
  slot 0 of the gamma block tracks multiples of the regular fiber.

All values are immutable after construction and validation is total:
every constructor either returns a value satisfying the documented
invariants or raises a typed error from :mod:`msflow.errors`.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass

from .errors import (
    Alpha0NotAllowed,
    BadGluingMatrix,
    DimensionMismatch,
    DisconnectedGraph,
    InvalidCoefficient,
    MalformedSpec,
    UnmatchedBoundary,
)

GluingMatrix = tuple[tuple[int, int], tuple[int, int]]


def _brief(value: object) -> str:
    """repr(value), cut to 200 characters so that an error echoing input stays small."""
    text = repr(value)
    return text if len(text) <= 200 else text[:197] + "..."


def _require_int(value: object, what: str) -> int:
    # bool is an int subclass but never a meaningful coefficient
    if not isinstance(value, int) or isinstance(value, bool):
        raise MalformedSpec(f"{what} must be an integer, got {_brief(value)}")
    return value


def _decimal_int(text: str, what: str) -> int:
    """int(text).  Past Python's limit on the digits of an int parsed from a
    string, the error is a MalformedSpec naming `what` and the limit, where
    int's own ValueError names neither."""
    try:
        return int(text)
    except ValueError:
        body = text.strip()
        digits = (body[1:] if body[:1] in "+-" else body).replace("_", "")
        if not digits.isdecimal():
            raise
        limit = sys.get_int_max_str_digits()
        if not 0 < limit < len(digits):
            raise
        raise MalformedSpec(f"{what} has {len(digits)} digits; integers are limited to {limit} digits") from None


def _load_json(document: str, what: str) -> object:
    """json.loads, with an integer past the digit limit a MalformedSpec naming
    `what` (see _decimal_int)."""
    label = f"an integer in {what}"
    return json.loads(document, parse_int=lambda text: _decimal_int(text, label))


def _require_list(value: object, what: str) -> "list | tuple":
    if not isinstance(value, (list, tuple)):
        raise MalformedSpec(f"{what} must be a list, got {_brief(value)}")
    return value


@dataclass(frozen=True)
class SurgeryCoefficient:
    """A surgery coefficient p/q with p outside {-1, 0, 1}, q nonzero, coprime."""

    p: int
    q: int

    def __post_init__(self) -> None:
        _require_int(self.p, "numerator")
        _require_int(self.q, "denominator")
        if self.p in (-1, 0, 1):
            raise InvalidCoefficient(f"numerator {self.p} must lie outside {{-1, 0, 1}}")
        if self.q == 0:
            raise InvalidCoefficient("denominator must be nonzero")
        if math.gcd(abs(self.p), abs(self.q)) != 1:
            raise InvalidCoefficient(f"{self.p}/{self.q} is not in lowest terms")


def _coerce_fibers(fibers: object) -> tuple[SurgeryCoefficient, ...]:
    out = []
    for item in fibers:  # type: ignore[union-attr]
        if isinstance(item, SurgeryCoefficient):
            out.append(item)
        else:
            try:
                p, q = item  # type: ignore[misc]
            except (TypeError, ValueError) as exc:
                raise MalformedSpec(f"fiber entry {_brief(item)} is not a (p, q) pair") from exc
            out.append(SurgeryCoefficient(_require_int(p, "numerator"), _require_int(q, "denominator")))
    return tuple(out)


@dataclass(frozen=True)
class SeifertClosed:
    """Closed Seifert manifold over a genus-`genus` surface with Euler number `euler`."""

    genus: int
    euler: int
    fibers: tuple[SurgeryCoefficient, ...] = ()

    def __post_init__(self) -> None:
        _require_int(self.genus, "genus")
        _require_int(self.euler, "euler number")
        if self.genus < 0:
            raise MalformedSpec(f"genus must be non-negative, got {self.genus}")
        object.__setattr__(self, "fibers", _coerce_fibers(self.fibers))

    @property
    def n(self) -> int:
        return len(self.fibers)

    @property
    def fiber_slots(self) -> range:
        """The alpha slots that carry a fiber orbit gamma_j: slot 0, the regular
        fiber, is left out for |e| = 1, where that fiber is nullhomologous."""
        return range(1 if abs(self.euler) == 1 else 0, self.n + 1)

    def to_json(self) -> dict:
        return {
            "genus": self.genus,
            "euler": self.euler,
            "fibers": [[f.p, f.q] for f in self.fibers],
        }


@dataclass(frozen=True)
class SeifertPiece:
    """Bounded Seifert piece: genus-`genus` base with `boundary` >= 1 boundary circles."""

    genus: int
    boundary: int
    fibers: tuple[SurgeryCoefficient, ...] = ()

    def __post_init__(self) -> None:
        _require_int(self.genus, "genus")
        _require_int(self.boundary, "boundary count")
        if self.genus < 0:
            raise MalformedSpec(f"genus must be non-negative, got {self.genus}")
        if self.boundary < 1:
            raise MalformedSpec("a piece needs at least one boundary component; use SeifertClosed otherwise")
        object.__setattr__(self, "fibers", _coerce_fibers(self.fibers))

    @property
    def n(self) -> int:
        return len(self.fibers)

    @property
    def fiber_slots(self) -> range:
        """The alpha slots that carry a fiber orbit gamma_j: all of them."""
        return range(self.n + 1)

    def to_json(self) -> dict:
        return {
            "genus": self.genus,
            "boundary": self.boundary,
            "fibers": [[f.p, f.q] for f in self.fibers],
        }


@dataclass(frozen=True)
class Gluing:
    """One edge of the gluing graph: slot `slot_a` of piece `piece_a` meets slot
    `slot_b` of piece `piece_b` via a determinant +-1 integer matrix."""

    piece_a: int
    slot_a: int
    piece_b: int
    slot_b: int
    matrix: GluingMatrix

    def __post_init__(self) -> None:
        for v in (self.piece_a, self.slot_a, self.piece_b, self.slot_b):
            _require_int(v, "edge endpoint index")
        try:
            (a, b), (c, d) = self.matrix
        except (TypeError, ValueError) as exc:
            raise BadGluingMatrix(f"gluing matrix {_brief(self.matrix)} is not 2x2") from exc
        for v in (a, b, c, d):
            if not isinstance(v, int) or isinstance(v, bool):
                raise BadGluingMatrix(f"gluing matrix entry {_brief(v)} is not an integer")
        if abs(a * d - b * c) != 1:
            raise BadGluingMatrix(f"gluing matrix {_brief(self.matrix)} has determinant {a * d - b * c}")
        object.__setattr__(self, "matrix", ((a, b), (c, d)))

    def to_json(self) -> list:
        return [self.piece_a, self.slot_a, self.piece_b, self.slot_b,
                [list(self.matrix[0]), list(self.matrix[1])]]


def spanning_tree(pieces: int, edges: "tuple[Gluing, ...]") -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split edge indices into a spanning forest of the gluing multigraph
    (edges taken in order) and the remaining, cycle-closing edges."""
    parent = list(range(pieces))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree, nontree = [], []
    for idx, e in enumerate(edges):
        ra, rb = find(e.piece_a), find(e.piece_b)
        if ra != rb:
            parent[ra] = rb
            tree.append(idx)
        else:
            nontree.append(idx)
    return tuple(tree), tuple(nontree)


@dataclass(frozen=True)
class GraphManifold:
    """Seifert pieces glued along boundary tori.

    Invariants enforced on construction: every (piece, slot) pair is used by
    exactly one edge endpoint, all matrices are unimodular, and the
    piece-and-edge multigraph is connected.  Self-gluings (an edge joining two
    slots of one piece) are allowed.
    """

    pieces: tuple[SeifertPiece, ...]
    edges: tuple[Gluing, ...]

    def __post_init__(self) -> None:
        pieces = tuple(self.pieces)
        if not pieces:
            raise MalformedSpec("a graph manifold needs at least one piece")
        for pc in pieces:
            if not isinstance(pc, SeifertPiece):
                raise MalformedSpec(f"piece {_brief(pc)} is not a SeifertPiece")
        edges = tuple(e if isinstance(e, Gluing) else Gluing(*e) for e in self.edges)
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "edges", edges)

        seen: set[tuple[int, int]] = set()
        for e in edges:
            for pi, slot in ((e.piece_a, e.slot_a), (e.piece_b, e.slot_b)):
                if not 0 <= pi < len(pieces):
                    raise UnmatchedBoundary(f"edge references piece {pi}, but there are {len(pieces)} pieces")
                if not 0 <= slot < pieces[pi].boundary:
                    raise UnmatchedBoundary(
                        f"piece {pi} has boundary slots 0..{pieces[pi].boundary - 1}, edge uses slot {slot}")
                if (pi, slot) in seen:
                    raise UnmatchedBoundary(f"boundary slot {slot} of piece {pi} is glued more than once")
                seen.add((pi, slot))
        expected = {(i, s) for i, pc in enumerate(pieces) for s in range(pc.boundary)}
        missing = expected - seen
        if missing:
            pi, slot = min(missing)
            raise UnmatchedBoundary(f"boundary slot {slot} of piece {pi} is not glued")

        tree, _nontree = spanning_tree(len(pieces), edges)
        if len(tree) != len(pieces) - 1:
            raise DisconnectedGraph("the pieces-and-gluings multigraph is not connected")

    @property
    def l(self) -> int:
        return len(self.pieces)

    def to_json(self) -> dict:
        return {
            "pieces": [pc.to_json() for pc in self.pieces],
            "edges": [e.to_json() for e in self.edges],
        }


@dataclass(frozen=True)
class HomologyClassExpr:
    """Integer coefficients of a class in the (beta, gamma, delta) basis.

    `lam[i]` weights beta_{i+1}, `alpha[j]` weights gamma_j (slot 0 being the
    regular-fiber class), and `tau[c]` weights delta_{c+1}.  `tau` is None for
    closed manifolds, which have no boundary-parallel generators.
    """

    lam: tuple[int, ...] = ()
    alpha: tuple[int, ...] = ()
    tau: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "lam", tuple(_require_int(v, "lambda coefficient") for v in self.lam))
        object.__setattr__(self, "alpha", tuple(_require_int(v, "alpha coefficient") for v in self.alpha))
        if self.tau is not None:
            object.__setattr__(self, "tau", tuple(_require_int(v, "tau coefficient") for v in self.tau))

    def __add__(self, other: "HomologyClassExpr") -> "HomologyClassExpr":
        if (self.tau is None) != (other.tau is None):
            raise DimensionMismatch("cannot add a bounded-piece class to a closed-manifold class")
        if len(self.lam) != len(other.lam) or len(self.alpha) != len(other.alpha):
            raise DimensionMismatch("class vectors have different lengths")
        tau = None
        if self.tau is not None:
            assert other.tau is not None
            if len(self.tau) != len(other.tau):
                raise DimensionMismatch("class vectors have different lengths")
            tau = tuple(x + y for x, y in zip(self.tau, other.tau))
        return HomologyClassExpr(
            tuple(x + y for x, y in zip(self.lam, other.lam)),
            tuple(x + y for x, y in zip(self.alpha, other.alpha)),
            tau,
        )

    def scale(self, k: int) -> "HomologyClassExpr":
        return HomologyClassExpr(
            tuple(k * v for v in self.lam),
            tuple(k * v for v in self.alpha),
            None if self.tau is None else tuple(k * v for v in self.tau),
        )

    def to_json(self) -> dict:
        doc: dict = {"lambda": list(self.lam), "alpha": list(self.alpha)}
        if self.tau is not None:
            doc["tau"] = list(self.tau)
        return doc

    @staticmethod
    def from_json(doc: dict) -> "HomologyClassExpr":
        if not isinstance(doc, dict):
            raise MalformedSpec(f"class document {_brief(doc)} is not an object")
        unknown = set(doc) - {"lambda", "alpha", "tau"}
        if unknown:
            raise MalformedSpec(f"unknown class keys {_brief(sorted(unknown))}")
        return HomologyClassExpr(
            tuple(_require_list(doc.get("lambda", []), "class 'lambda'")),
            tuple(_require_list(doc.get("alpha", []), "class 'alpha'")),
            tuple(_require_list(doc["tau"], "class 'tau'")) if "tau" in doc else None,
        )


def validate_class(
    m: SeifertClosed | SeifertPiece | GraphManifold,
    c: "HomologyClassExpr | tuple[HomologyClassExpr, ...] | list[HomologyClassExpr]",
) -> "HomologyClassExpr | tuple[HomologyClassExpr, ...]":
    """Check that a class expression is dimensioned for `m` and return it.

    For a graph manifold, `c` must be one expression per piece.  alpha_0 must
    vanish where slot 0 is not one of the manifold's `fiber_slots`.
    """
    if isinstance(m, GraphManifold):
        exprs = tuple(c)  # type: ignore[arg-type]
        if len(exprs) != m.l:
            raise DimensionMismatch(f"expected {m.l} per-piece classes, got {len(exprs)}")
        return tuple(validate_class(pc, expr) for pc, expr in zip(m.pieces, exprs))  # type: ignore[misc]

    if not isinstance(c, HomologyClassExpr):
        raise DimensionMismatch(f"expected a HomologyClassExpr, got {type(c).__name__}")
    if len(c.lam) != m.genus:
        raise DimensionMismatch(f"lambda has length {len(c.lam)}, manifold genus is {m.genus}")
    if len(c.alpha) != m.n + 1:
        raise DimensionMismatch(f"alpha has length {len(c.alpha)}, expected {m.n + 1}")
    if isinstance(m, SeifertPiece):
        if c.tau is None or len(c.tau) != m.boundary - 1:
            got = "absent" if c.tau is None else f"length {len(c.tau)}"
            raise DimensionMismatch(f"tau is {got}, expected length {m.boundary - 1}")
    else:
        if c.tau is not None:
            raise DimensionMismatch("tau is only meaningful for bounded pieces")
        if 0 not in m.fiber_slots and c.alpha[0] != 0:
            raise Alpha0NotAllowed("the regular fiber is nullhomologous for |e| = 1, so alpha_0 must be 0")
    return c


def maximal_class(
    m: SeifertClosed | SeifertPiece | GraphManifold,
) -> "HomologyClassExpr | tuple[HomologyClassExpr, ...]":
    """The canonical maximal class: 2 on every lambda, tau and fiber-slot
    alpha coefficient, 0 on the alpha outside the fiber slots."""
    if isinstance(m, GraphManifold):
        return tuple(maximal_class(pc) for pc in m.pieces)  # type: ignore[misc]
    alpha = tuple(2 if j in m.fiber_slots else 0 for j in range(m.n + 1))
    tau = (2,) * (m.boundary - 1) if isinstance(m, SeifertPiece) else None
    return HomologyClassExpr((2,) * m.genus, alpha, tau)


# ---------------------------------------------------------------------------
# Parsing

_SEIFERT_RE = re.compile(r"^g=(-?\d+),e=(-?\d+)(?:,fibers=(.*))?$")
_FRACTION_RE = re.compile(r"^(-?\d+)/(-?\d+)$")


def parse_seifert(text: str) -> SeifertClosed:
    """Parse a compact closed-Seifert description.

    The shape is ``g=<int>,e=<int>,fibers=<p/q>[;<p/q>]*`` with the fibers
    part optional.
    """
    match = _SEIFERT_RE.match(text.strip())
    if match is None:
        raise MalformedSpec(f"cannot parse Seifert description {_brief(text)}")
    genus, euler = _decimal_int(match.group(1), "genus"), _decimal_int(match.group(2), "euler number")
    fibers_text = match.group(3)
    fibers = []
    if fibers_text is not None:
        if not fibers_text:
            raise MalformedSpec("empty fibers list; omit the fibers part instead")
        for part in fibers_text.split(";"):
            frac = _FRACTION_RE.match(part.strip())
            if frac is None:
                raise MalformedSpec(f"cannot parse surgery coefficient {_brief(part)}")
            fibers.append(SurgeryCoefficient(_decimal_int(frac.group(1), "fiber numerator"),
                                             _decimal_int(frac.group(2), "fiber denominator")))
    return SeifertClosed(genus, euler, tuple(fibers))


def parse_graph(document: str) -> GraphManifold:
    """Parse the graph-manifold JSON document.

    Schema: ``{"pieces": [{"genus": int, "boundary": int, "fibers": [[p, q],
    ...]}, ...], "edges": [[pi, bi, pj, bj, [[a, b], [c, d]]], ...]}``.
    """
    try:
        doc = _load_json(document, "the graph document")
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MalformedSpec(f"invalid JSON: {exc}") from exc
    return graph_from_json(doc)


def graph_from_json(doc: object) -> GraphManifold:
    if not isinstance(doc, dict):
        raise MalformedSpec("graph document must be a JSON object")
    unknown = set(doc) - {"pieces", "edges"}
    if unknown:
        raise MalformedSpec(f"unknown graph keys {_brief(sorted(unknown))}")
    if "pieces" not in doc:
        raise MalformedSpec("graph document lacks a 'pieces' list")
    pieces = []
    for raw in _require_list(doc["pieces"], "'pieces'"):
        if not isinstance(raw, dict):
            raise MalformedSpec(f"piece entry {_brief(raw)} is not an object")
        bad = set(raw) - {"genus", "boundary", "fibers"}
        if bad:
            raise MalformedSpec(f"unknown piece keys {_brief(sorted(bad))}")
        try:
            genus = raw["genus"]
            boundary = raw["boundary"]
        except KeyError as exc:
            raise MalformedSpec(f"piece entry lacks key {exc}") from exc
        pieces.append(SeifertPiece(genus, boundary, _require_list(raw.get("fibers", []), "piece 'fibers'")))
    edges = []
    for raw in _require_list(doc.get("edges", []), "'edges'"):
        try:
            pi, bi, pj, bj, matrix = raw
        except (TypeError, ValueError) as exc:
            raise MalformedSpec(f"edge entry {_brief(raw)} is not [pi, bi, pj, bj, matrix]") from exc
        try:
            matrix = tuple(tuple(row) for row in matrix)
        except TypeError as exc:
            raise BadGluingMatrix(f"gluing matrix {_brief(matrix)} is not 2x2") from exc
        edges.append(Gluing(pi, bi, pj, bj, matrix))  # type: ignore[arg-type]
    return GraphManifold(tuple(pieces), tuple(edges))
