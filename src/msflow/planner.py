"""Constructive orbit budgets for non-singular Morse-Smale fields.

The closed-form bounds (:func:`bound_seifert`, :func:`bound_piece`,
:func:`bound_graph`, :func:`bound_sum`) are plain arithmetic.  The rest of
the module replays the construction behind them as an auditable pipeline
whose steps 1-4 run once per block (a closed manifold or lone piece is one
block, a graph manifold has one per piece) and steps 5-6 once:

1. pick a Morse-Smale skeleton on the base surface (attracting/repelling
   singularities, saddles, and periodic orbits beta_i / delta_c);
2. lift it: every singularity becomes a periodic fiber orbit, every base
   periodic orbit an invariant torus;
3. destroy each invariant torus into a (lambda, 1)-curve pair;
4. replace fiber orbits whose target coefficient needs it by Wada's 5th
   operation, leaving a survivor plus two (1, q)-cables;
5. reverse the flow in a tube around the link of orbits realizing the
   requested class, which accumulates exactly that class into d^2;
6. adjust the homotopy class of the plane field, adding six orbits.

Orbits and tori are named by piece, role (gamma, aux, saddle, beta, delta,
adjust), index and, for orbits derived from another, a suffix (saddle,
cable, cable_saddle).  The label ``p<i>.<role><index>[.<suffix>]`` drops
``p<i>.`` in the closed block and on the six adjustment orbits.

The plans and :func:`replay` apply every step the same way, appending
:class:`OrbitRecord` values to a private draft that is frozen into an
immutable :class:`Ledger`; the step descriptors are plain JSON-safe dicts,
and :func:`replay` rebuilds the identical orbit list from them alone.

A lift document is checked once, as the draft takes it: exactly the keys
op, fibers, saddles and tori; distinct labels naming one block, the next in
order; attracting or repelling fibers and tori; classes of one shape.  The
draft writes every other step itself, and :func:`replay` takes no other.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable
from dataclasses import dataclass, replace

from .errors import (
    AlreadyAdjusted,
    InvalidInput,
    MalformedSpec,
    NotFiberOrbit,
    SaddleInLink,
    SinglePiece,
    StepRejected,
    UnknownTorus,
    ZeroCoefficient,
)
from .manifolds import (
    GraphManifold,
    HomologyClassExpr,
    SeifertClosed,
    SeifertPiece,
    _brief,
    _require_int,
    validate_class,
)

ATTRACTING = "attracting"
REPELLING = "repelling"
SADDLE = "saddle"

_LIFT_KEYS = {"op", "fibers", "saddles", "tori"}
_LIFT_LABEL = re.compile(r"^(?:p(0|[1-9]\d*)\.)?(gamma|aux|saddle|beta|delta)(0|[1-9]\d*)$")


# ---------------------------------------------------------------------------
# Closed-form bounds

def bound_seifert(genus: int, euler: int, n: int) -> int:
    """Orbit bound for a closed Seifert manifold with `n` exceptional fibers.

    4g + 4n + 8, minus 4 when |e| = 1, plus a correction of 2 (resp. 4 when
    |e| = 1) for the sphere without exceptional fibers.
    """
    if genus < 0 or n < 0:
        raise ValueError("genus and fiber count must be non-negative")
    d_euler = 1 if abs(euler) == 1 else 0
    d_sphere = 1 if genus == 0 and n == 0 else 0
    return 4 * genus + 4 * n + 8 - 4 * d_euler + 2 * (1 + d_euler) * d_sphere


def bound_piece(genus: int, n: int, k: int) -> int:
    """Orbit budget contributed by one bounded piece with `k` boundary tori."""
    if genus < 0 or n < 0:
        raise ValueError("genus and fiber count must be non-negative")
    if k < 1:
        raise ValueError("a piece has at least one boundary torus")
    d_sphere = 1 if genus == 0 and n == 0 else 0
    return 4 * genus + 4 * n + 8 + 2 * d_sphere + 2 * (k - 1)


def _beta(g: GraphManifold) -> int:
    return 2 * sum(
        2 * pc.genus + 2 * pc.n + (1 if pc.genus == 0 and pc.n == 0 else 0) + pc.boundary
        for pc in g.pieces)


def bound_graph(g: GraphManifold) -> int:
    """Orbit bound for a graph manifold with more than one piece.

    Equals 6 + sum over pieces of (bound_piece - 6); single-piece inputs are
    Seifert manifolds in disguise and are rejected.
    """
    if g.l == 1:
        raise SinglePiece("the graph bound needs at least two pieces; use the Seifert bound instead")
    return 6 + _beta(g)


def bound_sum(components: "list[GraphManifold] | tuple[GraphManifold, ...]") -> int:
    """Bound for a connected sum: 6 plus each component's budget above 6.

    Single-piece components are allowed here (their budget term is the same
    algebraic expression); an empty list degenerates to 6.
    """
    return 6 + sum(_beta(c) for c in components)


# ---------------------------------------------------------------------------
# Base-surface skeletons

def _alternate(position: int) -> str:
    return ATTRACTING if position % 2 == 0 else REPELLING


def _skeleton(y: "SeifertClosed | SeifertPiece") -> tuple[list[tuple[str, int]], list[tuple[str, int]]]:
    """Morse-Smale skeleton on the base of `y`, as (periodic orbits,
    singularities), each named by (role, index).

    The singularities are one gamma_j per fiber slot of `y` and 2g + s - 2
    saddles for s slots; the periodic orbits are beta_1..beta_g, and on a
    bounded piece also the boundary-parallel orbits delta_c.  Whenever the
    saddle count would go negative, attractor/repellor-saddle pairs are added
    until all counts are non-negative, which preserves the index sum.
    """
    periodic = [("beta", i) for i in range(1, y.genus + 1)]
    if isinstance(y, SeifertPiece):
        periodic += [("delta", c) for c in range(1, y.boundary)]
    base_saddles = 2 * y.genus + len(y.fiber_slots) - 2
    pad = max(0, -base_saddles)
    singular = [("gamma", j) for j in y.fiber_slots]
    singular += [("aux", t) for t in range(1, pad + 1)]
    singular += [("saddle", s) for s in range(1, base_saddles + pad + 1)]
    return periodic, singular


def check_poincare_hopf(lift: dict) -> bool:
    """Whether a closed block's lift step has the index sum of its base.

    Fibers lift the attractors and repellors (index +1), saddles the saddles
    (index -1), and a closed base carries one torus per genus handle, so the
    sum must equal the Euler characteristic 2 - 2g = 2 - 2 * #tori.
    """
    entries = lift["fibers"] + lift["saddles"] + lift["tori"]
    if any("tau" in entry[-1] for entry in entries):
        raise ValueError("index-sum check applies to closed bases only")
    return len(lift["fibers"]) - len(lift["saddles"]) == 2 - 2 * len(lift["tori"])


# ---------------------------------------------------------------------------
# Labels

def _label(piece: int | None, role: str, index: int, suffix: str | None = None) -> str:
    """Render the label of an orbit or torus from its structured name."""
    label = f"{role}{index}" if piece is None else f"p{piece}.{role}{index}"
    return label if suffix is None else f"{label}.{suffix}"


# ---------------------------------------------------------------------------
# Classes per block: the one place where closed and graph plans differ.
# Internally a dict maps the closed block (key None) or graph pieces 0..l-1
# to classes; publicly the closed block is a bare class, pieces a tuple.

def _shaped(blocks: dict) -> "HomologyClassExpr | tuple[HomologyClassExpr, ...] | None":
    return blocks.get(None) if None in blocks or not blocks else tuple(blocks.values())


def _class_json(value: "HomologyClassExpr | tuple[HomologyClassExpr, ...] | None",
                offsets: bool = False) -> dict | None:
    if not isinstance(value, tuple):
        return None if value is None else value.to_json()
    doc: dict = {"pieces": [c.to_json() for c in value]}
    if offsets:
        doc["reference_offsets"] = [f"e_{i + 1}" for i in range(len(value))]
    return doc


# ---------------------------------------------------------------------------
# Orbit records and the ledger

@dataclass(frozen=True)
class OrbitRecord:
    """One periodic orbit of the field under construction, named by `piece`
    (None outside graph pieces), `role`, `index` and `suffix`."""

    id: int
    kind: str
    role: str
    index: int
    orbit_class: HomologyClassExpr
    provenance: str
    cable: tuple[int, int] | None = None
    piece: int | None = None
    suffix: str | None = None

    @property
    def label(self) -> str:
        return _label(self.piece, self.role, self.index, self.suffix)

    def to_json(self) -> dict:
        cls = self.orbit_class.to_json()
        if self.piece is not None:
            cls["piece"] = self.piece
        doc = {
            "id": self.id,
            "kind": self.kind,
            "label": self.label,
            "class": cls,
            "provenance": self.provenance,
        }
        if self.cable is not None:
            doc["cable"] = list(self.cable)
        return doc


@dataclass(frozen=True)
class Ledger:
    """Audit trail of the construction.

    `steps` holds JSON-safe step descriptors sufficient to rebuild `orbits`
    (see :func:`replay`); `d2_accumulated` is the class realized so far by
    flow reversal: one expression for a closed manifold or lone piece, a
    tuple with one expression per piece for a graph manifold.  Orbit labels
    read ``p<i>.<role><index>[.<suffix>]``, without ``p<i>.`` in the closed
    block and on the adjustment orbits; no two orbits share a label.  Every
    step but a lift is the document the draft writes for it.
    """

    manifold: "SeifertClosed | SeifertPiece | GraphManifold | None" = None
    target_class: "HomologyClassExpr | tuple[HomologyClassExpr, ...] | None" = None
    steps: tuple[dict, ...] = ()
    orbits: tuple[OrbitRecord, ...] = ()
    d2_accumulated: "HomologyClassExpr | tuple[HomologyClassExpr, ...] | None" = None

    @property
    def total(self) -> int:
        return len(self.orbits)

    def to_json(self) -> dict:
        return {
            "manifold": None if self.manifold is None else self.manifold.to_json(),
            "target_class": _class_json(self.target_class),
            "steps": [dict(s) for s in self.steps],
            "orbits": [o.to_json() for o in self.orbits],
            "d2": _class_json(self.d2_accumulated, offsets=True),
            "total": self.total,
        }


# ---------------------------------------------------------------------------
# Construction steps

class _Draft:
    """A ledger under construction, extended in place, with orbits and tori
    indexed by label; each method applies one construction step, for the
    plans and :func:`replay` alike.  A torus awaiting destruction maps its
    label to its base orbit's kind, its unit class and its name."""

    def __init__(self, manifold, target_class) -> None:
        self.manifold = manifold
        self.target_class = target_class
        self.steps: list[dict] = []
        self.orbits: list[OrbitRecord] = []
        self.position: dict[str, int] = {}
        self.tori: dict[str, tuple[str, HomologyClassExpr, dict]] = {}
        self.d2: dict = {}
        self.adjusted = False

    def freeze(self) -> Ledger:
        return Ledger(self.manifold, self.target_class, tuple(self.steps), tuple(self.orbits),
                      _shaped(self.d2))

    def _append(self, orbit: OrbitRecord) -> None:
        self.position[orbit.label] = len(self.orbits)
        self.orbits.append(orbit)

    def lift(self, step: dict) -> None:
        """Append one block's lifted skeleton: fiber orbits, saddles and invariant tori.
        Each entry is checked as it is parsed, and nothing checks a lift again."""
        if step.keys() != _LIFT_KEYS:
            raise MalformedSpec(f"lift keys {_brief(list(step))} are not op, fibers, saddles and tori")
        entries = [(label, kind, cls, False) for label, kind, cls in step["fibers"]]
        entries += [(label, kind, cls, True) for label, kind, cls in step["tori"]]
        for label, kind, _cls, _torus in entries:
            if kind not in (ATTRACTING, REPELLING):
                raise MalformedSpec(f"lift entry {_brief(label)} is neither attracting nor repelling")
        entries += [(label, SADDLE, cls, False) for label, cls in step["saddles"]]
        if not entries:
            raise MalformedSpec("lift step carries no orbits, saddles, or tori")
        for k, (label, kind, cls, torus) in enumerate(entries):
            m = _LIFT_LABEL.match(label) if isinstance(label, str) else None
            if m is None:
                raise MalformedSpec(f"lift label {_brief(label)} is not [p<piece>.]<role><index>")
            name = {"piece": None if m.group(1) is None else int(m.group(1)),
                    "role": m.group(2), "index": int(m.group(3))}
            c = HomologyClassExpr.from_json(cls)
            shape = (len(c.lam), len(c.alpha), None if c.tau is None else len(c.tau))
            if k == 0:
                piece, first_shape = name["piece"], shape
                if piece not in (None, len(self.d2)):
                    raise MalformedSpec(f"lift for piece {piece} arrived out of order")
                if self.d2 and (piece is None or None in self.d2):
                    raise MalformedSpec("a closed lift must be the only lift")
                self.d2[piece] = c.scale(0)
            elif name["piece"] != piece:
                raise MalformedSpec(f"lift label {_brief(label)} names another block")
            if shape != first_shape:
                raise MalformedSpec(f"lift entry {_brief(label)} has class shape {shape}, not {first_shape}")
            # earlier lifts are of other blocks, so only this lift can hold the label
            if label in self.position or label in self.tori:
                raise MalformedSpec(f"lift label {_brief(label)} repeats")
            if torus:
                self.tori[label] = (kind, c, name)
            else:
                self._append(OrbitRecord(len(self.orbits), kind, orbit_class=c, provenance="lift", **name))
        self.steps.append(step)

    def destroy(self, label: str, lam: int) -> None:
        """Destroy torus `label` into a (lambda, 1)-curve pair: appends two orbits of class
        lambda*[label], one keeping the base orbit's stability, the companion a saddle."""
        if not isinstance(lam, int) or isinstance(lam, bool) or lam == 0:
            raise ValueError("torus destruction needs a nonzero integer coefficient")
        torus = self.tori.pop(label, None)
        if torus is None:
            raise UnknownTorus(f"no invariant torus labeled {_brief(label)}")
        kind, unit, name = torus
        orbit = OrbitRecord(len(self.orbits), kind, orbit_class=unit.scale(lam),
                            provenance="torus_destruction", **name)
        self._append(orbit)
        self._append(replace(orbit, id=len(self.orbits), kind=SADDLE, suffix="saddle"))
        self.steps.append({"op": "destroy_torus", "torus": label, "lambda": lam})

    def wada5(self, label: str, q: int) -> None:
        """Wada's 5th operation with cable slope (1, q) on fiber orbit `label`: the orbit
        survives and two parallel cables of class q*[label] appear, the second a saddle."""
        if not isinstance(q, int) or isinstance(q, bool):
            raise ValueError("cable coefficient must be an integer")
        if q == 0:
            raise ZeroCoefficient("Wada's operation needs a nonzero cable coefficient")
        index = self.position.get(label)
        if index is None:
            raise NotFiberOrbit(f"no orbit labeled {_brief(label)}")
        orb = self.orbits[index]
        if orb.provenance != "lift" or orb.kind == SADDLE or orb.role != "gamma":
            raise NotFiberOrbit(f"orbit {label!r} is not an attracting or repelling fiber lift")
        self.orbits[index] = replace(orb, provenance="wada5_survivor")
        cable = replace(orb, id=len(self.orbits), orbit_class=orb.orbit_class.scale(q),
                        provenance="wada5_cable", cable=(1, q), suffix="cable")
        self._append(cable)
        self._append(replace(cable, id=len(self.orbits), kind=SADDLE, suffix="cable_saddle"))
        self.steps.append({"op": "wada5", "orbit": label, "q": q, "p": 1})

    def reverse(self, link: Iterable[int]) -> None:
        """Reverse the flow around the orbits with ids `link`, adding their classes to d2;
        the orbit count is unchanged, and saddles cannot be reversed."""
        ids = sorted(set(_require_int(i, "link orbit id") for i in link))
        for oid in ids:
            # orbit ids are positions: every orbit is appended with id = position
            if not 0 <= oid < len(self.orbits):
                raise ValueError(f"no orbit with id {oid}")
            orb = self.orbits[oid]
            if orb.kind == SADDLE:
                raise SaddleInLink(f"orbit {orb.label!r} is a saddle and cannot be reversed")
            if orb.piece not in self.d2:
                raise ValueError(f"orbit {orb.label!r} belongs to no piece of the graph manifold")
            self.d2[orb.piece] = self.d2[orb.piece] + orb.orbit_class
            self.orbits[oid] = replace(orb, provenance="reversal")
        self.steps.append({"op": "reverse_link", "link": ids})

    def adjust(self) -> None:
        """Fix the plane field's homotopy class, once: six orbits in three canceling
        pairs, recorded with the trivial class, so d2 is unchanged."""
        if self.adjusted:
            raise AlreadyAdjusted("the homotopy adjustment was already applied")
        # the six orbits belong to no piece: in a closed plan that is the
        # closed block, in a graph plan no block at all (the empty class)
        zero = self.d2.get(None, HomologyClassExpr()).scale(0)
        kinds = (ATTRACTING, REPELLING, ATTRACTING, REPELLING, SADDLE, SADDLE)
        for i, kind in enumerate(kinds):
            self._append(OrbitRecord(len(self.orbits), kind, "adjust", i + 1, zero, "homotopy_adjust"))
        self.adjusted = True
        self.steps.append({"op": "homotopy_adjust"})


# ---------------------------------------------------------------------------
# The pipeline

def _unit_class(m: "SeifertClosed | SeifertPiece", role: str, index: int) -> dict:
    # the JSON document of the basis class that (role, index) names
    doc = {"lambda": [0] * m.genus, "alpha": [0] * (m.n + 1)}
    if isinstance(m, SeifertPiece):
        doc["tau"] = [0] * (m.boundary - 1)
    if role == "beta":
        doc["lambda"][index - 1] = 1
    elif role == "delta":
        doc["tau"][index - 1] = 1
    else:
        doc["alpha"][index] = 1
    return doc


def _coefficient(c: HomologyClassExpr, role: str, index: int) -> int:
    # the coefficient of c on the basis element that (role, index) names
    if role == "beta":
        return c.lam[index - 1]
    if role == "delta":
        return (c.tau or ())[index - 1]
    return c.alpha[index]


def _lift_step_doc(m: "SeifertClosed | SeifertPiece", piece: int | None) -> dict:
    periodic, singular = _skeleton(m)
    fibers = []
    saddles = []
    for role, i in singular:
        # aux singularities and saddles lift to regular fibers (slot 0)
        cls = _unit_class(m, "gamma", i if role == "gamma" else 0)
        if role == "saddle":
            saddles.append([_label(piece, role, i), cls])
        else:
            fibers.append([_label(piece, role, i), _alternate(len(fibers)), cls])
    tori = [[_label(piece, role, i), _alternate(k), _unit_class(m, role, i)]
            for k, (role, i) in enumerate(periodic)]
    return {"op": "lift", "fibers": fibers, "saddles": saddles, "tori": tori}


def _in_link(orb: OrbitRecord, c: HomologyClassExpr) -> bool:
    # the link realizing c: destroyed-torus orbits with nonzero target
    # coefficient, replacement cables, and plain fiber lifts at coefficient 1
    if orb.kind == SADDLE:
        return False
    if orb.provenance == "torus_destruction":
        return _coefficient(c, orb.role, orb.index) != 0
    if orb.provenance == "wada5_cable":
        return True
    return orb.provenance == "lift" and orb.role == "gamma" and c.alpha[orb.index] == 1


def _plan(manifold: "SeifertClosed | SeifertPiece | GraphManifold",
          blocks: "list[tuple[int | None, SeifertClosed | SeifertPiece, HomologyClassExpr]]") -> Ledger:
    # blocks are (piece, manifold, class) triples, piece None for a closed block
    classes = {piece: c for piece, _m, c in blocks}
    draft = _Draft(manifold, _shaped(classes))
    for piece, m, c in blocks:
        start = len(draft.orbits)
        draft.lift(_lift_step_doc(m, piece))
        lifted = draft.orbits[start:]
        for label, (_kind, _unit, name) in list(draft.tori.items()):
            draft.destroy(label, _coefficient(c, name["role"], name["index"]) or 1)
        for orb in lifted:
            if orb.role == "gamma" and c.alpha[orb.index] not in (0, 1):
                draft.wada5(orb.label, c.alpha[orb.index])
    draft.reverse(o.id for o in draft.orbits if _in_link(o, classes[o.piece]))
    draft.adjust()
    if draft.d2 != classes:
        raise ArithmeticError("link bookkeeping failed to reproduce the target class")
    return draft.freeze()


def plan_seifert(y: "SeifertClosed | SeifertPiece", c: HomologyClassExpr) -> Ledger:
    """Run the whole construction on one Seifert manifold or piece.

    The resulting ledger satisfies d2_accumulated == c, and for a maximal
    class its total matches the closed-form bound (except at the two
    degenerate sphere cells with |e| = 1 and one exceptional fiber, where the
    construction needs two more orbits than the closed-form value).
    """
    if not isinstance(y, (SeifertClosed, SeifertPiece)):
        raise MalformedSpec(f"cannot plan on {type(y).__name__}")
    return _plan(y, [(None, y, validate_class(y, c))])


def plan_graph(g: GraphManifold,
               per_piece: "list[HomologyClassExpr] | tuple[HomologyClassExpr, ...]") -> Ledger:
    """Run the per-piece pipelines, then one reversal and one adjustment.

    The accumulated class is tracked per piece, relative to the symbolic
    reference offsets e_1..e_l of the fiberwise fields.
    """
    if g.l == 1:
        raise SinglePiece("a one-piece graph manifold is planned as a Seifert piece")
    return _plan(g, list(zip(range(g.l), g.pieces, validate_class(g, tuple(per_piece)))))


# how replay applies each op to a draft
_REPLAY = {
    "lift": lambda draft, step: draft.lift(step),
    "destroy_torus": lambda draft, step: draft.destroy(step["torus"], step["lambda"]),
    "wada5": lambda draft, step: draft.wada5(step["orbit"], step["q"]),
    "reverse_link": lambda draft, step: draft.reverse(step["link"]),
    "homotopy_adjust": lambda draft, step: draft.adjust(),
}


def replay(steps, manifold=None, target_class=None) -> Ledger:
    """Rebuild a ledger from serialized step descriptors.

    The orbit list, totals, and d2 accumulation depend only on the steps, so
    replaying a ledger's steps reproduces its orbits exactly.  A malformed
    step (not an object, an unknown op, missing, extra or ill-shaped fields,
    or any document other than the one the construction writes for it, in
    which true, 1 and 1.0 are three documents) raises MalformedSpec naming
    the step's index and, when known, its op; a step the construction
    rejects keeps its error type behind the same prefix.
    """
    draft = _Draft(manifold, target_class)
    for k, step in enumerate(steps):
        op = step.get("op") if isinstance(step, dict) else None
        if not isinstance(op, str) or op not in _REPLAY:
            raise MalformedSpec(f"step {k} has no known op: {_brief(step)}")
        try:
            _REPLAY[op](draft, step)
        except KeyError as exc:
            raise MalformedSpec(f"step {k} ({op}) has no field {exc}") from None
        except (InvalidInput, TypeError, ValueError) as exc:
            raise MalformedSpec(f"step {k} ({op}) is malformed: {exc}") from None
        except StepRejected as exc:
            raise type(exc)(f"step {k} ({op}): {exc}") from None
        written = draft.steps[-1]
        # the draft keeps a lift as given, so only the steps it writes are compared
        if written is not step and not _same_document(written, step):
            raise MalformedSpec(f"step {k} ({op}) should read {_brief(written)}")
    return draft.freeze()


def _same_document(written: dict, step: object) -> bool:
    """Whether `step` encodes as the JSON document `written` does.  Unlike ==,
    this tells true, 1 and 1.0 apart; a step that is no JSON document differs."""
    try:
        return json.dumps(step, sort_keys=True) == json.dumps(written, sort_keys=True)
    except (TypeError, ValueError):
        return False
