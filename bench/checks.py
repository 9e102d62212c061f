"""Reference checks for every op's output, independent of the package under test.

Each reference is written out from the paper's formulas or recomputed by
the benchmark's own arithmetic; nothing here imports ``msflow``.  A check
returns None when the output is correct and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math

# Tolerances pinned by the acceptance criteria, written out here so that a
# change to the package's constants cannot loosen the check.
CLOSURE_TOL = 1e-6
BOUNDARY_TOL = 1e-12
ROUND_HANDLE_CLOSURE_TOL = 1e-9
DECAY_TOL = 1e-6
MIN_ORDER_RATIO = 8.0
FLOQUET_SIGNS = ([-1, -1], [1, -1])

_PRIMES = (2**61 - 1, 2**31 - 1)


# ---------------------------------------------------------------------------
# Closed forms

def seifert_bound(genus: int, euler: int, n: int) -> int:
    """4g + 4n + 8 - 4[|e|=1] + 2(1 + [|e|=1])[g=n=0]."""
    unit = 1 if abs(euler) == 1 else 0
    sphere = 1 if genus == 0 and n == 0 else 0
    return 4 * genus + 4 * n + 8 - 4 * unit + 2 * (1 + unit) * sphere


def piece_bound(genus: int, n: int, k: int) -> int:
    """4g + 4n + 8 + 2[g=n=0] + 2(k-1) for a piece with k boundary tori."""
    sphere = 1 if genus == 0 and n == 0 else 0
    return 4 * genus + 4 * n + 8 + 2 * sphere + 2 * (k - 1)


def graph_bound(doc: dict) -> int:
    """6 + sum over pieces of (piece bound - 6)."""
    return 6 + sum(piece_bound(p["genus"], len(p["fibers"]), p["boundary"]) - 6 for p in doc["pieces"])


def sum_bound(docs: list[dict]) -> int:
    """6 plus each component's budget above 6."""
    return 6 + sum(graph_bound(d) - 6 for d in docs)


def max_class(genus: int, n: int, euler: int | None = None, boundary: int | None = None) -> dict:
    """Every available coefficient 2; alpha_0 is 0 on a closed |e|=1 manifold."""
    alpha = [2] * (n + 1)
    doc: dict = {"lambda": [2] * genus, "alpha": alpha}
    if boundary is not None:
        doc["tau"] = [2] * (boundary - 1)
    elif abs(euler) == 1:
        alpha[0] = 0
    return doc


def seifert_determinant(euler: int, fibers: list[list[int]]) -> int:
    """e * prod(p_j) + sum_j q_j * prod_{i != j} p_i."""
    total = euler * math.prod(p for p, _ in fibers)
    for j, (_, q) in enumerate(fibers):
        total += q * math.prod(p for i, (p, _) in enumerate(fibers) if i != j)
    return total


# ---------------------------------------------------------------------------
# Graph presentation rank by elimination modulo large primes

def graph_relations(doc: dict) -> tuple[list[list[int]], int]:
    """Relation rows over the piece generators and the total generator count.

    Piece generators are a_i, b_i, h, mu_j, delta_c (c = 1..k-1); each
    non-tree edge adds one free cycle generator that appears in no relation.
    Fiber rows read p_j mu_j - q_j h; a gluing identifies (fiber, section)
    of side a with the matrix image of (fiber, section) of side b, where the
    slot-0 section is -sum(mu) - sum(delta) and slot c is delta_c.
    """
    offsets, width = [], 0
    for p in doc["pieces"]:
        offsets.append(width)
        width += 2 * p["genus"] + 1 + len(p["fibers"]) + p["boundary"] - 1

    def fiber(i: int) -> dict[int, int]:
        return {offsets[i] + 2 * doc["pieces"][i]["genus"]: 1}

    def section(i: int, slot: int) -> dict[int, int]:
        p = doc["pieces"][i]
        mu = offsets[i] + 2 * p["genus"] + 1
        delta = mu + len(p["fibers"])
        if slot:
            return {delta + slot - 1: 1}
        return {c: -1 for c in range(mu, delta + p["boundary"] - 1)}

    def row(*terms: tuple[int, dict[int, int]]) -> list[int]:
        out = [0] * width
        for coeff, vec in terms:
            for col, v in vec.items():
                out[col] += coeff * v
        return out

    rows = []
    for i, p in enumerate(doc["pieces"]):
        h = offsets[i] + 2 * p["genus"]
        for j, (pj, qj) in enumerate(p["fibers"]):
            rows.append(row((pj, {h + 1 + j: 1}), (-qj, {h: 1})))
    for pa, sa, pb, sb, ((a, b), (c, d)) in doc["edges"]:
        hb, secb = fiber(pb), section(pb, sb)
        rows.append(row((1, fiber(pa)), (-a, hb), (-c, secb)))
        rows.append(row((1, section(pa, sa)), (-b, hb), (-d, secb)))
    cycles = len(doc["edges"]) - (len(doc["pieces"]) - 1)
    return rows, width + cycles


def rank_mod(rows: list[list[int]], prime: int) -> int:
    """Rank of an integer matrix over GF(prime), by Gaussian elimination."""
    work = [[v % prime for v in r] for r in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col], -1, prime)
        prow = [v * inv % prime for v in work[rank]]
        work[rank] = prow
        for i in range(rank + 1, len(work)):
            f = work[i][col]
            if f:
                work[i] = [(x - f * y) % prime for x, y in zip(work[i], prow)]
        rank += 1
    return rank


def integer_rank(rows: list[list[int]]) -> int:
    """Rank over Q: at least the rank mod any prime, equal for all but a few."""
    return max(rank_mod(rows, p) for p in _PRIMES)


# ---------------------------------------------------------------------------
# Per-check payload tests

def _bound(payload, want: int) -> str | None:
    if payload != {"bound": want}:
        return f"expected {{'bound': {want}}}, got {payload!r}"
    return None


def _chain_ok(factors) -> str | None:
    if any(not isinstance(d, int) or d < 2 for d in factors):
        return f"invariant factors {factors} are not all integers >= 2"
    if any(b % a for a, b in zip(factors, factors[1:])):
        return f"invariant factors {factors} do not form a divisibility chain"
    return None


def _check_bound_seifert(payload, exit_code, p) -> str | None:
    return _bound(payload, seifert_bound(p["genus"], p["euler"], len(p["fibers"])))


def _check_bound_graph(payload, exit_code, p) -> str | None:
    return _bound(payload, graph_bound(p["graph"]))


def _check_bound_sum(payload, exit_code, p) -> str | None:
    return _bound(payload, sum_bound(p["graphs"]))


def _check_plan_seifert(payload, exit_code, p) -> str | None:
    g, e, n = p["genus"], p["euler"], len(p["fibers"])
    bound = seifert_bound(g, e, n)
    if g == 0 and n == 1 and abs(e) == 1:
        # the documented degenerate sphere cell: the construction needs two more
        if exit_code != 2 or payload.get("total") != bound + 2 or payload.get("bound") != bound:
            return f"sphere cell should exit 2 with total {bound + 2} and bound {bound}"
        return None
    if exit_code != 0:
        return f"exit {exit_code} on a plan whose bound {bound} is attained"
    if payload.get("total") != bound or len(payload.get("orbits", ())) != bound:
        return f"total {payload.get('total')} differs from the bound {bound}"
    want = max_class(g, n, euler=e)
    if payload.get("d2") != want or payload.get("target_class") != want:
        return f"d2 {payload.get('d2')} differs from the target class {want}"
    return None


def _check_plan_graph(payload, exit_code, p) -> str | None:
    doc = p["graph"]
    bound = graph_bound(doc)
    if payload.get("total") != bound or len(payload.get("orbits", ())) != bound:
        return f"total {payload.get('total')} differs from the bound {bound}"
    want = [max_class(pc["genus"], len(pc["fibers"]), boundary=pc["boundary"]) for pc in doc["pieces"]]
    d2 = payload.get("d2") or {}
    if d2.get("pieces") != want or (payload.get("target_class") or {}).get("pieces") != want:
        return "d2 differs from the per-piece target classes"
    return None


def _check_homology_seifert(payload, exit_code, p) -> str | None:
    g, e, fibers = p["genus"], p["euler"], p["fibers"]
    group = payload.get("group", {})
    det = seifert_determinant(e, fibers)
    rank = 2 * g + (1 if det == 0 else 0)
    if group.get("free_rank") != rank:
        return f"free rank {group.get('free_rank')}, expected {rank}"
    factors = group.get("invariant_factors", [])
    bad = _chain_ok(factors)
    if bad:
        return bad
    if det and math.prod(factors) != abs(det):
        return f"torsion order {math.prod(factors)}, expected |{det}|"
    if len(group.get("generators", ())) != 2 * g + 1 + len(fibers):
        return "wrong generator count"
    if p["with_class"]:
        want = max_class(g, len(fibers), euler=e)
        if payload.get("class") != want or payload.get("maximal") is not True \
                or payload.get("admissible") is not True:
            return "maximal class not reported as maximal and admissible"
    return None


def _check_homology_graph(payload, exit_code, p) -> str | None:
    doc = p["graph"]
    group = payload.get("group", {})
    rows, generators = graph_relations(doc)
    if len(group.get("generators", ())) != generators:
        return f"{len(group.get('generators', ()))} generators, expected {generators}"
    rank = generators - integer_rank(rows)
    if group.get("free_rank") != rank:
        return f"free rank {group.get('free_rank')}, expected {rank}"
    bad = _chain_ok(group.get("invariant_factors", []))
    if bad:
        return bad
    if p["with_class"]:
        cycles = len(doc["edges"]) - (len(doc["pieces"]) - 1)
        want = {"pieces": [max_class(pc["genus"], len(pc["fibers"]), boundary=pc["boundary"])
                           for pc in doc["pieces"]],
                "cycles": [0] * cycles}
        if payload.get("class") != want or payload.get("maximal") is not True \
                or payload.get("admissible") is not True:
            return "maximal class not reported as maximal and admissible"
    return None


def _check_error(payload, exit_code, p) -> str | None:
    if not isinstance(payload.get("error"), str) or not payload["error"]:
        return "invalid input did not produce an error message"
    return None


def _check_verify(payload, exit_code, p) -> str | None:
    model = p["model"]
    if exit_code == 1:
        # the honest "cannot resolve" verdict must name the step-size limit
        if "step" not in str(payload.get("error", "")).lower():
            return "exit 1 without naming the step-size limit"
        return None
    if payload.get("pass") is not True or payload.get("model") != model:
        return f"{model} did not pass"
    if model == "torus-destruction":
        orbits = payload.get("orbits", [])
        if payload.get("lambda") != p["lam"] or [o.get("floquet") for o in orbits] != list(FLOQUET_SIGNS):
            return f"Floquet signs {[o.get('floquet') for o in orbits]}"
        if any(not o.get("closure_error", 1.0) < CLOSURE_TOL for o in orbits):
            return "an orbit misses the closure tolerance"
        if not payload.get("boundary_max_error", 1.0) < BOUNDARY_TOL:
            return "boundary error above tolerance"
    elif model == "round-handle":
        if not (payload["orbits"][0]["closure_error"] < ROUND_HANDLE_CLOSURE_TOL
                and payload["decay_error"] < DECAY_TOL and payload["order_ratio"] >= MIN_ORDER_RATIO):
            return "round-handle figures outside the pinned tolerances"
    elif model == "glue-demo":
        if payload["intersections_after"]["non_transverse"] != 0 \
                or payload["parity"]["after"] != payload["parity"]["target"] \
                or not payload["suspension_error"] < CLOSURE_TOL:
            return "glue demo left a non-transverse or mis-parity intersection"
    elif model == "collar":
        field = payload["boundary_field"]
        if not payload["min_norm"] > 0 or any(abs(a - b) > BOUNDARY_TOL for a, b in zip(field, (1, 0, 0))):
            return "collar field vanishes or misses its boundary value"
    return None


_CHECKS = {
    "bound_seifert": _check_bound_seifert,
    "bound_graph": _check_bound_graph,
    "bound_sum": _check_bound_sum,
    "plan_seifert": _check_plan_seifert,
    "plan_graph": _check_plan_graph,
    "homology_seifert": _check_homology_seifert,
    "homology_graph": _check_homology_graph,
    "error": _check_error,
    "verify": _check_verify,
}


def check_op(op, exit_code: int, stdout: bytes, stderr: bytes, out_file: bytes | None = None) -> str | None:
    """Why this op's output is wrong, or None when it is correct.

    An op fails on an unexpected exit code, a traceback on stderr, stdout
    that is not exactly one JSON object, a payload failing its reference
    check, or an ``--out`` file that differs from stdout.
    """
    if b"Traceback (most recent call last)" in stderr:
        return "traceback on stderr"
    if exit_code not in op.expect_exit:
        return f"exit {exit_code}, expected one of {op.expect_exit}"
    try:
        payload = json.loads(stdout)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return "stdout is not a single JSON document"
    if not isinstance(payload, dict):
        return "stdout is not a JSON object"
    try:
        reason = _CHECKS[op.check](payload, exit_code, op.params)
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"malformed payload: {type(exc).__name__}: {exc}"
    if reason is None and op.out_path is not None and exit_code == 0 and out_file != stdout:
        return "--out file differs from stdout"
    return reason
