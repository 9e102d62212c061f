"""Command-line front end.

Every invocation writes exactly one JSON document to standard output and
keeps human-readable diagnostics on standard error, so the tool composes
with shell pipelines.  Exit codes: 0 success, 1 invalid input or usage,
2 a verification or consistency check failed.

``plan`` refuses a manifold with a block whose class length g + n + k
exceeds PLAN_MAX_CLASS_LENGTH, or whose blocks' squared class lengths sum
past PLAN_MAX_PAYLOAD; ``homology`` refuses one whose presentation has more
than HOMOLOGY_MAX_GENERATORS generators, or more relations x generators
cells than homology.MAX_PRESENTATION_CELLS (all exit 1); ``bound`` takes
any size.

The environment variable MSFLOW_TOL overrides the orbit-closure tolerance
used by ``verify torus-model``.  OPENBLAS_NUM_THREADS defaults to 1 here,
before numpy loads, so no command pays to start a BLAS thread pool; a value
already set in the environment is kept.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

# set before numpy loads, which starts OpenBLAS's thread pool; msflow makes no BLAS call
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import flowlab
from .errors import InvalidInput, ModelCheckFailed, MsflowError
from .homology import (
    class_is_admissible,
    class_is_maximal,
    expr_to_vector,
    graph_class_vector,
    graph_h1,
    seifert_h1,
)
from .manifolds import (
    GraphManifold,
    HomologyClassExpr,
    SeifertClosed,
    SeifertPiece,
    _brief,
    _decimal_int,
    _load_json,
    _require_int,
    maximal_class,
    parse_graph,
    parse_seifert,
    validate_class,
)
from .planner import (
    bound_graph,
    bound_seifert,
    bound_sum,
    plan_graph,
    plan_seifert,
)


# Size limits of `plan` and `homology`, checked before any work that grows with
# them.  A plan's payload grows with the square of a block's class length
# g + n + k (its lambda, alpha and tau coefficients; k = 1 for a closed
# manifold): a length of 1,601 (g = n = 800) gives 34 MB, one of 2,000 57 MB.
# A graph's blocks add up, so the payload limit, one block at the length
# limit, bounds the sum of their squares.  Homology works on a presentation
# with one column per generator: 2g + n + k per block, plus one per
# independent cycle of a gluing graph.
PLAN_MAX_CLASS_LENGTH = 2_000
PLAN_MAX_PAYLOAD = 4_000_000
HOMOLOGY_MAX_GENERATORS = 50_000


class _UsageError(Exception):
    pass


class _HelpRequested(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> "None":  # type: ignore[override]
        # argparse echoes a bad value whole: cut the message to 200 characters as
        # _brief cuts echoed input, but keep both ends, since the explanation comes
        # before the value and, for a bad choice, the choices after it
        if len(message) > 200:
            message = message[:100] + "..." + message[-97:]
        raise _UsageError(message)

    def print_help(self, file=None) -> None:
        # -h/--help: the usage line becomes the JSON payload, the help text a diagnostic
        raise _HelpRequested(self)


@dataclass(frozen=True)
class CommandOutcome:
    """Result of one CLI invocation: exit code, the JSON payload destined
    for stdout, and diagnostic lines destined for stderr."""

    exit_code: int
    payload: "dict | list | None"
    diagnostics: tuple[str, ...] = ()

    @cached_property
    def stdout(self) -> str:
        """The payload as written to stdout (and by ``plan --out``), encoded once."""
        if self.payload is None:
            return ""
        return json.dumps(self.payload, sort_keys=True, separators=(",", ":")) + "\n"


def _int_flag(what: str):
    """argparse type of an integer flag: past the digit limit a MalformedSpec
    naming `what`, as for --fibers (see _decimal_int)."""
    def parse(text: str) -> int:
        return _decimal_int(text, what)
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="msflow", description="Orbit budgets for non-singular Morse-Smale flows")
    sub = parser.add_subparsers(dest="command", required=True)

    def seifert_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--genus", type=_int_flag("genus"), required=True)
        p.add_argument("--euler", type=_int_flag("euler number"), required=True)
        p.add_argument("--fibers", default="", help="surgery coefficients, e.g. 2/1;3/1;5/1")

    bound = sub.add_parser("bound", help="closed-form orbit bounds")
    bound_sub = bound.add_subparsers(dest="target", required=True)
    seifert_flags(bound_sub.add_parser("seifert"))
    bound_sub.add_parser("graph").add_argument("file")
    bound_sub.add_parser("sum").add_argument("files", nargs="*")

    plan = sub.add_parser("plan", help="replay the construction as a step ledger")
    plan_sub = plan.add_subparsers(dest="target", required=True)
    plan_seifert_p = plan_sub.add_parser("seifert")
    seifert_flags(plan_seifert_p)
    plan_seifert_p.add_argument("--class", dest="class_spec", default="max")
    plan_seifert_p.add_argument("--out")
    plan_graph_p = plan_sub.add_parser("graph")
    plan_graph_p.add_argument("file")
    plan_graph_p.add_argument("--class", dest="class_spec", default="max")
    plan_graph_p.add_argument("--out")

    hom = sub.add_parser("homology", help="first homology and class checks")
    hom_sub = hom.add_subparsers(dest="target", required=True)
    hom_seifert = hom_sub.add_parser("seifert")
    seifert_flags(hom_seifert)
    hom_seifert.add_argument("--class", dest="class_spec", default=None)
    hom_graph = hom_sub.add_parser("graph")
    hom_graph.add_argument("file")
    hom_graph.add_argument("--class", dest="class_spec", default=None)

    verify = sub.add_parser("verify", help="numerical checks of the local models")
    verify_sub = verify.add_subparsers(dest="target", required=True)
    torus = verify_sub.add_parser("torus-model")
    torus.add_argument("--lambda", dest="lam", type=_int_flag("lambda"), required=True)
    torus.add_argument("--dump-csv", dest="dump_csv")
    verify_sub.add_parser("round-handle")
    verify_sub.add_parser("glue-demo")
    verify_sub.add_parser("collar")

    sub.add_parser("selftest", help="run the whole acceptance grid")
    return parser


def _attach_fibers(argv) -> list[str]:
    """Write "--fibers -2/1;3/1" as "--fibers=-2/1;3/1": argparse takes a value
    that starts with "-" and a digit, but is no plain number, for an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--fibers" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"--fibers={arg}"
        else:
            out.append(arg)
    return out


def _manifold_from_args(args) -> SeifertClosed | GraphManifold:
    if args.target != "seifert":
        return parse_graph(_read(args.file))
    text = f"g={args.genus},e={args.euler}"
    if args.fibers:
        text += f",fibers={args.fibers}"
    return parse_seifert(text)


def _blocks(m: SeifertClosed | GraphManifold) -> "tuple[SeifertClosed | SeifertPiece, ...]":
    return m.pieces if isinstance(m, GraphManifold) else (m,)


def _block_size(b: SeifertClosed | SeifertPiece) -> int:
    # g + n + k: lambda, alpha and tau coefficients of one block's class
    return b.genus + b.n + (b.boundary if isinstance(b, SeifertPiece) else 1)


def _check_size(quantity: str, value: int, limit: int) -> None:
    if value > limit:
        # str() refuses ints past the digit limit, so a huge value is named by its bit length
        shown = str(value) if value.bit_length() <= 256 else f"a {value.bit_length()}-bit number"
        raise InvalidInput(f"{quantity} is {shown}; the limit is {limit}")


def _bound(m: SeifertClosed | GraphManifold) -> int:
    return bound_seifert(m.genus, m.euler, m.n) if isinstance(m, SeifertClosed) else bound_graph(m)


def _parse_class_text(text: str) -> HomologyClassExpr:
    """Parse "lambda=1,2;alpha=2,0;tau=3" with empty value lists allowed."""
    doc: dict[str, tuple[int, ...]] = {}
    for part in text.split(";"):
        key, sep, values = part.partition("=")
        key = key.strip()
        if not sep or key not in ("lambda", "alpha", "tau") or key in doc:
            raise _UsageError(f"bad class component {_brief(part)}")
        try:
            doc[key] = tuple(_decimal_int(v, f"{key} coefficient") for v in values.split(",") if v.strip())
        except ValueError:
            raise _UsageError(f"non-integer coefficient in {_brief(part)}") from None
    if "lambda" not in doc or "alpha" not in doc:
        raise _UsageError("a class needs lambda=... and alpha=... components (or 'max')")
    return HomologyClassExpr(doc["lambda"], doc["alpha"], doc.get("tau"))


def _parse_class(m, text: str):
    """Return (class, cycle coordinates) for ``--class``.  A closed manifold's
    class is one expression with cycles None; a graph class is one expression
    per piece plus one coordinate per independent cycle of the gluing graph,
    whose count is edges - pieces + 1 since the graph is connected."""
    rank = None if isinstance(m, SeifertClosed) else len(m.edges) - m.l + 1
    if text == "max":
        return maximal_class(m), (None if rank is None else (0,) * rank)
    if rank is None:
        return _parse_class_text(text), None
    try:
        doc = _load_json(text, "the class JSON")
    except (json.JSONDecodeError, RecursionError) as exc:
        raise _UsageError(f"class is neither 'max' nor valid JSON: {exc}") from None
    if not isinstance(doc, dict) or not set(doc) <= {"pieces", "cycles"}:
        raise _UsageError("graph class JSON must be {\"pieces\": [...], \"cycles\": [...]}")
    pieces = doc.get("pieces", [])
    cycles = doc.get("cycles", [0] * rank)
    if not isinstance(pieces, list) or not isinstance(cycles, list):
        raise _UsageError("graph class 'pieces' and 'cycles' must be lists")
    exprs = tuple(HomologyClassExpr.from_json(p) for p in pieces)
    cycles = tuple(_require_int(v, f"cycle coordinate {k}") for k, v in enumerate(cycles))
    if len(cycles) != rank:
        raise _UsageError(f"expected {rank} cycle coordinates, got {len(cycles)}")
    return exprs, cycles


def _read(path: str) -> str:
    return Path(path).read_text()


def _tolerance() -> float:
    raw = os.environ.get("MSFLOW_TOL")
    if raw is None:
        return flowlab.CLOSURE_TOL
    try:
        tol = float(raw)
    except ValueError:
        raise _UsageError(f"MSFLOW_TOL={_brief(raw)} is not a number") from None
    if not 0 < tol < float("inf"):  # also false for nan, so nan is rejected too
        raise _UsageError(f"MSFLOW_TOL={_brief(raw)} must be positive and finite")
    return tol


def _cmd_bound(args) -> CommandOutcome:
    if args.target == "sum":
        return CommandOutcome(0, {"bound": bound_sum([parse_graph(_read(f)) for f in args.files])})
    return CommandOutcome(0, {"bound": _bound(_manifold_from_args(args))})


def _cmd_plan(args) -> CommandOutcome:
    m = _manifold_from_args(args)
    sizes = [_block_size(b) for b in _blocks(m)]
    _check_size("the class length g + n + k of a block", max(sizes), PLAN_MAX_CLASS_LENGTH)
    _check_size("the sum over blocks of (g + n + k)^2", sum(size * size for size in sizes), PLAN_MAX_PAYLOAD)
    c, cycles = _parse_class(m, args.class_spec)
    for k, v in enumerate(cycles or ()):
        if v != 0:
            raise InvalidInput(f"cycle coordinate {k} is {v}; classes with a nonzero "
                               "cycle component are not realizable by these fields")
    ledger = plan_seifert(m, c) if cycles is None else plan_graph(m, c)
    if class_is_maximal(m, c):
        expected = _bound(m)
        if ledger.total != expected:
            message = (f"construction needs {ledger.total} orbits but the "
                       f"closed-form bound is {expected}")
            return CommandOutcome(2, {"error": message, "total": ledger.total,
                                      "bound": expected}, (message,))
    outcome = CommandOutcome(0, ledger.to_json())
    if args.out:
        Path(args.out).write_text(outcome.stdout)
    return outcome


def _cmd_homology(args) -> CommandOutcome:
    m = _manifold_from_args(args)
    rank = 0 if isinstance(m, SeifertClosed) else len(m.edges) - m.l + 1
    _check_size("the generator count 2g + n + k", sum(b.genus + _block_size(b) for b in _blocks(m)) + rank,
                HOMOLOGY_MAX_GENERATORS)
    if args.class_spec is not None:
        c, cycles = _parse_class(m, args.class_spec)
        validate_class(m, c)
    group = seifert_h1(m) if isinstance(m, SeifertClosed) else graph_h1(m)
    payload: dict = {"group": group.to_json()}
    if args.class_spec is None:
        return CommandOutcome(0, payload)
    if cycles is None:
        vector = expr_to_vector(m, c)
        payload["class"] = c.to_json()
    else:
        vector = graph_class_vector(m, c, cycles)
        payload["class"] = {"pieces": [e.to_json() for e in c], "cycles": list(cycles)}
    payload["maximal"] = class_is_maximal(m, c)
    payload["admissible"] = cycles is None or class_is_admissible(m, vector)
    payload["trivial_in_h1"] = group.is_trivial_class(vector)
    return CommandOutcome(0, payload)


def _dump_orbits_csv(path: str, orbits) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["orbit_b", "time", "t", "x", "z"])
        for (trajectory, _signs), b in zip(orbits, (0.25, 0.75)):
            for time, point in zip(trajectory.times, trajectory.points):
                writer.writerow([b, f"{time:.6f}"] + [f"{v:.12f}" for v in point])


def _cmd_verify(args) -> CommandOutcome:
    if args.target == "torus-model":
        report, orbits = flowlab.verify_torus_model(args.lam, tol=_tolerance())
        if args.dump_csv:
            _dump_orbits_csv(args.dump_csv, orbits)
    elif args.target == "round-handle":
        report = flowlab.verify_round_handle()
    elif args.target == "glue-demo":
        report = flowlab.verify_glue_demo()
    else:
        report = flowlab.verify_collar()
    if report["pass"]:
        return CommandOutcome(0, report)
    return CommandOutcome(2, report, (f"verification failed for {report['model']}",))


def _cmd_selftest() -> CommandOutcome:
    from . import selftest

    results = selftest.run_all()
    payload = {
        "criteria": [
            {"id": r.id, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    diagnostics = tuple(
        f"criterion {r.id} ({r.name}): {'PASS' if r.passed else 'FAIL'} in {r.seconds:.3f}s"
        for r in results)
    return CommandOutcome(0 if payload["passed"] else 2, payload, diagnostics)


def run(argv) -> CommandOutcome:
    """Parse and execute one invocation without touching process state."""
    try:
        args = _build_parser().parse_args(_attach_fibers(argv))
        if args.command == "bound":
            return _cmd_bound(args)
        if args.command == "plan":
            return _cmd_plan(args)
        if args.command == "homology":
            return _cmd_homology(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_selftest()
    except _HelpRequested as exc:
        parser = exc.args[0]
        # one line whatever the terminal width, so the payload's bytes do not depend on COLUMNS
        usage = " ".join(parser.format_usage().split())
        return CommandOutcome(0, {"usage": usage}, (parser.format_help().rstrip(),))
    except _UsageError as exc:
        return CommandOutcome(1, {"error": str(exc)}, (f"usage error: {exc}",))
    except ModelCheckFailed as exc:
        return CommandOutcome(2, {"error": str(exc)}, (str(exc),))
    except (MsflowError, ValueError, OSError) as exc:
        return CommandOutcome(1, {"error": str(exc)}, (str(exc),))


def main(argv=None) -> int:
    outcome = run(sys.argv[1:] if argv is None else argv)
    for line in outcome.diagnostics:
        print(line, file=sys.stderr)
    sys.stdout.write(outcome.stdout)
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
