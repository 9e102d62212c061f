"""Orbit budgets for non-singular Morse-Smale flows on Seifert and graph
manifolds: closed-form bounds, a replayable construction ledger, first
homology via sparse integer elimination, and numerical checks of the local
models.

The numerical laboratory lives in :mod:`msflow.flowlab` and is imported
lazily so that pure-arithmetic users never pay for numpy.
"""

from .errors import MsflowError
from .manifolds import (
    GraphManifold,
    Gluing,
    HomologyClassExpr,
    SeifertClosed,
    SeifertPiece,
    SurgeryCoefficient,
    graph_from_json,
    maximal_class,
    parse_graph,
    parse_seifert,
    validate_class,
)
from .homology import (
    H1Group,
    IntMatrix,
    class_is_admissible,
    class_is_maximal,
    graph_h1,
    piece_h1,
    seifert_h1,
    smith_normal_form,
    solve_in_image,
)
from .planner import (
    Ledger,
    OrbitRecord,
    bound_graph,
    bound_piece,
    bound_seifert,
    bound_sum,
    check_poincare_hopf,
    plan_graph,
    plan_seifert,
    replay,
)

__version__ = "0.1.0"

__all__ = [
    "MsflowError",
    "GraphManifold",
    "Gluing",
    "HomologyClassExpr",
    "SeifertClosed",
    "SeifertPiece",
    "SurgeryCoefficient",
    "graph_from_json",
    "maximal_class",
    "parse_graph",
    "parse_seifert",
    "validate_class",
    "H1Group",
    "IntMatrix",
    "class_is_admissible",
    "class_is_maximal",
    "graph_h1",
    "piece_h1",
    "seifert_h1",
    "smith_normal_form",
    "solve_in_image",
    "Ledger",
    "OrbitRecord",
    "bound_graph",
    "bound_piece",
    "bound_seifert",
    "bound_sum",
    "check_poincare_hopf",
    "plan_graph",
    "plan_seifert",
    "replay",
    "__version__",
]
