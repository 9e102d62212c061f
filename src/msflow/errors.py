"""Exception taxonomy shared across the package.

Every anticipated failure is a typed subclass of :class:`MsflowError` so
callers (and the CLI) can map failures to exit codes without string
matching.  Input-shaped problems and verification failures are kept as
separate branches.
"""

from __future__ import annotations


class MsflowError(Exception):
    """Base class for all package-specific failures."""


# ---------------------------------------------------------------------------
# Input validation


class MalformedSpec(MsflowError):
    """A manifold or class description could not be parsed."""


class InvalidCoefficient(MsflowError):
    """A surgery coefficient p/q violates p not in {-1, 0, 1}, q != 0, or coprimality."""


class UnmatchedBoundary(MsflowError):
    """A gluing references a missing boundary slot, or a slot is used != once."""


class BadGluingMatrix(MsflowError):
    """A gluing matrix is not an integer matrix of determinant +-1."""


class DisconnectedGraph(MsflowError):
    """The pieces-and-gluings multigraph is not connected."""


class DimensionMismatch(MsflowError):
    """A homology class vector has the wrong number of coordinates."""


class Alpha0NotAllowed(MsflowError):
    """A coefficient was assigned to the exceptional orbit gamma_0 where none exists."""


class SinglePiece(MsflowError):
    """A graph-manifold operation was invoked with fewer than two pieces."""


# ---------------------------------------------------------------------------
# Plan construction


class UnknownTorus(MsflowError):
    """destroy_torus referenced a torus index outside the current plan."""


class NotFiberOrbit(MsflowError):
    """Wada's operation targeted an orbit that is not a fiber orbit."""


class ZeroCoefficient(MsflowError):
    """Wada's operation targeted an orbit whose assigned coefficient is zero."""


class SaddleInLink(MsflowError):
    """Reversal was asked to treat a saddle orbit as part of the attracting link."""


class AlreadyAdjusted(MsflowError):
    """The final homotopy adjustment was applied twice to one plan."""


# ---------------------------------------------------------------------------
# Numerics


class NonFinite(MsflowError):
    """Integration produced a NaN or infinity."""


class ZeroLambda(MsflowError):
    """The torus chart model is undefined at lambda = 0."""


class OrbitNotClosed(MsflowError):
    """A trajectory expected to close up missed its start beyond tolerance."""


class StepTooLarge(MsflowError):
    """The integration step lies outside RK4's stability interval for the model's rates."""


class DegenerateOverlap(MsflowError):
    """Two curves share a positive-length arc, so intersections are not isolated."""


class NothingToRepair(MsflowError):
    """Transversality repair requested but every crossing is already transverse."""


class RepairFailed(MsflowError):
    """No candidate displacement produced a transverse configuration."""


class VanishingField(MsflowError):
    """A collar profile pair vanishes simultaneously somewhere on [0, 1]."""
