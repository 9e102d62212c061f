"""Exception taxonomy shared across the package.

Every anticipated failure is a typed subclass of :class:`MsflowError`, and
all but :class:`StepTooLarge` sit under one of three groups, from which the
CLI takes its exit code: :class:`InvalidInput` and :class:`StepRejected`
exit 1, :class:`ModelCheckFailed` exits 2.  StepTooLarge says that these
numerics cannot resolve a model, not that the model is wrong, so it exits 1.
"""

from __future__ import annotations


class MsflowError(Exception):
    """Base class for all package-specific failures."""


class InvalidInput(MsflowError):
    """The input does not describe a valid manifold, class or model."""


class StepRejected(MsflowError):
    """The construction refuses a step; replay names the step and keeps the type."""


class ModelCheckFailed(MsflowError):
    """A numerical verification found the local model wrong."""


class MalformedSpec(InvalidInput):
    """A manifold or class description could not be parsed."""


class InvalidCoefficient(InvalidInput):
    """A surgery coefficient p/q violates p not in {-1, 0, 1}, q != 0, or coprimality."""


class UnmatchedBoundary(InvalidInput):
    """A gluing references a missing boundary slot, or a slot is used != once."""


class BadGluingMatrix(InvalidInput):
    """A gluing matrix is not an integer matrix of determinant +-1."""


class DisconnectedGraph(InvalidInput):
    """The pieces-and-gluings multigraph is not connected."""


class DimensionMismatch(InvalidInput):
    """A homology class vector has the wrong number of coordinates."""


class Alpha0NotAllowed(InvalidInput):
    """A coefficient was assigned to the exceptional orbit gamma_0 where none exists."""


class SinglePiece(InvalidInput):
    """A graph-manifold operation was invoked with fewer than two pieces."""


class ZeroLambda(InvalidInput):
    """The torus chart model is undefined at lambda = 0."""


class UnknownTorus(StepRejected):
    """destroy_torus referenced a torus index outside the current plan."""


class NotFiberOrbit(StepRejected):
    """Wada's operation targeted an orbit that is not a fiber orbit."""


class ZeroCoefficient(StepRejected):
    """Wada's operation targeted an orbit whose assigned coefficient is zero."""


class SaddleInLink(StepRejected):
    """Reversal was asked to treat a saddle orbit as part of the attracting link."""


class AlreadyAdjusted(StepRejected):
    """The final homotopy adjustment was applied twice to one plan."""


class NonFinite(ModelCheckFailed):
    """Integration produced a NaN or infinity."""


class OrbitNotClosed(ModelCheckFailed):
    """A trajectory expected to close up missed its start beyond tolerance."""


class DegenerateOverlap(ModelCheckFailed):
    """Two curves share a positive-length arc, so intersections are not isolated."""


class NothingToRepair(ModelCheckFailed):
    """Transversality repair requested but every crossing is already transverse."""


class RepairFailed(ModelCheckFailed):
    """No candidate displacement produced a transverse configuration."""


class VanishingField(ModelCheckFailed):
    """A collar profile pair vanishes simultaneously somewhere on [0, 1]."""


class StepTooLarge(MsflowError):
    """The integration step lies outside RK4's stability interval for the model's rates."""
