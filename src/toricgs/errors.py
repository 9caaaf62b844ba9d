"""Exception hierarchy for toricgs.

Every failure mode raised by the library derives from :class:`ToricGSError`,
so callers (including the CLI dispatcher) can distinguish validation problems
(bad input data) from numerical failures (a solver that did not reach its
tolerance).
"""

from __future__ import annotations


class ToricGSError(Exception):
    """Base class for all toricgs errors."""


# ---------------------------------------------------------------------------
# Input validation errors (CLI exit code 2)
# ---------------------------------------------------------------------------


class ValidationError(ToricGSError):
    """Input data violates a structural precondition."""


class PolytopeError(ValidationError):
    """A polytope construction failed."""


class Unbounded(PolytopeError):
    """The facet system has a nontrivial recession cone."""


class OriginNotInterior(PolytopeError):
    """The origin is not strictly interior to the polytope."""


class DegenerateFacet(PolytopeError):
    """A facet is redundant, loose, or has a non-positive label.

    Carries the offending facet index when known.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class LowerDimensional(PolytopeError):
    """The input does not span the ambient space."""


class ZeroVector(ValidationError):
    """A direction/valuation vector must be nonzero."""


class PositivityViolated(ValidationError):
    """A weight function is not strictly positive on the polytope."""


class NonConvexInput(ValidationError):
    """A discrete potential fails the convexity check."""


class SchemaViolation(ValidationError):
    """A JSON input does not match its schema.

    ``pointer`` is a JSON pointer to the offending element.
    """

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(message)
        self.pointer = pointer


class UnknownCommand(ValidationError):
    """The CLI was asked for a subcommand it does not provide."""


class OverflowGuard(ValidationError):
    """A lattice enumeration would exceed the configured size cap."""


# ---------------------------------------------------------------------------
# Numerical failures (CLI exit code 1)
# ---------------------------------------------------------------------------


class NumericalFailure(ToricGSError):
    """A numerical routine failed to meet its contract."""


class MaxIterations(NumericalFailure):
    """An iterative solver hit its iteration cap without converging."""


class SingularMomentMatrix(NumericalFailure):
    """The second-moment matrix of the polytope is singular."""


class NewtonDiverged(NumericalFailure):
    """A root finder or the shooting solve missed its residual tolerance.

    Carries the residual history for diagnosis (one entry for ``solve_ma``).
    """

    def __init__(self, message: str, history: list | None = None):
        super().__init__(message)
        self.history = history or []


class WindowTooSmall(NumericalFailure):
    """The solver window does not let the gradient reach the polytope ends."""
