"""Exception types shared across the package.

Callers (the CLI in particular) need to tell apart "the input violated a
mathematical precondition" from "the computation gave up", so the classes
below are deliberately fine-grained.  All of them derive from ValueError so
that casual callers can still catch one thing.
"""

from __future__ import annotations


class LpIsoforgeError(ValueError):
    """Base class for all package-specific errors."""


class DegenerateInputError(LpIsoforgeError):
    """Input violates a strictness assumption (ties in mu, zero mass, ...)."""


class CapExceededError(LpIsoforgeError):
    """A product-space enumeration would exceed the configured atom cap."""


class NoSolutionError(LpIsoforgeError):
    """A closed-form solve has no admissible root (discriminant <= 0, etc.)."""


class InfeasibleMassError(LpIsoforgeError):
    """A matched atom mass fell outside (0, 1]."""


class NewtonDivergenceError(LpIsoforgeError):
    """Damped Newton failed to converge within the iteration budget."""


class SingularJacobianError(LpIsoforgeError):
    """Jacobian singular: an elimination pivot fell below the guard band at the
    working precision, or an exact determinant is zero."""


class SchemaError(LpIsoforgeError):
    """Input from outside the program is malformed: a serialized artifact that
    does not match its declared schema, or a command-line argument."""
