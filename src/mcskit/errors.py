"""Exception types raised by mcskit.

Every error carries enough context in its message to act on (which state,
which tolerance, what to raise or widen). All inherit from McskitError so
callers can catch the whole family at an API boundary.
"""

from __future__ import annotations


class McskitError(Exception):
    """Base class for all mcskit errors."""


class LeakageExceeded(McskitError):
    """Raising operators pushed more squared amplitude past the truncation
    edge than the configured tolerance allows."""


class EdgeSupport(McskitError):
    """An operation requires amplitude-free slots at the truncation edge and
    the input state occupies them."""


class Overflow(McskitError):
    """A requested construction exceeds what the representation can hold,
    either double-precision range or the truncation dimension."""


class TailTooHeavy(McskitError):
    """The analytic norm says a non-negligible fraction of the state lives
    above the truncation edge. Raise n_max or shrink the label."""


class UnsupportedOrder(McskitError):
    """No closed form is implemented for this ladder power."""


class DegenerateNorm(McskitError):
    """A normalization constant underflowed to (numerically) zero, so the
    requested state or decomposition is not representable."""


class RouteMismatch(McskitError):
    """Two independent computation routes for the same quantity disagree
    beyond tolerance. Indicates a bug or a too-small truncation, never
    silently ignored."""


class WindowTooNarrow(McskitError):
    """The phase-space transform's integrand still carries weight at the
    state's own reach, where its y window ends, so the field would be
    visibly truncated."""


class BoundaryMass(McskitError):
    """A phase-space field carries non-negligible weight on the grid
    boundary, so integrals over the grid are untrustworthy."""


class QuadratureFailure(McskitError):
    """Adaptive panel refinement hit its budget without converging."""
