"""Exception types shared across the package."""

from __future__ import annotations


class FlockstabError(Exception):
    """Base class for all library errors."""


class ConstraintViolation(FlockstabError):
    """A decentralization row sum differs from -1 beyond tolerance."""

    def __init__(self, agent_index: int, which: str, residual: float):
        self.agent_index = agent_index
        self.which = which
        self.residual = residual
        super().__init__(
            f"agent {agent_index}: sum of {which} weights is off by "
            f"{residual:+.3e} (must sum to -1)"
        )


class ShapeError(FlockstabError):
    """Agent parameters carry the wrong offsets for the arrangement."""


class SizeError(FlockstabError):
    """Requested cell count is too small for a well-defined assembly."""


class InvalidTolerance(FlockstabError):
    """A decision tolerance is negative or not finite."""


class DegenerateLeadingCoefficient(FlockstabError):
    """A coefficient row no companion matrix takes: a_d = 0, or a coefficient
    that is not finite; or a mode polynomial whose coefficients overflow."""


class BlowUp(FlockstabError):
    """Integration aborted: state norm exceeded the overflow guard."""

    def __init__(self, time: float, norm: float):
        self.time = time
        self.norm = norm
        super().__init__(f"state norm {norm:.3e} exceeded guard at t={time:.4f}")


class HypothesisViolated(FlockstabError):
    """Branch-tracking hypotheses fail (degenerate curvature data)."""


class BranchAmbiguity(FlockstabError):
    """Two candidate roots are too close to assign branches reliably."""
