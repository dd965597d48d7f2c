"""Certified local energy windows.

A local state can only take part in the global optimum when its community
energy lies within delta of the community ground energy, where delta bounds
the community's interactions with the rest of the system. The cut-offs that
compute delta live with the decomposition they read, in ``reduction``; this
module holds the window they define.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class Window:
    """Closed energy interval with a scale-relative inclusion tolerance."""

    lo: float
    hi: float
    tol: float

    def contains(self, energy: float) -> bool:
        return self.lo - self.tol <= energy <= self.hi + self.tol

    @property
    def width(self) -> float:
        return self.hi - self.lo


def window(e0: float, delta: float, eta: float) -> Window:
    """The retained interval [e0, e0 + eta * delta]."""
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"eta must lie in [0, 1], got {eta}")
    if delta < 0.0:
        raise DomainError(f"delta must be non-negative, got {delta}")
    tol = 1e-9 * max(1.0, abs(e0) + delta)
    return Window(e0, e0 + eta * delta, tol)
