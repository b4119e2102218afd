"""Jump (saltation) matrices of flows with discontinuous velocity fields.

A trajectory that meets a surface where the velocity switches carries a
jump in its state-transition Jacobian. This module holds switching
boundaries (a moving hyperplane, a static circle) that supply the surface
normal n and dH/dt, and the saltation matrices for transversal crossings
and for sliding contact. It is a reference for the jump rule: the
registration pipeline does not use it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, TangentialCrossingError

__all__ = [
    "MovingHyperplane",
    "StaticCircle",
    "saltation_transversal",
    "saltation_sliding",
]

_H_TOL = 1e-10


@dataclass(frozen=True)
class MovingHyperplane:
    """Level set H(t, x) = n.x - (offset + rate t); n must be unit."""

    normal: tuple
    offset: float = 0.0
    rate: float = 0.0
    sliding: bool = False

    def __post_init__(self):
        n = np.asarray(self.normal, float)
        if not np.isclose(np.linalg.norm(n), 1.0, atol=1e-12):
            raise ValueError(f"normal must be unit length, |n| = {np.linalg.norm(n)}")
        object.__setattr__(self, "normal", tuple(n))

    def h(self, t: float, x) -> float:
        return float(np.dot(self.normal, x) - (self.offset + self.rate * t))

    def unit_normal(self, t: float, x) -> np.ndarray:
        return np.asarray(self.normal, float)

    def dh_dt(self, t: float, x) -> float:
        return -self.rate


@dataclass(frozen=True)
class StaticCircle:
    """Level set H(x) = |x - center| - radius."""

    center: tuple
    radius: float
    sliding: bool = False

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    def h(self, t: float, x) -> float:
        return float(np.linalg.norm(np.asarray(x, float) - self.center) - self.radius)

    def unit_normal(self, t: float, x) -> np.ndarray:
        r = np.asarray(x, float) - self.center
        nrm = np.linalg.norm(r)
        if nrm == 0.0:
            raise ValueError("normal undefined at the circle center")
        return r / nrm

    def dh_dt(self, t: float, x) -> float:
        return 0.0


def saltation_transversal(v_minus, v_plus, n, dh_dt: float) -> np.ndarray:
    """Jump matrix for a transversal crossing.

    S = I + (v+ - v-) n^T / (n^T v- + dH/dt). The denominator is the rate
    at which the trajectory approaches the (possibly moving) boundary; it
    must be nonzero for the crossing to be transversal.
    """
    v_minus = np.asarray(v_minus, float)
    v_plus = np.asarray(v_plus, float)
    n = np.asarray(n, float)
    denom = float(_checked(lambda: n @ v_minus + dh_dt, "approach rate n.v- + dH/dt"))
    if abs(denom) <= _H_TOL:
        raise TangentialCrossingError(
            f"transversality fails: n.v- + dH/dt = {denom:.3e}"
        )
    return _checked(lambda: np.eye(n.size) + np.outer(v_plus - v_minus, n) / denom, "saltation matrix")


def saltation_sliding(n) -> np.ndarray:
    """Jump matrix for sliding contact: the tangential projector I - n n^T."""
    n = np.asarray(n, float)
    if not np.isclose(np.linalg.norm(n), 1.0, atol=1e-12):
        raise ValueError(f"normal must be unit length, |n| = {np.linalg.norm(n)}")
    return np.eye(n.size) - np.outer(n, n)


def _checked(compute, what: str):
    """``compute()``; a non-finite result, such as an overflowing product,
    raises DivergenceError naming ``what`` instead of warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = compute()
    if not np.all(np.isfinite(out)):
        raise DivergenceError(f"{what} non-finite")
    return out
