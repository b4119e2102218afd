"""Sensitivity analysis of flows with discontinuous velocity fields.

A trajectory that meets a surface where the velocity switches carries a
jump in its state-transition Jacobian. This module localizes such
crossings, builds the jump (saltation) matrices for transversal crossings
and for sliding contact, and integrates the full fundamental solution
matrix of piecewise-affine test fields. It is a verification toolkit: the
registration pipeline does not route gradients through it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCrossingError, DivergenceError, TangentialCrossingError
from .geometry import DeformationMap, VectorField, interp_values

__all__ = [
    "MovingHyperplane",
    "StaticCircle",
    "AffineVelocity",
    "PiecewiseVelocity",
    "CrossingRecord",
    "FundamentalMatrix",
    "detect_crossing",
    "saltation_transversal",
    "saltation_sliding",
    "fundamental_matrix",
    "adjoint_transport",
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


@dataclass(frozen=True)
class AffineVelocity:
    """Time-invariant field v(x) = A x + b."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.matrix, float)
        b = np.asarray(self.offset, float)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or b.shape != (A.shape[0],):
            raise ValueError(f"need square A and matching b, got {A.shape}, {b.shape}")
        object.__setattr__(self, "matrix", A)
        object.__setattr__(self, "offset", b)

    @classmethod
    def constant(cls, v) -> "AffineVelocity":
        v = np.asarray(v, float)
        return cls(np.zeros((v.size, v.size)), v)

    def velocity(self, x) -> np.ndarray:
        return self.matrix @ np.asarray(x, float) + self.offset

    def jacobian(self, x) -> np.ndarray:
        return self.matrix


@dataclass(frozen=True)
class PiecewiseVelocity:
    """Affine pieces selected by the sign pattern of the boundary level sets.

    ``pieces`` maps sign tuples (one entry in {-1, +1} per boundary) to
    affine fields. Points exactly on a boundary (H == 0) resolve to the
    positive side.
    """

    boundaries: tuple
    pieces: dict

    def __post_init__(self):
        object.__setattr__(self, "boundaries", tuple(self.boundaries))
        object.__setattr__(self, "pieces", dict(self.pieces))
        want = len(self.boundaries)
        for signs in self.pieces:
            if len(signs) != want or any(s not in (-1, 1) for s in signs):
                raise ValueError(f"piece key {signs} must hold one of -1/+1 per boundary")

    def signs_at(self, t: float, x) -> tuple:
        return tuple(1 if b.h(t, x) >= 0 else -1 for b in self.boundaries)

    def piece(self, signs: tuple) -> AffineVelocity:
        try:
            return self.pieces[tuple(signs)]
        except KeyError:
            raise ValueError(f"no field piece declared for sign pattern {signs}") from None

    def velocity(self, t: float, x) -> np.ndarray:
        return self.piece(self.signs_at(t, x)).velocity(x)


@dataclass(frozen=True)
class CrossingRecord:
    time: float
    point: np.ndarray
    saltation: np.ndarray


@dataclass(frozen=True)
class FundamentalMatrix:
    """State-transition Jacobian of the flow plus its crossing history."""

    value: np.ndarray
    crossings: tuple

    def __post_init__(self):
        if not np.all(np.isfinite(self.value)):
            raise ValueError("fundamental matrix must be finite")
        object.__setattr__(self, "crossings", tuple(self.crossings))


def detect_crossing(xa, xb, ta: float, tb: float, boundary):
    """Locate where the segment (ta, xa) -> (tb, xb) meets the boundary.

    Bisects H along the linear interpolant to |H| < 1e-10 and returns
    (t1, x1), or None when both endpoints lie strictly on the same side.
    An endpoint already on the boundary makes the crossing ill-posed.
    """
    if not tb > ta:
        raise ValueError(f"need tb > ta, got {ta} >= {tb}")
    xa = np.asarray(xa, float)
    xb = np.asarray(xb, float)
    ha = boundary.h(ta, xa)
    hb = boundary.h(tb, xb)
    if abs(ha) < _H_TOL or abs(hb) < _H_TOL:
        raise DegenerateCrossingError(
            f"grazing contact: |H| = {min(abs(ha), abs(hb)):.3e} at a segment endpoint"
        )
    if (ha > 0) == (hb > 0):
        return None
    lo, hi = 0.0, 1.0
    h_lo = ha
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        xm = xa + mid * (xb - xa)
        tm = ta + mid * (tb - ta)
        hm = boundary.h(tm, xm)
        if abs(hm) < _H_TOL:
            return tm, xm
        if (hm > 0) == (h_lo > 0):
            lo, h_lo = mid, hm
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    return ta + mid * (tb - ta), xa + mid * (xb - xa)


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


def _checked(compute, what: str, t: float | None = None):
    """``compute()``; a non-finite result, such as an overflowing product,
    raises DivergenceError naming ``what`` (and the time t) instead of warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = compute()
    if not np.all(np.isfinite(out)):
        raise DivergenceError(f"{what} non-finite" + ("" if t is None else f" at t = {t:.6f}"))
    return out


def _euler_step(M, h: float, Dv, t: float):
    """One explicit Euler step of dM/dt = Dv M, ending at time t."""
    return _checked(lambda: M + h * (Dv @ M), "fundamental matrix", t)


def fundamental_matrix(field, x0, t: float, boundaries=(), step: float = 1e-3) -> FundamentalMatrix:
    """Integrate the flow and its state-transition Jacobian from x0 to time t.

    ``field`` is an AffineVelocity or a PiecewiseVelocity; ``boundaries``
    extends or replaces the field's own switching surfaces. Smooth stretches
    follow dM/dt = Dv M by explicit Euler with the given step; each detected
    crossing multiplies in the appropriate saltation matrix (sliding when
    the boundary is flagged, transversal otherwise) and is recorded.
    ``t`` must be finite and >= 0 and ``step`` finite and > 0. A non-finite
    trajectory or matrix raises DivergenceError.
    """
    if not (np.isfinite(t) and t >= 0 and np.isfinite(step) and step > 0):
        raise ValueError(f"need a finite t >= 0 and step > 0, got t = {t}, step = {step}")
    x = np.asarray(x0, float).copy()
    d = x.size
    if isinstance(field, AffineVelocity):
        field = PiecewiseVelocity((), {(): field})
    bounds = tuple(boundaries) if boundaries else field.boundaries
    if bounds and not field.boundaries:
        raise ValueError("boundaries supplied but the field declares no pieces for them")

    M = np.eye(d)
    crossings = []
    signs = list(field.signs_at(0.0, x))
    sliding_on = None
    now = 0.0
    while now < t - 1e-15:
        dt = min(step, t - now)
        piece = field.piece(tuple(signs))
        # an overflow makes x_next (or, through Dv, M) non-finite; both are checked
        with np.errstate(over="ignore", invalid="ignore"):
            if sliding_on is not None:
                nvec = bounds[sliding_on].unit_normal(now, x)
                P = np.eye(d) - np.outer(nvec, nvec)
                v = P @ piece.velocity(x)
                Dv = P @ piece.jacobian(x)
            else:
                v = piece.velocity(x)
                Dv = piece.jacobian(x)
            x_next = x + dt * v
        t_next = now + dt
        if not np.all(np.isfinite(x_next)):
            raise DivergenceError(f"trajectory non-finite at t = {t_next:.6f}")

        hit = None
        for bi, b in enumerate(bounds):
            if bi == sliding_on:
                continue
            ha = b.h(now, x)
            if abs(ha) < _H_TOL:
                # just left this boundary; no new crossing within the segment
                continue
            hb = b.h(t_next, x_next)
            if abs(hb) < _H_TOL:
                # the step lands on the boundary: the crossing is the endpoint
                found = (t_next, x_next)
            elif (ha > 0) != (hb > 0):
                found = detect_crossing(x, x_next, now, t_next, b)
            else:
                found = None
            if found is not None and (hit is None or found[0] < hit[0]):
                hit = (found[0], found[1], bi)

        if hit is None:
            M = _euler_step(M, dt, Dv, t_next)
            x, now = x_next, t_next
            continue

        t1, x1, bi = hit
        M = _euler_step(M, t1 - now, Dv, t1)
        b = bounds[bi]
        nvec = b.unit_normal(t1, x1)
        new_signs = list(signs)
        new_signs[bi] = -signs[bi]
        if b.sliding:
            S = saltation_sliding(nvec)
            sliding_on = bi
        else:
            # a non-finite velocity makes the saltation matrix raise DivergenceError
            with np.errstate(over="ignore", invalid="ignore"):
                v_minus = piece.velocity(x1) if sliding_on is None else v
                v_plus = field.piece(tuple(new_signs)).velocity(x1)
            S = saltation_transversal(v_minus, v_plus, nvec, b.dh_dt(t1, x1))
            signs = new_signs
        M = _checked(lambda: S @ M, "fundamental matrix", t1)
        crossings.append(CrossingRecord(t1, x1, S))
        x, now = x1, t1

    return FundamentalMatrix(M, tuple(crossings))


def adjoint_transport(dphi, inv_map: DeformationMap, v: VectorField) -> VectorField:
    """Transport a field through a deformation: w(x) = (Dphi v)(phi^{-1}(x)).

    ``dphi`` is either a single (d, d) matrix or one matrix per node with
    shape ``dims + (d, d)``. The deformation is supplied through its inverse
    map, which is what the composition evaluates.
    """
    if inv_map.direction != "inverse":
        raise ValueError("adjoint transport needs the inverse-direction map")
    geom = v.geometry
    if inv_map.geometry.dims != geom.dims:
        raise ValueError("map and field geometries must share dims")
    dphi = np.asarray(dphi, float)
    d = geom.ndim
    if dphi.shape == (d, d):
        u = np.einsum("ab,...b->...a", dphi, v.vectors)
    elif dphi.shape == geom.dims + (d, d):
        u = np.einsum("...ab,...b->...a", dphi, v.vectors)
    else:
        raise ValueError(f"dphi shape {dphi.shape} is neither ({d},{d}) nor dims+({d},{d})")
    w = interp_values(u, geom, inv_map.targets)
    return VectorField(geom, w)
