"""Reference computations the tests check the package against.

The d-dimensional kernel terms are rebuilt here as products over axes of
the 1D factors of :mod:`slidereg.kernels`, one point pair at a time, the
way a brute-force sum over points needs them. ``jacobian_fd`` is a
per-point central-difference Jacobian of an interpolated map, and ``push``
the forward map's Euler push on node-major arrays. ``block`` and
``unblock`` convert per-point m0 and m1 arrays to the operators'
component-major momentum block and back. ``_per_order`` and ``_apply`` are
the per-order reference for the lattice operators: each order's per-axis
factors, applied as one Kronecker product at a time, the last lattice axis
first and then the others in order.
"""
import numpy as np

from slidereg.geometry import DeformationMap, interp_values
from slidereg.kernels import eval_kernel_many, eval_mixed_many, eval_partial_many
from slidereg.momenta import _along


def _term(spec, X, y, i=None, factor=None) -> np.ndarray:
    """Product over axes of the kernel factor at the offsets of the rows of ``X``
    (or of the single point ``X``) from ``y``, with ``factor`` on axis ``i``."""
    T = np.atleast_2d(np.asarray(X, float)) - np.asarray(y, float)
    out = np.ones(len(T))
    for a in range(T.shape[1]):
        out *= (factor if a == i else eval_kernel_many)(spec, T[:, a])
    return out


def kernel_nd(spec, X, y) -> np.ndarray:
    """K(x, y) for each row x of X."""
    return _term(spec, X, y)


def partial_nd(spec, i, X, y) -> np.ndarray:
    """dK/dy_i (x, y) for each row x of X."""
    return _term(spec, X, y, i, eval_partial_many)


def mixed_nd(spec, i, X, y) -> np.ndarray:
    """d^2 K / dx_i dy_i (x, y) for each row x of X."""
    return _term(spec, X, y, i, eval_mixed_many)


def jacobian_fd(dmap: DeformationMap, x, h: float) -> np.ndarray:
    """Central-difference Jacobian of the interpolated map at a point."""
    x = np.asarray(x, float)
    geom = dmap.geometry
    lo, hi = geom.bounds
    if np.any(x - h < lo) or np.any(x + h > hi):
        raise ValueError(f"point {x.tolist()} closer than h={h} to the domain boundary")
    d = geom.ndim
    J = np.empty((d, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        fp = interp_values(dmap.targets, geom, (x + e)[None, :])[0]
        fm = interp_values(dmap.targets, geom, (x - e)[None, :])[0]
        J[:, i] = (fp - fm) / (2.0 * h)
    return J


def push(velocities, grid, T: int) -> np.ndarray:
    """Targets of the forward map at time 1, shape ``dims + (d,)``: the Euler push
    ``phi + dt * v(phi)`` of the node positions through the (d, node_count)
    velocity rows, each sampled at the node-major points by ``interp_values``."""
    field_shape = grid.dims + (grid.ndim,)
    phi = grid.node_positions().reshape(-1, grid.ndim)
    for v in velocities:
        phi = phi + (1.0 / T) * interp_values(v.T.reshape(field_shape), grid, phi)
    return phi.reshape(field_shape)


def block(m0: np.ndarray, m1: np.ndarray, slots: int | None = None) -> np.ndarray:
    """Momenta m0 (..., n, d) and m1 (..., n, d, d) as one block (..., orders, d, n):
    order 0, then the first ``slots`` slots of m1 (all by default)."""
    M = np.concatenate([m0[..., None, :], m1[..., :slots, :]], axis=-2)
    return np.ascontiguousarray(np.moveaxis(M, -3, -1))


def unblock(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A block (..., orders, d, n) back to m0 (..., n, d) and m1 (..., n, d, d);
    slots past the block's orders read zero."""
    M = np.moveaxis(M, -1, -3)
    M = np.pad(M, [(0, 0)] * (M.ndim - 2) + [(0, M.shape[-1] + 1 - M.shape[-2]), (0, 0)])
    return M[..., 0, :], M[..., 1:, :]


def _apply(pairs, X: np.ndarray) -> np.ndarray:
    """The Kronecker product of the per-axis factor ``pairs`` (each a factor and
    its contiguous transpose) applied to the trailing lattice axes of X: the last
    axis first, then the others in order. Leading axes of X ride along in front."""
    lead = X.ndim - len(pairs)
    X = _along(*pairs[-1], X, X.ndim - 1)
    for a, pair in enumerate(pairs[:-1], start=lead):
        X = _along(*pair, X, a)
    return X


def _per_order(k: list, slot: list) -> list:
    """Factor lists of the zeroth order (``k``) and of each slot i (``slot[i]`` on axis i)."""
    return [k] + [[s if a == i else A for a, A in enumerate(k)] for i, s in enumerate(slot)]
