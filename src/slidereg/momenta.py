"""Control-point momenta and velocity-field synthesis.

A momentum set attaches to each control point one zeroth-order vector and
d first-order vectors (one per derivative slot). The synthesized velocity
is

    v(x) = sum_j [ K(x, x_j) m0_j + sum_i dK/dy_i(x, x_j) m1_{j,i} ],

accumulated only over the discrete kernel footprint of each control point.
Zeroth-order terms translate locally; first-order terms shear, and on the
non-differentiable wendland kernel they produce velocity jumps across the
axis hyperplanes through the control point (sliding).

Both kernel families are products of 1D factors and a slot-i derivative
changes only the axis-i factor, so synthesis, its adjoint and the Gram
apply are Kronecker products of small per-axis matrices over the control
points, which must form a product lattice (see ``_Lattice``): a regular
``control_lattice``, a single point, or a product of non-uniform axes.
The orders of a synthesis share every factor but one, so it is
sum-factorized (Orszag 1980): the lattice axes are contracted last to
first, and a slot's term joins order 0's running sum once its derivative
factor is applied. A 3D first-order synthesis makes 9 axis contractions
instead of the 12 of four separate Kronecker products, and 2 instead of 4
on the first axis, the costliest, since it is contracted last and yields
the full grid. The adjoint makes as many, its 2 on the full grid's last axis.

The operators take momenta as one component-major block (..., orders, d, n):
order 0 first, then the d slots, each order a (d, n) slab of d rows over the
n control points. The lattice axes trail, so every Kronecker apply runs on
contiguous lattice slabs while steps, orders and components ride in front.
:class:`MomentumSet` and :class:`TimeMomenta` compare and hash by identity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .geometry import GridGeometry, _count, _readonly
from .kernels import KernelSpec

__all__ = [
    "MomentumSet",
    "TimeMomenta",
    "VelocityAssembler",
    "KernelGrams",
    "control_lattice",
]


def _control_points(points) -> np.ndarray:
    """``points`` as a read-only (n, d) float copy; another shape or a non-finite entry raises ValueError."""
    pts = np.asarray(points, float)
    if pts.ndim != 2:
        raise ValueError(f"points must be (n, d), got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    return _readonly(pts)


@dataclass(frozen=True, eq=False)
class MomentumSet:
    """Momenta at fixed control points.

    points: (n, d) physical control-point positions.
    m0:     (n, d) zeroth-order vectors.
    m1:     (n, d, d) first-order vectors, ``m1[j, i]`` is the vector in
            derivative slot ``i`` at point ``j``.
    """

    points: np.ndarray
    m0: np.ndarray
    m1: np.ndarray

    def __post_init__(self):
        pts = _control_points(self.points)
        n, d = pts.shape
        m0 = np.asarray(self.m0, float)
        m1 = np.asarray(self.m1, float)
        if m0.shape != (n, d):
            raise ValueError(f"m0 shape {m0.shape} != {(n, d)}")
        if m1.shape != (n, d, d):
            raise ValueError(f"m1 shape {m1.shape} != {(n, d, d)}")
        for name, arr in (("m0", m0), ("m1", m1)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "m0", _readonly(m0))
        object.__setattr__(self, "m1", _readonly(m1))

    @classmethod
    def zeros(cls, points) -> "MomentumSet":
        pts = np.asarray(points, float)
        n, d = pts.shape
        return cls(pts, np.zeros((n, d)), np.zeros((n, d, d)))

    @classmethod
    def _view(cls, points: np.ndarray, M: np.ndarray) -> "MomentumSet":
        """The set whose m0 and m1 are views of the block M (d + 1, d, n) at
        ``points``, neither copied nor checked: the caller vouches for both."""
        ms = cls.__new__(cls)
        for name, arr in (("points", points), ("m0", M[0].T), ("m1", np.moveaxis(M[1:], -1, 0))):
            object.__setattr__(ms, name, arr)
        return ms


@dataclass(frozen=True, eq=False)
class TimeMomenta:
    """A sequence of momentum sets (one per timestep) sharing control points.

    The steps live in one read-only ``block`` of shape (T, d + 1, d, n), laid
    out as the operators take momenta (see the module docstring): ``block[k, 0]``
    holds step k's m0 and ``block[k, 1 + i]`` its slot-i m1, each a (d, n)
    slab. ``steps[k]`` is a :class:`MomentumSet` of read-only views into it,
    and every step shares one read-only ``points``. The constructor checks the
    steps and copies them into a new block, one step at a time; ``zeros``
    allocates the block directly.
    """

    steps: tuple
    block: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        steps = tuple(self.steps)
        if not steps:
            raise ValueError("need at least one timestep")
        ref = steps[0].points
        for k, ms in enumerate(steps[1:], start=1):
            if ms.points.shape != ref.shape or not np.array_equal(ms.points, ref):
                raise ValueError(f"step {k} has different control points than step 0")
        n, d = ref.shape
        block = np.empty((len(steps), d + 1, d, n))
        for k, ms in enumerate(steps):
            block[k, 0], block[k, 1:] = ms.m0.T, np.moveaxis(ms.m1, 0, -1)
        self._hold(ref, block)

    def _hold(self, points: np.ndarray, block: np.ndarray):
        """Keep ``block``, made read-only, and the steps as views into it at the read-only ``points``."""
        block.flags.writeable = False
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "steps", tuple(MomentumSet._view(points, B) for B in block))

    @classmethod
    def _wrap(cls, points: np.ndarray, block: np.ndarray) -> "TimeMomenta":
        """Momenta over ``block`` (T, d + 1, d, n) itself, not a copy, which
        becomes read-only, at ``points`` as :func:`_control_points` returns
        them; the caller vouches that the block is finite."""
        tm = cls.__new__(cls)
        tm._hold(points, block)
        return tm

    @property
    def T(self) -> int:
        return len(self.steps)

    @property
    def points(self) -> np.ndarray:
        return self.steps[0].points

    @classmethod
    def zeros(cls, points, T: int) -> "TimeMomenta":
        if T < 1:
            raise ValueError("need at least one timestep")
        pts = _control_points(points)
        n, d = pts.shape
        return cls._wrap(pts, np.zeros((T, d + 1, d, n)))


def control_lattice(grid: GridGeometry, stride: int = 2) -> np.ndarray:
    """Physical positions of a regular control-point sublattice; ``stride`` is an integer count."""
    stride = _count("stride", stride)
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    axes = [np.arange(0, grid.dims[a], stride) for a in range(grid.ndim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    idx = np.stack([m.ravel() for m in mesh], axis=1)
    return grid.to_physical(idx)


def _pair(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A per-axis factor and its transpose, both contiguous, as :func:`_along` takes them."""
    return np.ascontiguousarray(A), np.ascontiguousarray(A.T)


def _along(A: np.ndarray, A_T: np.ndarray, X: np.ndarray, axis: int) -> np.ndarray:
    """The (p, q) matrix A applied along axis ``axis`` of X, a lattice axis behind
    at least one leading axis. The last axis is right-multiplied by ``A_T``, A's
    contiguous transpose, in one matmul batched over X's first axis, so a slab
    strided only over that axis is read in place; any other axis is
    left-multiplied, batched over the axes in front of it."""
    shape = X.shape[:axis] + (A.shape[0],) + X.shape[axis + 1:]
    if axis == X.ndim - 1:
        return np.matmul(X.reshape(X.shape[0], -1, X.shape[-1]), A_T).reshape(shape)
    return np.matmul(A, X.reshape(math.prod(X.shape[:axis]), X.shape[axis], -1)).reshape(shape)


def _apply(pairs, X: np.ndarray) -> np.ndarray:
    """The Kronecker product of the per-axis factor ``pairs`` (see :func:`_pair`)
    applied to the trailing lattice axes of X: the last axis first, then the
    others in order. Leading axes of X ride along in front."""
    lead = X.ndim - len(pairs)
    X = _along(*pairs[-1], X, X.ndim - 1)
    for a, pair in enumerate(pairs[:-1], start=lead):
        X = _along(*pair, X, a)
    return X


def _per_order(k: list, slot: list) -> list:
    """Factor lists of the zeroth order (``k``) and of each slot i (``slot[i]`` on axis i)."""
    return [k] + [[s if a == i else A for a, A in enumerate(k)] for i, s in enumerate(slot)]


class _Lattice:
    """A control-point set, which must be the C-order product of its per-axis unique
    coordinates as ``control_lattice`` builds it (a single point is one node); a
    scattered set, a repeated point or another order raises ValueError. A
    trailing point axis scatters onto trailing lattice axes and gathers back,
    both by reshapes."""

    def __init__(self, points: np.ndarray):
        pairs = [np.unique(c, return_inverse=True) for c in np.asarray(points, float).T]
        self.axes = [u for u, _ in pairs]
        self.shape = tuple(u.size for u in self.axes)
        flat = np.ravel_multi_index(tuple(inv for _, inv in pairs), self.shape)
        if not np.array_equal(flat, np.arange(math.prod(self.shape))):
            raise ValueError("control points must be the C-order product of their per-axis coordinates, as "
                             "control_lattice builds them; scattered, repeated or reordered points are refused")

    def scatter(self, m: np.ndarray) -> np.ndarray:
        return m.reshape(m.shape[:-1] + self.shape)

    def gather(self, M: np.ndarray) -> np.ndarray:
        return M.reshape(M.shape[:-len(self.shape)] + (-1,))


class VelocityAssembler:
    """Separable synthesis operator from momenta to node velocities.

    Per axis a, an N_a x n_a matrix holds the 1D kernel factor between the
    grid and lattice coordinates, masked to the discrete footprint: the
    window of nodes around the node nearest each control coordinate,
    clipped to the grid. Zeroth-order synthesis is the Kronecker product
    of these; slot i swaps in the partial factor on axis i. The adjoint
    uses the transposes. Momenta come as a block (orders, d, n), order 0
    first, then the slots; with ``first_order=False`` the block holds
    order 0 alone. Velocities are (d, node_count) rows, as
    :class:`~slidereg.geometry.Stencil` takes node data.

    Both directions contract the lattice axes last to first. Synthesis
    keeps a running sum that starts as order 0; at axis a it takes the
    kernel factor, and slot a's term, which has taken the kernel factor on
    every later axis, takes the partial factor and joins it. The adjoint
    branches slot a's term off its running pull-back at axis a through the
    transposed partial factor. In 3D either direction makes 9 contractions
    against 4 x 3 = 12 for the orders one by one, and 2 against 4 on the
    full grid: synthesis's last, on axis 0, and the adjoint's first, on
    axis 2. A block of order 0 alone runs one Kronecker product in that
    order, which in 2D is the order of :func:`_apply`.
    """

    def __init__(self, spec: KernelSpec, grid: GridGeometry, points: np.ndarray, first_order: bool = True):
        self.grid = grid
        self.points = np.asarray(points, float)
        lo, hi = grid.bounds
        if np.any(self.points < lo) or np.any(self.points > hi):
            raise ValueError("control points must lie inside the domain bounding box")
        self.lattice = _Lattice(self.points)
        k, dk = [], []
        for a, u in enumerate(self.lattice.axes):
            nodes = np.arange(grid.dims[a])
            near = np.clip(np.rint((u - grid.origin[a]) / grid.spacing[a]), 0, grid.dims[a] - 1)
            mask = np.abs(nodes[:, None] - near) <= spec.window // 2
            offsets = (grid.origin[a] + grid.spacing[a] * nodes)[:, None] - u
            k.append(_pair(mask * kernels.eval_kernel_many(spec, offsets)))
            if first_order:
                dk.append(_pair(mask * kernels.eval_partial_many(spec, offsets)))
        self.k, self.dk = k, dk

    def velocity(self, M: np.ndarray) -> np.ndarray:
        """Node velocities of the block M as (d, node_count) rows."""
        d = self.grid.ndim
        S, slots = self.lattice.scatter(M[0]), [self.lattice.scatter(m) for m in M[1:]]
        for a in reversed(range(d)):
            S = _along(*self.k[a], S, a + 1)
            if slots:
                S += _along(*self.dk[a], slots.pop(), a + 1)
                slots = [_along(*self.k[a], X, a + 1) for X in slots]
        return S.reshape(d, -1)

    def adjoint(self, vbar: np.ndarray) -> np.ndarray:
        """Pull node-velocity adjoint rows (d, node_count) back to a block (orders, d, n)."""
        d = self.grid.ndim
        U, slots = np.reshape(vbar, (d,) + self.grid.dims), []
        for a in reversed(range(d)):
            k_T = self.k[a][::-1]
            if self.dk:
                slots = [_along(*self.dk[a][::-1], U, a + 1)] + [_along(*k_T, X, a + 1) for X in slots]
            U = _along(*k_T, U, a + 1)
        return np.stack([self.lattice.gather(X) for X in [U] + slots])


class KernelGrams:
    """Separable per-order Gram operators over a fixed control-point set.

    G0[j, k] = K(x_j, x_k); G1[i][j, k] = d^2 K / dx_i dy_i (x_j, x_k).
    Each is a Kronecker product of untruncated n_a x n_a axis factors on
    the points' lattice (slot i swaps in the mixed factor on axis i) and
    is never formed. The energy has no cross-order blocks: it is the sum
    of the per-order quadratic forms. Momenta come as a block
    (..., orders, d, n) with any leading step axes; with
    ``first_order=False`` the block holds order 0 alone and only G0 runs.
    Each :meth:`energy` or :meth:`grad` call applies each order's Gram once,
    one order at a time; nothing is cached.
    """

    def __init__(self, spec: KernelSpec, points: np.ndarray, first_order: bool = True):
        self.lattice = _Lattice(points)
        offsets = [u[:, None] - u for u in self.lattice.axes]
        self.ops = _per_order(
            [_pair(kernels.eval_kernel_many(spec, o)) for o in offsets],
            [_pair(kernels.eval_mixed_many(spec, o)) for o in offsets] if first_order else [],
        )

    def _product(self, M: np.ndarray, o: int) -> np.ndarray:
        """G_o M_o over every leading step and component of order o's slab at once."""
        lat = self.lattice
        return lat.gather(_apply(self.ops[o], lat.scatter(M[..., o, :, :])))

    def energy(self, M: np.ndarray) -> float:
        """Sum of the per-order quadratic forms, order by order: each order's product
        is multiplied by its momenta in place and summed, then dropped before the
        next is formed, so no more than one Gram apply's scratch is held. A zero
        slot adds exactly 0.0, so a block without slots sums bit for bit like one
        with zero slots."""
        e = 0.0
        for o in range(len(self.ops)):
            P = self._product(M, o)
            P *= M[..., o, :, :]
            e += np.sum(P)
            del P  # before the next order's product
        return float(e)

    def grad(self, M: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Gradient of :meth:`energy`: 2 G_o M_o, order by order, in the slabs of
        ``out`` (a fresh block without). Each order's product is formed before its
        slab is written, so ``out`` may be M itself."""
        out = np.empty(M.shape) if out is None else out
        for o in range(len(self.ops)):
            np.multiply(self._product(M, o), 2.0, out=out[..., o, :, :])
        return out
