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
apply are Kronecker products of small per-axis matrices over the lattice
of the control points' unique coordinates: the points themselves for a
regular control lattice, up to n^d nodes for n scattered points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .geometry import GridGeometry, VectorField
from .kernels import KernelSpec

__all__ = [
    "MomentumSet",
    "TimeMomenta",
    "synth_velocity",
    "v_energy",
    "sparsity",
    "directional_kernel_velocity",
    "VelocityAssembler",
    "KernelGrams",
    "control_lattice",
]

_SPARSITY_EPS = 1e-6  # the sparsity prior's smoothing width, in the solver and the public functions


def _readonly(a):
    out = np.array(a, float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
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
        pts = np.asarray(self.points, float)
        if pts.ndim != 2:
            raise ValueError(f"points must be (n, d), got shape {pts.shape}")
        n, d = pts.shape
        m0 = np.asarray(self.m0, float)
        m1 = np.asarray(self.m1, float)
        if m0.shape != (n, d):
            raise ValueError(f"m0 shape {m0.shape} != {(n, d)}")
        if m1.shape != (n, d, d):
            raise ValueError(f"m1 shape {m1.shape} != {(n, d, d)}")
        for name, arr in (("points", pts), ("m0", m0), ("m1", m1)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "points", _readonly(pts))
        object.__setattr__(self, "m0", _readonly(m0))
        object.__setattr__(self, "m1", _readonly(m1))

    @classmethod
    def zeros(cls, points) -> "MomentumSet":
        pts = np.asarray(points, float)
        n, d = pts.shape
        return cls(pts, np.zeros((n, d)), np.zeros((n, d, d)))

    @property
    def ndim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class TimeMomenta:
    """A sequence of momentum sets (one per timestep) sharing control points."""

    steps: tuple

    def __post_init__(self):
        steps = tuple(self.steps)
        if not steps:
            raise ValueError("need at least one timestep")
        ref = steps[0].points
        for k, ms in enumerate(steps[1:], start=1):
            if ms.points.shape != ref.shape or not np.array_equal(ms.points, ref):
                raise ValueError(f"step {k} has different control points than step 0")
        object.__setattr__(self, "steps", steps)

    @property
    def T(self) -> int:
        return len(self.steps)

    @property
    def points(self) -> np.ndarray:
        return self.steps[0].points

    @classmethod
    def zeros(cls, points, T: int) -> "TimeMomenta":
        return cls(tuple(MomentumSet.zeros(points) for _ in range(T)))


def control_lattice(grid: GridGeometry, stride: int = 2) -> np.ndarray:
    """Physical positions of a regular control-point sublattice."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    axes = [np.arange(0, grid.dims[a], stride) for a in range(grid.ndim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    idx = np.stack([m.ravel() for m in mesh], axis=1)
    return grid.to_physical(idx)


def _factor(fn, spec: KernelSpec, offsets: np.ndarray, *slot) -> np.ndarray:
    """Axis factor of a kernel term: ``fn``, a ``kernels.eval_*_many``, at 1D offsets x - y."""
    return fn(spec, *slot, offsets.reshape(-1, 1), np.zeros(1)).reshape(offsets.shape)


def _apply(mats, X: np.ndarray) -> np.ndarray:
    """Kronecker product of ``mats`` applied to X, ``mats[a]`` acting on axis a.

    One batched matrix product per axis on a contiguous reshape; trailing
    axes of X ride along.
    """
    shape = X.shape
    for a, A in enumerate(mats):
        X = np.matmul(A, X.reshape(math.prod(shape[:a]), shape[a], -1))
        shape = shape[:a] + (A.shape[0],) + shape[a + 1:]
    return X.reshape(shape)


def _per_order(k: list, slot: list) -> list:
    """Factor lists of the zeroth order (``k``) and of each slot i (``slot[i]`` on axis i)."""
    return [k] + [[s if a == i else A for a, A in enumerate(k)] for i, s in enumerate(slot)]


def _block(m0: np.ndarray, m1: np.ndarray, slots: int | None = None) -> np.ndarray:
    """Momenta as one block (..., orders, d): order 0, then the first ``slots`` slots of m1 (all by default)."""
    return np.concatenate([m0[..., None, :], m1[..., :slots, :]], axis=-2)


def _unblock(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A block back to (m0, m1); slots past the block's orders read zero."""
    M = np.pad(M, [(0, 0)] * (M.ndim - 2) + [(0, M.shape[-1] + 1 - M.shape[-2]), (0, 0)])
    return M[..., 0, :], M[..., 1:, :]


class _Lattice:
    """Embedding of points in the product of their per-axis unique coordinates.

    Momenta scatter onto the lattice (momenta sharing a point add up) and
    adjoints gather back. Both are reshapes when the points already are
    the lattice in C order, the layout of ``control_lattice``.
    """

    def __init__(self, points: np.ndarray):
        pairs = [np.unique(c, return_inverse=True) for c in np.asarray(points, float).T]
        self.axes = [u for u, _ in pairs]
        self.shape = tuple(u.size for u in self.axes)
        flat = np.ravel_multi_index(tuple(inv for _, inv in pairs), self.shape)
        self.flat = None if np.array_equal(flat, np.arange(np.prod(self.shape))) else flat

    def scatter(self, m: np.ndarray) -> np.ndarray:
        if self.flat is not None:
            out = np.zeros((int(np.prod(self.shape)),) + m.shape[1:])
            np.add.at(out, self.flat, m)
            m = out
        return m.reshape(self.shape + m.shape[1:])

    def gather(self, M: np.ndarray) -> np.ndarray:
        M = M.reshape((-1,) + M.shape[len(self.shape):])
        return M if self.flat is None else M[self.flat]


class VelocityAssembler:
    """Separable synthesis operator from momenta to node velocities.

    Per axis a, an N_a x n_a matrix holds the 1D kernel factor between the
    grid and lattice coordinates, masked to the discrete footprint: the
    window of nodes around the node nearest each control coordinate,
    clipped to the grid. Zeroth-order synthesis is the Kronecker product
    of these; slot i swaps in the partial factor on axis i. The adjoint
    uses the transposes. Momenta come as a block (n, orders, d), order 0
    first, then the slots; with ``first_order=False`` the block holds
    order 0 alone.
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
            k.append(mask * _factor(kernels.eval_kernel_many, spec, offsets))
            if first_order:
                dk.append(mask * _factor(kernels.eval_partial_many, spec, offsets, 0))
        self.ops = _per_order(k, dk)
        # contiguous transposes: batched matmul is slow on transposed views
        self.ops_T = [[np.ascontiguousarray(A.T) for A in mats] for mats in self.ops]

    def velocity(self, M: np.ndarray) -> np.ndarray:
        """Node velocities of the block M, shape (node_count, d)."""
        v = sum(_apply(mats, self.lattice.scatter(M[:, o])) for o, mats in enumerate(self.ops))
        return v.reshape(-1, self.grid.ndim)

    def adjoint(self, vbar: np.ndarray) -> np.ndarray:
        """Pull node-velocity adjoints back to a block (n, orders, d)."""
        V = vbar.reshape(self.grid.dims + (self.grid.ndim,))
        return np.stack([self.lattice.gather(_apply(mats, V)) for mats in self.ops_T], axis=1)


class KernelGrams:
    """Separable per-order Gram operators over a fixed control-point set.

    G0[j, k] = K(x_j, x_k); G1[i][j, k] = d^2 K / dx_i dy_i (x_j, x_k).
    Each is a Kronecker product of untruncated n_a x n_a axis factors on
    the points' lattice (slot i swaps in the mixed factor on axis i) and
    is never formed. The energy has no cross-order blocks: it is the sum
    of the per-order quadratic forms. Momenta come as a block
    (..., n, orders, d) with any leading step axes; with
    ``first_order=False`` the block holds order 0 alone and only G0 runs.
    """

    def __init__(self, spec: KernelSpec, points: np.ndarray, first_order: bool = True):
        self.lattice = _Lattice(points)
        offsets = [u[:, None] - u for u in self.lattice.axes]
        self.ops = _per_order(
            [_factor(kernels.eval_kernel_many, spec, o) for o in offsets],
            [_factor(kernels.eval_mixed_many, spec, o, 0) for o in offsets] if first_order else [],
        )

    def products(self, M: np.ndarray) -> np.ndarray:
        """Block of G0 M_0, then G1_i M_i, shaped like M; leading step axes ride
        along at the back, and each order's product is written into one
        C-contiguous output block."""
        lat, steps = self.lattice, range(M.ndim - 3)
        back = range(-len(steps), 0)
        out = np.empty(M.shape)
        M = np.moveaxis(M, steps, back)
        for o, mats in enumerate(self.ops):
            out[..., o, :] = np.moveaxis(lat.gather(_apply(mats, lat.scatter(M[:, o]))), back, steps)
        return out

    @staticmethod
    def energy_of(M: np.ndarray, products: np.ndarray) -> float:
        """Energy from precomputed :meth:`products` of the same momenta. Order 0 and the
        slots sum apart, so a block without slots sums bit for bit like one with zero slots."""
        return float(np.sum(M[..., :1, :] * products[..., :1, :]) + np.sum(M[..., 1:, :] * products[..., 1:, :]))

    def energy(self, M: np.ndarray) -> float:
        return self.energy_of(M, self.products(M))

    def grad(self, M: np.ndarray) -> np.ndarray:
        """Gradient of :meth:`energy`: 2 G M, order by order."""
        return 2.0 * self.products(M)


def synth_velocity(ms: MomentumSet, spec: KernelSpec, grid: GridGeometry) -> VectorField:
    """Velocity field synthesized from zeroth- and first-order momenta."""
    v = VelocityAssembler(spec, grid, ms.points).velocity(_block(ms.m0, ms.m1))
    return VectorField(grid, v.reshape(grid.dims + (grid.ndim,)))


def v_energy(ms: MomentumSet, spec: KernelSpec) -> float:
    """Sum of per-order squared kernel norms of the synthesized field."""
    return KernelGrams(spec, ms.points).energy(_block(ms.m0, ms.m1))


def _sparsity_weights(lam, eps: float, d: int) -> np.ndarray:
    """``lam`` as d + 1 checked weights, zeroth order first; ``eps`` must be > 0."""
    lam = np.asarray(lam, float)
    if lam.shape != (d + 1,):
        raise ValueError(f"need {d + 1} weights (zeroth + {d} slots), got shape {lam.shape}")
    if np.any(lam < 0) or not eps > 0:
        raise ValueError("weights must be >= 0 and eps > 0")
    return lam


def _sparsity(M: np.ndarray, lam: np.ndarray, eps: float) -> float:
    """The :func:`sparsity` of a block (n, orders, d) with one weight per order, summed order by order."""
    norms = np.sqrt(np.sum(M**2, axis=-1) + eps**2) - eps
    return float(sum(w * np.sum(norms[:, o]) for o, w in enumerate(lam)))


def _sparsity_grad(M: np.ndarray, lam: np.ndarray, eps: float) -> np.ndarray:
    """Gradient of :func:`_sparsity`, a block like M."""
    return lam[:, None] * M / np.sqrt(np.sum(M**2, axis=-1) + eps**2)[..., None]


def sparsity(ms: MomentumSet, lam, eps: float = _SPARSITY_EPS) -> float:
    """Smoothed L1 penalty sum_i lam_i sum_j (sqrt(|m_ij|^2 + eps^2) - eps).

    ``lam`` holds d + 1 weights: index 0 for the zeroth order, 1..d for the
    first-order slots. Smoothing keeps the penalty differentiable at 0.
    The solver applies the same core to its momentum block, where in
    ``zeroth_only`` mode the block and the weights stop at order 0.
    """
    return _sparsity(_block(ms.m0, ms.m1), _sparsity_weights(lam, eps, ms.ndim), eps)


def sparsity_grad(ms: MomentumSet, lam, eps: float = _SPARSITY_EPS) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of :func:`sparsity` with respect to (m0, m1); checks ``lam`` and ``eps`` alike."""
    return _unblock(_sparsity_grad(_block(ms.m0, ms.m1), _sparsity_weights(lam, eps, ms.ndim), eps))


def directional_kernel_velocity(a, w, y, spec: KernelSpec, grid: GridGeometry) -> VectorField:
    """Velocity of a single directional-derivative kernel at point ``y``.

    Returns the field x -> (sum_i w_i dK/dy_i(x, y)) a, which coincides with
    synthesizing first-order momenta m1_i = w_i a and nothing else.
    """
    a = np.asarray(a, float)
    w = np.asarray(w, float)
    y = np.asarray(y, float)
    if not np.isclose(np.linalg.norm(w), 1.0, atol=1e-12):
        raise ValueError(f"direction must be a unit vector, |w| = {np.linalg.norm(w)}")
    n, d = 1, grid.ndim
    m1 = np.zeros((n, d, d))
    for i in range(d):
        m1[0, i, :] = w[i] * a
    ms = MomentumSet(y[None, :], np.zeros((n, d)), m1)
    return synth_velocity(ms, spec, grid)
