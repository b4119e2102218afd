"""Registration energy, its exact discrete gradient, and the optimizer.

The energy couples an SSD similarity term on the warped template, a
per-order kernel-norm regularizer integrated over time, and a smoothed L1
sparsity prior on the initial momenta. Momenta at every timestep are the
free variables (relaxation); gradients are computed as the exact adjoint
of the discrete forward computation - every interpolation, Euler step,
Gram form, and smoothing term is differentiated as implemented, which is
what makes the finite-difference gradient check pass to tight tolerance.
"""
from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .errors import DivergenceError
from .geometry import (
    GridGeometry,
    ScalarImage,
    Stencil,
    box_downsample,
    interp_values,  # noqa: F401 - kept importable here for perfbench's tracer
)
from .kernels import KernelSpec
from .momenta import (
    KernelGrams,
    MomentumSet,
    TimeMomenta,
    VelocityAssembler,
    _SPARSITY_EPS,
    _block,
    _sparsity,
    _sparsity_grad,
    _unblock,
    control_lattice,
)
from . import flow as flowmod

__all__ = [
    "RegistrationConfig",
    "RegistrationResult",
    "EnergyParts",
    "LineSearchStep",
    "ssd",
    "total_energy",
    "gradient",
    "optimize",
    "config_to_dict",
    "config_from_dict",
]

ORDERS = ("zeroth_only", "zeroth_and_first")


@dataclass(frozen=True)
class RegistrationConfig:
    """All solver hyperparameters.

    ``orders`` is ``zeroth_and_first`` or ``zeroth_only``; the latter
    ignores first-order momenta in every energy term, sparsity included,
    and reports their gradient as zero. ``lambda0``/``lambda1`` weight the
    sparsity prior on zeroth- and first-order initial momenta;
    ``reg_weight`` scales the kernel-norm regularizer. The Armijo line
    search and the sparsity smoothing use fixed constants (see
    :func:`optimize`). The counts ``T``, ``max_iters`` and
    ``control_stride`` must be integers; an integral float such as
    ``10.0`` becomes an int.
    """

    kernel: KernelSpec
    orders: str = "zeroth_and_first"
    T: int = 10
    lambda0: float = 0.0
    lambda1: float = 0.0
    reg_weight: float = 1.0
    max_iters: int = 100
    stop_rel_tol: float = 1e-6
    control_stride: int = 2
    pyramid: bool = False

    def __post_init__(self):
        for name in ("T", "max_iters", "control_stride"):
            v = getattr(self, name)
            integral = isinstance(v, numbers.Integral) or (isinstance(v, float) and v.is_integer())
            if isinstance(v, bool) or not integral:
                raise ValueError(f"{name} must be an integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        if self.orders not in ORDERS:
            raise ValueError(f"orders must be one of {ORDERS}, got {self.orders!r}")
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.lambda0 < 0 or self.lambda1 < 0 or self.reg_weight < 0:
            raise ValueError("weights must be >= 0")
        if not self.stop_rel_tol >= 0:
            raise ValueError(f"stop_rel_tol must be >= 0, got {self.stop_rel_tol}")


class EnergyParts(NamedTuple):
    similarity: float
    regularization: float
    sparsity: float
    total: float


class LineSearchStep(NamedTuple):
    """One accepted iterate: its step ``alpha`` and the ``candidates`` tried."""

    alpha: float
    candidates: int


@dataclass(frozen=True)
class RegistrationResult:
    """Solution of :func:`optimize`.

    ``stop_reason`` is ``gradient_zero``, ``rel_tol``, ``max_iters`` or
    ``line_search_stalled``; ``converged`` holds for the first two.
    ``line_search`` holds one :class:`LineSearchStep` per accepted iterate
    of the reported (fine-level) trace; ``iterations_used`` is its length.
    ``forward_passes`` counts the transports the solve ran, pyramid levels
    included: the initial energy, each transported candidate, and the
    recomputed state after a stalled search.
    """

    momenta: TimeMomenta
    flow: flowmod.FlowPath
    warped: ScalarImage
    energy_trace: tuple
    stop_reason: str
    line_search: tuple
    forward_passes: int

    @property
    def iterations_used(self) -> int:
        return len(self.line_search)

    @property
    def converged(self) -> bool:
        return self.stop_reason in ("gradient_zero", "rel_tol")


def ssd(a: ScalarImage, b: ScalarImage) -> float:
    """Half mean squared intensity difference, (1/2N) sum (a - b)^2."""
    if a.geometry.dims != b.geometry.dims:
        raise ValueError(f"geometry mismatch: {a.geometry.dims} vs {b.geometry.dims}")
    diff = a.values - b.values
    return 0.5 * float(np.mean(diff * diff))


class _Engine:
    """Precomputed operators and the forward/backward energy pipeline.

    The momenta of all T steps are one block M of shape (T, n, orders, d):
    ``M[..., 0, :]`` is the zeroth order and ``M[..., 1:, :]`` the
    first-order slots. In ``zeroth_only`` mode the block holds order 0
    alone, so first-order momenta are ignored everywhere, sparsity
    included, and their gradient is zero.

    The engine owns one transport workspace, allocated here. Every
    :meth:`forward` writes its maps and stencils into it, so the state a
    pass returns is valid until the engine's next :meth:`forward`.
    """

    def __init__(self, cfg: RegistrationConfig, grid: GridGeometry, points: np.ndarray):
        self.cfg = cfg
        self.grid = grid
        self.points = points
        d = grid.ndim
        first_order = cfg.orders == "zeroth_and_first"
        self.orders = d + 1 if first_order else 1
        self.asm = VelocityAssembler(cfg.kernel, grid, points, first_order)
        self.grams = KernelGrams(cfg.kernel, points, first_order)
        self.lam = np.array([cfg.lambda0] + [cfg.lambda1] * d, float)[: self.orders]
        self.workspace = flowmod._Workspace(grid, cfg.T)
        self.forward_passes = 0

    def zero_theta(self) -> np.ndarray:
        return np.zeros((self.cfg.T, len(self.points), self.orders, self.grid.ndim))

    def to_time_momenta(self, M) -> TimeMomenta:
        m0, m1 = _unblock(M)
        return TimeMomenta(tuple(MomentumSet(self.points, m0[k], m1[k]) for k in range(self.cfg.T)))

    def forward(self, M, I0: ScalarImage, I1: ScalarImage):
        """Energy parts and the state :meth:`backward` consumes: the inverse
        maps, step stencils, final-sample stencil, Gram products and residual.
        The maps and stencils are views of the workspace, overwritten by the
        next pass."""
        cfg, grid, T, ws = self.cfg, self.grid, self.cfg.T, self.workspace
        self.forward_passes += 1
        psis, stencils = flowmod._advect_inverse((self.asm.velocity(M[k]) for k in range(T)), grid, T, ws)
        final = Stencil(grid, psis[-1], ws.stencil(T))
        resid = final.gather(I0.values).reshape(grid.dims) - I1.values
        e_sim = 0.5 * float(np.mean(resid * resid))
        # huge but finite candidate momenta overflow here; the caller rejects the non-finite total
        with np.errstate(over="ignore", invalid="ignore"):
            gms = self.grams.products(M)
            e_reg = cfg.reg_weight * KernelGrams.energy_of(M, gms) / (2.0 * T)
            e_sparse = _sparsity(M[0], self.lam, _SPARSITY_EPS)
        parts = EnergyParts(e_sim, e_reg, e_sparse, e_sim + e_reg + e_sparse)
        return parts, (psis, stencils, final, gms, resid)

    def backward(self, M, I0: ScalarImage, state) -> np.ndarray:
        """Exact adjoint of :meth:`forward` at M, from its state: the gradient block."""
        cfg, grid, T = self.cfg, self.grid, self.cfg.T
        dt = 1.0 / T
        psis, stencils, final, gms, resid = state
        G = np.empty_like(M)

        # d E_S / d warped, then through the final image interpolation: (N, d)
        psibar = final.point_grad_dot(I0.values, resid.reshape(-1) / grid.node_count)

        scale = cfg.reg_weight / (2.0 * T)
        for k in range(T - 1, -1, -1):
            vbar = -dt * stencils[k].point_grad_dot(psis[k], psibar)
            G[k] = self.asm.adjoint(vbar) + scale * (2.0 * gms[k])
            if k > 0:
                psibar = stencils[k].splat(psibar)

        G[0] += _sparsity_grad(M[0], self.lam, _SPARSITY_EPS)
        return G

    def energy_and_grad(self, M, I0: ScalarImage, I1: ScalarImage):
        parts, state = self.forward(M, I0, I1)
        return parts, self.backward(M, I0, state)


def _make_engine(cfg: RegistrationConfig, grid: GridGeometry, points=None) -> _Engine:
    if points is None:
        points = control_lattice(grid, cfg.control_stride)
    return _Engine(cfg, grid, np.asarray(points, float))


def _engine_for(cfg: RegistrationConfig, tm: TimeMomenta, I0: ScalarImage, I1: ScalarImage):
    """Checked engine at the state's control points, and the state as its momentum block."""
    _check_pair_geometry(I0, I1)
    if tm.T != cfg.T:
        raise ValueError(f"momenta have T={tm.T} but config says T={cfg.T}")
    eng = _make_engine(cfg, I0.geometry, tm.points)
    return eng, np.stack([_block(ms.m0, ms.m1, eng.orders - 1) for ms in tm.steps])


def total_energy(cfg: RegistrationConfig, tm: TimeMomenta, I0: ScalarImage, I1: ScalarImage) -> EnergyParts:
    """Energy parts (similarity, regularization, sparsity, total) of a state."""
    eng, M = _engine_for(cfg, tm, I0, I1)
    return eng.forward(M, I0, I1)[0]


def gradient(cfg: RegistrationConfig, tm: TimeMomenta, I0: ScalarImage, I1: ScalarImage) -> TimeMomenta:
    """Exact gradient of :func:`total_energy` in TimeMomenta shape."""
    eng, M = _engine_for(cfg, tm, I0, I1)
    return eng.to_time_momenta(eng.energy_and_grad(M, I0, I1)[1])


def _check_pair_geometry(I0: ScalarImage, I1: ScalarImage) -> None:
    if I0.geometry.dims != I1.geometry.dims:
        raise ValueError(f"image dims differ: {I0.geometry.dims} vs {I1.geometry.dims}")


# Armijo backtracking with the textbook constants (Nocedal & Wright, *Numerical
# Optimization*, sec. 3.1 and Alg. 3.1): unit first step, sufficient-decrease
# slope c1 = 1e-4, halving; the smallest step tried is 0.5**40, about 9e-13.
_ARMIJO_INIT = 1.0
_ARMIJO_SHRINK = 0.5
_ARMIJO_SLOPE = 1e-4
_MAX_SHRINKS = 40


def _descend(eng: _Engine, M, I0: ScalarImage, I1: ScalarImage):
    """Armijo gradient descent from the momentum block M.

    Returns the final block, the trace, one :class:`LineSearchStep` per
    accepted iterate, the stop reason and the forward state of the final
    momenta. The accepted candidate's state feeds the next gradient, and
    each state is dropped once spent or rejected, so at most one is alive.
    A search starts at the last accepted step if that search shrank, else
    at twice it, capped by ``_ARMIJO_INIT``, so a step the last search just
    found too long is not tried again (Nocedal & Wright, sec. 3.5)."""
    cfg = eng.cfg
    parts, state = eng.forward(M, I0, I1)
    if not np.isfinite(parts.total):
        raise DivergenceError("energy non-finite at initialization")
    trace = [parts]
    steps = []
    stop_reason = "max_iters"
    alpha_prev, shrunk = _ARMIJO_INIT, False

    for _ in range(cfg.max_iters):
        G = eng.backward(M, I0, state)
        gnorm2 = float(np.sum(G * G))
        if gnorm2 <= 1e-30:
            stop_reason = "gradient_zero"
            break
        alpha = alpha_prev if shrunk else min(_ARMIJO_INIT, 2.0 * alpha_prev)
        state = None
        for tried in range(1, _MAX_SHRINKS + 2):
            with np.errstate(over="ignore"):
                C = M - alpha * G
            cand = None
            if np.all(np.isfinite(C)):
                try:
                    cand, state = eng.forward(C, I0, I1)
                except DivergenceError:
                    pass
            if cand is not None and cand.total <= parts.total - _ARMIJO_SLOPE * alpha * gnorm2:
                break
            state = None
            alpha *= _ARMIJO_SHRINK
        else:
            stop_reason = "line_search_stalled"
            state = eng.forward(M, I0, I1)[1]
            break
        M, parts = C, cand
        alpha_prev, shrunk = alpha, tried > 1
        trace.append(cand)
        steps.append(LineSearchStep(alpha, tried))
        if len(trace) > 5:
            past = trace[-6].total
            drop = (past - trace[-1].total) / max(abs(past), 1e-30)
            if drop < cfg.stop_rel_tol:
                stop_reason = "rel_tol"
                break
    return M, trace, steps, stop_reason, state


def _prolong_momenta(coarse_pts, CM, fine_grid: GridGeometry, stride: int):
    """Copy a per-step coarse momentum block (T, n_c, orders, d) onto the fine control lattice.

    The fine lattice is ``control_lattice(fine_grid, stride)``. Matching
    runs in its index space: a coarse point lands on the nearest fine
    control node, which lies within half a lattice step on every axis;
    points more than half a step outside the lattice are dropped.
    """
    shape = tuple(len(range(0, n, stride)) for n in fine_grid.dims)
    idx = np.rint(fine_grid.to_index(coarse_pts) / stride).astype(int)
    keep = np.all((idx >= 0) & (idx < shape), axis=1)
    M = np.zeros((CM.shape[0], int(np.prod(shape))) + CM.shape[2:])
    M[:, np.ravel_multi_index(tuple(idx[keep].T), shape)] = CM[:, keep]
    return M


def optimize(cfg: RegistrationConfig, I0: ScalarImage, I1: ScalarImage) -> RegistrationResult:
    """Gradient descent with Armijo backtracking from zero initial momenta.

    Stops when the gradient vanishes (``gradient_zero``), when the
    relative total-energy decrease over 5 accepted iterations falls below
    ``stop_rel_tol`` (``rel_tol``), on ``max_iters``, or when the line
    search finds no sufficient decrease in ``_MAX_SHRINKS`` shrinks
    (``line_search_stalled``); ``converged`` holds for the first two. The
    line search (``_ARMIJO_*``, ``_MAX_SHRINKS``: the textbook values) and
    the sparsity smoothing (``momenta._SPARSITY_EPS``) are constants, not
    settings. With ``cfg.pyramid`` a half-resolution solve (box-downsampled
    images, half the iterations) warm-starts the full-resolution descent;
    the reported trace is the fine-level one.
    """
    _check_pair_geometry(I0, I1)
    eng = _make_engine(cfg, I0.geometry)
    M = eng.zero_theta()
    coarse_passes = 0

    if cfg.pyramid:
        coarse_cfg = replace(cfg, pyramid=False, max_iters=max(1, cfg.max_iters // 2))
        c_I0 = box_downsample(I0)
        c_I1 = box_downsample(I1)
        c_eng = _make_engine(coarse_cfg, c_I0.geometry)
        CM = _descend(c_eng, c_eng.zero_theta(), c_I0, c_I1)[0]
        coarse_passes = c_eng.forward_passes
        M = _prolong_momenta(c_eng.points, CM, I0.geometry, cfg.control_stride)
        del c_eng  # and with it the coarse workspace

    M, trace, steps, stop_reason, state = _descend(eng, M, I0, I1)
    psis, final = state[0], state[2]
    warped = ScalarImage(I0.geometry, final.gather(I0.values).reshape(I0.geometry.dims))
    # drop the stencil buffers before the map copies; psis keeps the maps
    del state, final
    eng.workspace = None
    velocities = [eng.asm.velocity(M[k]) for k in range(cfg.T)]
    fp = flowmod._flow_path(velocities, psis, I0.geometry)
    return RegistrationResult(
        momenta=eng.to_time_momenta(M),
        flow=fp,
        warped=warped,
        energy_trace=tuple(trace),
        stop_reason=stop_reason,
        line_search=tuple(steps),
        forward_passes=coarse_passes + eng.forward_passes,
    )


# --- config (de)serialization used by the CLI -------------------------------


def config_to_dict(cfg: RegistrationConfig) -> dict:
    return asdict(cfg)


def config_from_dict(data: dict) -> RegistrationConfig:
    data = dict(data)
    kspec = data.pop("kernel")
    kernel = KernelSpec(
        family=kspec["family"],
        scale=float(kspec["scale"]),
        window=int(kspec.get("window", 9)),
    )
    unknown = set(data) - {f.name for f in fields(RegistrationConfig)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return RegistrationConfig(kernel=kernel, **data)
