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

from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .errors import DivergenceError
from .geometry import (
    GridGeometry,
    ScalarImage,
    Stencil,
    box_downsample,
    interp_values,  # noqa: F401 - kept importable here for perfbench's tracer
    warp_image,
)
from .kernels import KernelSpec
from .momenta import (
    KernelGrams,
    MomentumSet,
    TimeMomenta,
    VelocityAssembler,
    control_lattice,
    sparsity,
    sparsity_grad,
)
from . import flow as flowmod

__all__ = [
    "RegistrationConfig",
    "RegistrationResult",
    "EnergyParts",
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

    ``lambda0``/``lambda1`` weight the sparsity prior on zeroth- and
    first-order initial momenta; ``reg_weight`` scales the kernel-norm
    regularizer. The Armijo line search starts each iteration at
    ``armijo_init`` capped by twice the previously accepted step, shrinks
    by ``armijo_shrink`` up to ``max_shrinks`` times, and accepts on the
    ``armijo_slope`` sufficient-decrease rule.
    """

    kernel: KernelSpec
    orders: str = "zeroth_and_first"
    T: int = 10
    lambda0: float = 0.0
    lambda1: float = 0.0
    reg_weight: float = 1.0
    max_iters: int = 100
    armijo_init: float = 1.0
    armijo_shrink: float = 0.5
    armijo_slope: float = 1e-4
    stop_rel_tol: float = 1e-6
    control_stride: int = 2
    sparsity_eps: float = 1e-6
    max_shrinks: int = 40
    pyramid: bool = False

    def __post_init__(self):
        if self.orders not in ORDERS:
            raise ValueError(f"orders must be one of {ORDERS}, got {self.orders!r}")
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.lambda0 < 0 or self.lambda1 < 0 or self.reg_weight < 0:
            raise ValueError("weights must be >= 0")


class EnergyParts(NamedTuple):
    similarity: float
    regularization: float
    sparsity: float
    total: float


@dataclass(frozen=True)
class RegistrationResult:
    """Solution of :func:`optimize`.

    ``stop_reason`` is ``gradient_zero``, ``rel_tol``, ``max_iters`` or
    ``line_search_stalled``; ``converged`` holds for the first two.
    """

    momenta: TimeMomenta
    flow: flowmod.FlowPath
    warped: ScalarImage
    energy_trace: tuple
    iterations_used: int
    converged: bool
    stop_reason: str


def ssd(a: ScalarImage, b: ScalarImage) -> float:
    """Half mean squared intensity difference, (1/2N) sum (a - b)^2."""
    if a.geometry.dims != b.geometry.dims:
        raise ValueError(f"geometry mismatch: {a.geometry.dims} vs {b.geometry.dims}")
    diff = a.values - b.values
    return 0.5 * float(np.mean(diff * diff))


class _Engine:
    """Precomputed operators and the forward/backward energy pipeline.

    In ``zeroth_only`` mode the operators run the zeroth order alone, so
    first-order momenta are ignored and their gradient is zero.
    """

    def __init__(self, cfg: RegistrationConfig, grid: GridGeometry, points: np.ndarray):
        self.cfg = cfg
        self.grid = grid
        self.points = points
        self.first_order = cfg.orders == "zeroth_and_first"
        self.asm = VelocityAssembler(cfg.kernel, grid, points, self.first_order)
        self.grams = KernelGrams(cfg.kernel, points, self.first_order)
        d = grid.ndim
        self.lam = np.array([cfg.lambda0] + [cfg.lambda1] * d)

    # momenta are carried as flat arrays: m0 (T, n, d), m1 (T, n, d, d)

    def zero_theta(self):
        T = self.cfg.T
        n, d = self.points.shape
        return np.zeros((T, n, d)), np.zeros((T, n, d, d))

    def to_time_momenta(self, m0, m1) -> TimeMomenta:
        return TimeMomenta(
            tuple(MomentumSet(self.points, m0[k], m1[k]) for k in range(self.cfg.T))
        )

    def forward(self, m0, m1, I0: ScalarImage, I1: ScalarImage):
        """Energy parts and the state :meth:`backward` consumes: the inverse
        maps, step stencils, final-sample stencil, Gram products and residual."""
        cfg, grid, T = self.cfg, self.grid, self.cfg.T
        velocities = (self.asm.velocity(m0[k], m1[k]) for k in range(T))
        psis, stencils = flowmod._advect_inverse(velocities, grid, T)
        final = Stencil(grid, psis[-1])
        resid = final.gather(I0.values).reshape(grid.dims) - I1.values
        e_sim = 0.5 * float(np.mean(resid * resid))
        # huge but finite candidate momenta overflow here; the caller rejects the non-finite total
        with np.errstate(over="ignore", invalid="ignore"):
            gms = self.grams.products(m0, m1)
            e_reg = cfg.reg_weight * KernelGrams.energy_of(m0, m1, gms) / (2.0 * T)
            e_sparse = sparsity(MomentumSet(self.points, m0[0], m1[0]), self.lam, cfg.sparsity_eps)
        parts = EnergyParts(e_sim, e_reg, e_sparse, e_sim + e_reg + e_sparse)
        return parts, (psis, stencils, final, gms, resid)

    def backward(self, m0, m1, I0: ScalarImage, state):
        """Exact adjoint of :meth:`forward` at (m0, m1), from its state: (g0, g1)."""
        cfg, grid, T = self.cfg, self.grid, self.cfg.T
        dt = 1.0 / T
        psis, stencils, final, gms, resid = state

        g0, g1 = np.empty_like(m0), np.empty_like(m1)

        # d E_S / d warped, then through the final image interpolation: (N, d)
        psibar = final.point_grad_dot(I0.values, resid.reshape(-1) / grid.node_count)

        scale = cfg.reg_weight / (2.0 * T)
        for k in range(T - 1, -1, -1):
            vbar = -dt * stencils[k].point_grad_dot(psis[k], psibar)
            a0, a1 = self.asm.adjoint(vbar)
            g0[k] = a0 + scale * (2.0 * gms[0][k])
            g1[k] = a1 + scale * (2.0 * gms[1][k])
            if k > 0:
                psibar = stencils[k].splat(psibar)

        s0, s1 = sparsity_grad(MomentumSet(self.points, m0[0], m1[0]), self.lam, cfg.sparsity_eps)
        g0[0] += s0
        g1[0] += s1
        if not self.first_order:
            g1[:] = 0.0
        return g0, g1

    def energy_and_grad(self, m0, m1, I0: ScalarImage, I1: ScalarImage):
        parts, state = self.forward(m0, m1, I0, I1)
        return (parts,) + self.backward(m0, m1, I0, state)


def _make_engine(cfg: RegistrationConfig, grid: GridGeometry, points=None) -> _Engine:
    if points is None:
        points = control_lattice(grid, cfg.control_stride)
    return _Engine(cfg, grid, np.asarray(points, float))


def _engine_for(cfg: RegistrationConfig, tm: TimeMomenta, I0: ScalarImage, I1: ScalarImage):
    """Checked engine at the state's control points, and the state as (m0, m1) arrays."""
    _check_pair_geometry(I0, I1)
    if tm.T != cfg.T:
        raise ValueError(f"momenta have T={tm.T} but config says T={cfg.T}")
    eng = _make_engine(cfg, I0.geometry, tm.points)
    return eng, np.stack([ms.m0 for ms in tm.steps]), np.stack([ms.m1 for ms in tm.steps])


def total_energy(cfg: RegistrationConfig, tm: TimeMomenta, I0: ScalarImage, I1: ScalarImage) -> EnergyParts:
    """Energy parts (similarity, regularization, sparsity, total) of a state."""
    eng, m0, m1 = _engine_for(cfg, tm, I0, I1)
    return eng.forward(m0, m1, I0, I1)[0]


def gradient(cfg: RegistrationConfig, tm: TimeMomenta, I0: ScalarImage, I1: ScalarImage) -> TimeMomenta:
    """Exact gradient of :func:`total_energy` in TimeMomenta shape."""
    eng, m0, m1 = _engine_for(cfg, tm, I0, I1)
    _, g0, g1 = eng.energy_and_grad(m0, m1, I0, I1)
    return eng.to_time_momenta(g0, g1)


def _check_pair_geometry(I0: ScalarImage, I1: ScalarImage) -> None:
    if I0.geometry.dims != I1.geometry.dims:
        raise ValueError(f"image dims differ: {I0.geometry.dims} vs {I1.geometry.dims}")


def _descend(eng: _Engine, m0, m1, I0: ScalarImage, I1: ScalarImage):
    """Armijo gradient descent from the given momenta.

    Returns the final momenta, the trace, the iteration count, the stop
    reason and the forward state of the final momenta. The accepted
    candidate's state feeds the next gradient, and each state is dropped
    once spent or rejected, so at most one is alive."""
    cfg = eng.cfg
    parts, state = eng.forward(m0, m1, I0, I1)
    if not np.isfinite(parts.total):
        raise DivergenceError("energy non-finite at initialization")
    trace = [parts]
    stop_reason = "max_iters"
    iterations = 0
    alpha_prev = cfg.armijo_init

    for _ in range(cfg.max_iters):
        g0, g1 = eng.backward(m0, m1, I0, state)
        gnorm2 = float(np.sum(g0 * g0) + np.sum(g1 * g1))
        if gnorm2 <= 1e-30:
            stop_reason = "gradient_zero"
            break
        alpha = min(cfg.armijo_init, 2.0 * alpha_prev)
        state = None
        for _shrink in range(cfg.max_shrinks + 1):
            with np.errstate(over="ignore"):
                c0 = m0 - alpha * g0
                c1 = m1 - alpha * g1
            cand = None
            if np.all(np.isfinite(c0)) and np.all(np.isfinite(c1)):
                try:
                    cand, state = eng.forward(c0, c1, I0, I1)
                except DivergenceError:
                    pass
            if cand is not None and cand.total <= parts.total - cfg.armijo_slope * alpha * gnorm2:
                break
            state = None
            alpha *= cfg.armijo_shrink
        else:
            stop_reason = "line_search_stalled"
            state = eng.forward(m0, m1, I0, I1)[1]
            break
        m0, m1, parts = c0, c1, cand
        alpha_prev = alpha
        trace.append(cand)
        iterations += 1
        if len(trace) > 5:
            past = trace[-6].total
            drop = (past - trace[-1].total) / max(abs(past), 1e-30)
            if drop < cfg.stop_rel_tol:
                stop_reason = "rel_tol"
                break
    return m0, m1, trace, iterations, stop_reason, state


def _prolong_momenta(coarse_pts, cm0, cm1, fine_grid: GridGeometry, stride: int):
    """Copy per-step coarse momenta (T, n_c, ...) onto the fine control lattice.

    The fine lattice is ``control_lattice(fine_grid, stride)``. Matching
    runs in its index space: a coarse point lands on the nearest fine
    control node, which lies within half a lattice step on every axis;
    points more than half a step outside the lattice are dropped.
    """
    shape = tuple(len(range(0, n, stride)) for n in fine_grid.dims)
    idx = np.rint(fine_grid.to_index(coarse_pts) / stride).astype(int)
    keep = np.all((idx >= 0) & (idx < shape), axis=1)
    flat = np.ravel_multi_index(tuple(idx[keep].T), shape)
    m0 = np.zeros((cm0.shape[0], int(np.prod(shape))) + cm0.shape[2:])
    m1 = np.zeros(m0.shape + cm0.shape[2:])
    m0[:, flat], m1[:, flat] = cm0[:, keep], cm1[:, keep]
    return m0, m1


def optimize(cfg: RegistrationConfig, I0: ScalarImage, I1: ScalarImage) -> RegistrationResult:
    """Gradient descent with Armijo backtracking from zero initial momenta.

    Stops when the gradient vanishes (``gradient_zero``), when the
    relative total-energy decrease over 5 accepted iterations falls below
    ``stop_rel_tol`` (``rel_tol``), on ``max_iters``, or when the line
    search stagnates after ``max_shrinks`` shrinks (``line_search_stalled``);
    ``converged`` holds for the first two. With ``cfg.pyramid`` a
    half-resolution solve (box-downsampled images, half the iterations)
    warm-starts the full-resolution descent; the reported trace is the
    fine-level one.
    """
    _check_pair_geometry(I0, I1)
    eng = _make_engine(cfg, I0.geometry)
    m0, m1 = eng.zero_theta()

    if cfg.pyramid:
        coarse_cfg = replace(cfg, pyramid=False, max_iters=max(1, cfg.max_iters // 2))
        c_I0 = box_downsample(I0)
        c_I1 = box_downsample(I1)
        c_eng = _make_engine(coarse_cfg, c_I0.geometry)
        cm0, cm1 = c_eng.zero_theta()
        cm0, cm1 = _descend(c_eng, cm0, cm1, c_I0, c_I1)[:2]
        m0, m1 = _prolong_momenta(c_eng.points, cm0, cm1, I0.geometry, cfg.control_stride)
        if not eng.first_order:
            m1[:] = 0.0

    m0, m1, trace, iterations, stop_reason, state = _descend(eng, m0, m1, I0, I1)
    psis = state[0]
    del state  # drop the stencils before the map copies
    velocities = [eng.asm.velocity(m0[k], m1[k]) for k in range(cfg.T)]
    fp = flowmod._flow_path(velocities, psis, I0.geometry)
    tm = eng.to_time_momenta(m0, m1)
    warped = warp_image(I0, fp.final_inverse)
    return RegistrationResult(
        momenta=tm,
        flow=fp,
        warped=warped,
        energy_trace=tuple(trace),
        iterations_used=iterations,
        converged=stop_reason in ("gradient_zero", "rel_tol"),
        stop_reason=stop_reason,
    )


# --- config (de)serialization used by the CLI -------------------------------


def config_to_dict(cfg: RegistrationConfig) -> dict:
    data = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    k = cfg.kernel
    data["kernel"] = {"family": k.family, "scale": k.scale, "window": k.window}
    return data


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
