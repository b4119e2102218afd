"""Registration energy, its exact discrete gradient, and the optimizer.

The energy couples an SSD similarity term on the warped template, a
per-order kernel-norm regularizer integrated over time, and a smoothed L1
sparsity prior on the step-0 momenta ``M[0]``, the first of the T
relaxation steps. Momenta at every timestep are the free variables
(relaxation); gradients are computed as the exact adjoint
of the discrete forward computation - every interpolation, Euler step,
Gram form, and smoothing term is differentiated as implemented, which is
what makes the finite-difference gradient check pass to tight tolerance.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .errors import DivergenceError
from .fileio import _check_keys
from .geometry import (
    GridGeometry,
    ScalarImage,
    _count,
    _flag,
    _real,
    box_downsample,
    interp_values,  # noqa: F401 - perfbench's tests check that the tracer patches it here
    warp_image,
)
from .kernels import KernelSpec
from .momenta import KernelGrams, TimeMomenta, VelocityAssembler, _control_points, control_lattice
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
    sparsity prior on the zeroth- and first-order step-0 momenta ``M[0]``
    (the first of the T relaxation steps);
    ``reg_weight`` scales the kernel-norm regularizer; all three must be
    finite and >= 0, and they and ``stop_rel_tol`` real numbers (not bools),
    stored as floats. ``pyramid`` must be a bool. The Armijo line search and
    the sparsity smoothing use fixed constants (see :func:`optimize`). The
    counts ``T``, ``max_iters`` and ``control_stride`` must be integers >= 1;
    an integral float such as ``10.0`` becomes an int.
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
            count = _count(name, getattr(self, name))
            if count < 1:
                raise ValueError(f"{name} must be >= 1, got {count}")
            object.__setattr__(self, name, count)
        for name in ("lambda0", "lambda1", "reg_weight", "stop_rel_tol"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        _flag("pyramid", self.pyramid)
        if self.orders not in ORDERS:
            raise ValueError(f"orders must be one of {ORDERS}, got {self.orders!r}")
        weights = {"lambda0": self.lambda0, "lambda1": self.lambda1, "reg_weight": self.reg_weight}
        if not all(math.isfinite(w) and w >= 0 for w in weights.values()):
            raise ValueError(f"weights must be finite and >= 0, got {weights}")
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

    ``flow`` holds the two maps at time 1 that :func:`flow.integrate`
    computes for ``momenta``; ``warped`` is the template warped by the inverse.
    ``stop_reason`` is ``gradient_zero``, ``rel_tol``, ``max_iters`` or
    ``line_search_stalled``; ``converged`` holds for the first two.
    ``line_search`` holds one :class:`LineSearchStep` per accepted iterate
    of the reported (fine-level) trace; ``iterations_used`` is its length.
    ``forward_passes`` counts the transports the solve ran, pyramid levels
    included: the initial energy, each transported candidate, and the
    pass rerun at the final momenta after a stalled search.
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
    if a.geometry != b.geometry:
        raise ValueError(f"geometry mismatch: {a.geometry} vs {b.geometry}")
    diff = a.values - b.values
    return 0.5 * float(np.mean(diff * diff))


# The sparsity prior: sum_o lam_o sum_j (sqrt(|M_oj|^2 + eps^2) - eps) over a block
# (orders, d, n) with one weight per order, zeroth order first (in ``zeroth_only``
# mode the block and the weights stop at order 0). Smoothing by the fixed width eps
# keeps it differentiable at 0 and within eps per vector below the plain L1 norm.
_SPARSITY_EPS = 1e-6


def _sparsity(M: np.ndarray, lam: np.ndarray) -> float:
    """The prior of the block M, summed order by order."""
    norms = np.sqrt(np.sum(M**2, axis=-2) + _SPARSITY_EPS**2) - _SPARSITY_EPS
    return float(sum(w * np.sum(norms[o]) for o, w in enumerate(lam)))


def _sparsity_grad(M: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Gradient of :func:`_sparsity`, a block like M."""
    return lam[:, None, None] * M / np.sqrt(np.sum(M**2, axis=-2) + _SPARSITY_EPS**2)[:, None]


class _Engine:
    """Operators on the config's control lattice and the forward/backward energy pipeline of one image pair.

    The momenta of all T steps are one component-major block M of shape
    (T, orders, d, n): ``M[:, 0]`` is the zeroth order and ``M[:, 1:]`` the
    first-order slots, each a (d, n) slab per step. In ``zeroth_only`` mode
    the block holds order 0 alone, so first-order momenta are ignored
    everywhere, sparsity included, and their gradient is zero.

    The engine owns one ``transport``, allocated here, and keeps its last
    pass: :meth:`forward` advects the inverse map and leaves the residual
    ``resid``, which :meth:`backward` consumes and releases; the Gram
    products, each step's velocity and stencil and the odd steps' maps are
    recomputed there, not kept. A forward-only engine (``adjoint=False``)
    keeps three maps instead of the adjoint's T // 2 + 2 (even T) and has
    no :meth:`backward`.
    """

    def __init__(self, cfg: RegistrationConfig, I0: ScalarImage, I1: ScalarImage, adjoint: bool = True):
        if I0.geometry != I1.geometry:
            raise ValueError(f"image geometries differ: template {I0.geometry} vs reference {I1.geometry}")
        grid = I0.geometry
        self.cfg, self.grid = cfg, grid
        self.I0_row, self.I1_row = I0.values.reshape(1, -1), I1.values.reshape(1, -1)
        self.points = control_lattice(grid, cfg.control_stride)
        d = grid.ndim
        first_order = cfg.orders == "zeroth_and_first"
        self.orders = d + 1 if first_order else 1
        self.asm = VelocityAssembler(cfg.kernel, grid, self.points, first_order)
        self.grams = KernelGrams(cfg.kernel, self.points, first_order)
        self.lam = np.array([cfg.lambda0] + [cfg.lambda1] * d, float)[: self.orders]
        self.transport = flowmod._Transport(grid, cfg.T, adjoint)
        self.forward_passes = 0
        self.resid = None

    def zero_theta(self) -> np.ndarray:
        return np.zeros((self.cfg.T, self.orders, self.grid.ndim, len(self.points)))

    def to_time_momenta(self, M) -> TimeMomenta:
        """Momenta over the block M itself, which becomes read-only; a zeroth-only
        block is first padded with zero slots. Non-finite momenta raise ValueError."""
        if not np.all(np.isfinite(M)):
            raise ValueError("momenta must be finite")
        if self.orders == 1:
            M = np.pad(M, [(0, 0), (0, self.grid.ndim), (0, 0), (0, 0)])
        return TimeMomenta._wrap(_control_points(self.points), M)

    def forward(self, M) -> EnergyParts:
        """Energy parts at M; the pass replaces the last one on the engine."""
        cfg, T = self.cfg, self.cfg.T
        self.forward_passes += 1
        self.resid = None
        self.transport.advect(self.asm.velocity(M[k]) for k in range(T))
        resid = self.transport.final.gather(self.I0_row) - self.I1_row
        e_sim = 0.5 * float(np.mean(resid * resid))
        # huge but finite candidate momenta overflow here; the caller rejects the non-finite total
        with np.errstate(over="ignore", invalid="ignore"):
            e_reg = cfg.reg_weight * self.grams.energy(M) / (2.0 * T)
            e_sparse = _sparsity(M[0], self.lam)
        self.resid = resid
        return EnergyParts(e_sim, e_reg, e_sparse, e_sim + e_reg + e_sparse)

    def backward(self, M, out=None) -> np.ndarray:
        """Exact adjoint at M of the last :meth:`forward`, which ran at M: the
        gradient block, written into ``out`` (a block like M that shares no memory
        with it, else ValueError) or a fresh one. Releases that pass's residual, so
        a pass has one backward, and drops it once the final sample is
        differentiated, before the step loop. The transport's
        :meth:`~flow._Transport.backward` re-synthesises v_k from M[k] for each
        step it locates again (all but step T - 1, whose stencil the pass left),
        so M must be intact until the loop ends; the transport keeps psi_T but
        releases its final-sample stencil. A forward-only engine, a fresh one, one
        whose last forward raised and a second backward after one forward raise
        RuntimeError."""
        if not self.transport.adjoint:
            raise RuntimeError("backward needs an engine built with adjoint=True; this one is forward-only")
        if out is not None and np.shares_memory(out, M):
            raise ValueError("backward re-reads M after the Gram products fill out, so out must not share memory with M")
        if self.resid is None:
            raise RuntimeError("backward needs a completed forward pass that no backward has consumed")
        cfg, grid, T, tr = self.cfg, self.grid, self.cfg.T, self.transport
        resid, self.resid = self.resid, None
        G = self.grams.grad(M, out)
        G *= cfg.reg_weight / (2.0 * T)

        # d E_S / d warped, then through the final image interpolation: (d, N),
        # handed over unnamed so the step loop frees it once step T - 1 is done
        steps = tr.backward(lambda k: self.asm.velocity(M[k]),
                            tr.final.point_grad_dot(self.I0_row, resid / grid.node_count))
        del resid
        for k, vbar in steps:
            G[k] += self.asm.adjoint(vbar)
            del vbar  # the transport drops its own reference too

        G[0] += _sparsity_grad(M[0], self.lam)
        return G


def _engine_for(cfg: RegistrationConfig, tm: TimeMomenta, I0: ScalarImage, I1: ScalarImage, adjoint: bool):
    """The config's engine for the images, and the state, checked against it, as its momentum block:
    the orders of ``tm.block`` the engine uses, read in place. The engine never writes it, and
    the block's read-only flag makes a stray write raise."""
    eng = _Engine(cfg, I0, I1, adjoint)
    if tm.T != cfg.T or not np.array_equal(tm.points, eng.points):
        raise ValueError(f"momenta must have the config's T={cfg.T} and lie on its control lattice of control_stride="
                         f"{cfg.control_stride} ({len(eng.points)} points); got T={tm.T} and {len(tm.points)} points")
    return eng, tm.block[:, :eng.orders]


def total_energy(cfg: RegistrationConfig, tm: TimeMomenta, I0: ScalarImage, I1: ScalarImage) -> EnergyParts:
    """Energy parts (similarity, regularization, sparsity, total) of a state."""
    eng, M = _engine_for(cfg, tm, I0, I1, adjoint=False)
    return eng.forward(M)


def gradient(cfg: RegistrationConfig, tm: TimeMomenta, I0: ScalarImage, I1: ScalarImage) -> TimeMomenta:
    """Exact gradient of :func:`total_energy` in TimeMomenta shape, over the engine's gradient block."""
    eng, M = _engine_for(cfg, tm, I0, I1, adjoint=True)
    eng.forward(M)
    G = eng.backward(M)
    eng.transport = None  # before a zeroth-only gradient's padded copy
    return eng.to_time_momenta(G)


# Armijo backtracking with the textbook constants (Nocedal & Wright, *Numerical
# Optimization*, sec. 3.1 and Alg. 3.1): unit first step, sufficient-decrease
# slope c1 = 1e-4, halving; the smallest step tried is 0.5**40, about 9e-13.
_ARMIJO_INIT = 1.0
_ARMIJO_SHRINK = 0.5
_ARMIJO_SLOPE = 1e-4
_MAX_SHRINKS = 40


def _descend(eng: _Engine, M):
    """Armijo gradient descent from the momentum block M.

    Returns the final block, the trace, one :class:`LineSearchStep` per
    accepted iterate and the stop reason; the engine's last pass is at the
    final block. The accepted candidate's pass feeds the next gradient.
    A search starts at the last accepted step if that search shrank, else
    at twice it, capped by ``_ARMIJO_INIT``, so a step the last search just
    found too long is not tried again (Nocedal & Wright, sec. 3.5).
    Each gradient after the first lands in the block the last accepted step
    vacated, and each search writes its candidates into a block allocated
    after the backward, so a backward holds two blocks (M and G) and a
    search three (M, G and the candidate). A caller that keeps a reference
    to the start block keeps one block more: once vacated, that block
    becomes the second gradient's and would otherwise be freed after that
    search. A candidate whose momenta are not finite is rejected before it
    is synthesized; one whose transport raises DivergenceError, or whose
    total is not finite (huge momenta can overflow the regularizer or the
    prior, which are evaluated without warnings), is rejected like one that
    fails the Armijo rule. A stalled search runs one more pass at the final
    block."""
    cfg = eng.cfg
    parts = eng.forward(M)
    if not np.isfinite(parts.total):
        raise DivergenceError("energy non-finite at initialization")
    trace = [parts]
    steps = []
    stop_reason = "max_iters"
    alpha_prev, shrunk = _ARMIJO_INIT, False
    spare = None  # the block the last accepted step vacated

    for _ in range(cfg.max_iters):
        G = eng.backward(M, spare)
        C = np.empty_like(M)
        gnorm2 = float(np.sum(np.square(G, out=C)))
        if gnorm2 <= 1e-30:
            stop_reason = "gradient_zero"
            break
        alpha = alpha_prev if shrunk else min(_ARMIJO_INIT, 2.0 * alpha_prev)
        for tried in range(1, _MAX_SHRINKS + 2):
            with np.errstate(over="ignore"):
                # rounds like M - alpha * G, since negation is exact
                np.multiply(G, -alpha, out=C)
                C += M
            cand = None
            if np.all(np.isfinite(C)):
                try:
                    cand = eng.forward(C)
                except DivergenceError:
                    pass
            if cand is not None and cand.total <= parts.total - _ARMIJO_SLOPE * alpha * gnorm2:
                break
            alpha *= _ARMIJO_SHRINK
        else:
            stop_reason = "line_search_stalled"
            eng.forward(M)
            break
        M, spare, parts = C, M, cand
        del G, C  # G's block goes before the next backward fills spare
        alpha_prev, shrunk = alpha, tried > 1
        trace.append(cand)
        steps.append(LineSearchStep(alpha, tried))
        if len(trace) > 5:
            past = trace[-6].total
            drop = (past - trace[-1].total) / max(abs(past), 1e-30)
            if drop < cfg.stop_rel_tol:
                stop_reason = "rel_tol"
                break
    return M, trace, steps, stop_reason


def _prolong_momenta(coarse_pts, CM, fine_grid: GridGeometry, stride: int):
    """Copy a per-step coarse momentum block (T, orders, d, n_c) onto the fine control lattice.

    The fine lattice is ``control_lattice(fine_grid, stride)``. Matching
    runs in its index space: a coarse point lands on the nearest fine
    control node, which lies within half a lattice step on every axis;
    points more than half a step outside the lattice are dropped.
    """
    shape = tuple(len(range(0, n, stride)) for n in fine_grid.dims)
    idx = np.rint(fine_grid.to_index(coarse_pts) / stride).astype(int)
    keep = np.all((idx >= 0) & (idx < shape), axis=1)
    M = np.zeros(CM.shape[:-1] + (math.prod(shape),))
    M[..., np.ravel_multi_index(tuple(idx[keep].T), shape)] = CM[..., keep]
    return M


def _warm_start(eng: _Engine, I0: ScalarImage, I1: ScalarImage):
    """The pyramid's start block for the fine engine ``eng``: a half-resolution
    solve (box-downsampled images, half the iterations) prolonged onto its
    control lattice. The coarse passes count on ``eng``; the coarse engine and
    its block are gone when this returns."""
    cfg = eng.cfg
    coarse_cfg = replace(cfg, pyramid=False, max_iters=max(1, cfg.max_iters // 2))
    c_eng = _Engine(coarse_cfg, box_downsample(I0), box_downsample(I1))
    CM = _descend(c_eng, c_eng.zero_theta())[0]
    eng.forward_passes += c_eng.forward_passes
    return _prolong_momenta(c_eng.points, CM, I0.geometry, cfg.control_stride)


def optimize(cfg: RegistrationConfig, I0: ScalarImage, I1: ScalarImage) -> RegistrationResult:
    """Gradient descent with Armijo backtracking from zero initial momenta.

    Stops when the gradient vanishes (``gradient_zero``), when the
    relative total-energy decrease over 5 accepted iterations falls below
    ``stop_rel_tol`` (``rel_tol``), on ``max_iters``, or when the line
    search finds no sufficient decrease in ``_MAX_SHRINKS`` shrinks
    (``line_search_stalled``); ``converged`` holds for the first two. The
    line search (``_ARMIJO_*``, ``_MAX_SHRINKS``: the textbook values) and
    the sparsity smoothing (``_SPARSITY_EPS``) are constants, not
    settings. With ``cfg.pyramid`` a half-resolution solve (box-downsampled
    images, half the iterations) warm-starts the full-resolution descent;
    the reported trace is the fine-level one. The result's inverse map is a
    copy of the last pass's psi_T, and the template is warped through that
    copy; the forward map is an Euler push through the final velocities.
    The transport is dropped first, so no result array shares its memory.
    """
    eng = _Engine(cfg, I0, I1)
    # the start block is handed over, not named here, so the descent can free it once spent
    M, trace, steps, stop_reason = _descend(eng, _warm_start(eng, I0, I1) if cfg.pyramid else eng.zero_theta())
    geom = I0.geometry
    psi_T = eng.transport.inverse_map()
    # drop the last pass and the whole transport before the warped image and the forward push;
    # a backward (a gradient_zero stop) has released the final-sample stencil anyway
    eng.transport = eng.resid = None
    warped = warp_image(I0, psi_T)
    fp = flowmod._flow_path((eng.asm.velocity(M[k]) for k in range(cfg.T)), psi_T, geom, cfg.T)
    return RegistrationResult(
        momenta=eng.to_time_momenta(M),
        flow=fp,
        warped=warped,
        energy_trace=tuple(trace),
        stop_reason=stop_reason,
        line_search=tuple(steps),
        forward_passes=eng.forward_passes,
    )


# --- config (de)serialization used by the CLI -------------------------------


def config_to_dict(cfg: RegistrationConfig) -> dict:
    return asdict(cfg)


def config_from_dict(data: dict) -> RegistrationConfig:
    """The config a parsed JSON document describes; a document of another
    shape, or a missing or unknown key at either level, raises ValueError."""
    _check_keys(data, "config", ("kernel",), [f.name for f in fields(RegistrationConfig)])
    kspec = data["kernel"]
    if not isinstance(kspec, dict):
        raise ValueError(f"config key 'kernel' must be a JSON object, got {type(kspec).__name__}")
    _check_keys(kspec, "kernel", ("family", "scale"), ())
    return RegistrationConfig(**{**data, "kernel": KernelSpec(**kspec)})
