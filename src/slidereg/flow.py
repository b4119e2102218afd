"""Time integration of deformation maps.

Forward maps follow an explicit Euler push of material points through the
per-step velocity; inverse maps are transported semi-Lagrangian style, so
the warped template is available directly at grid nodes without a global
map inversion. Velocities are piecewise constant in time over the step.
A flow result keeps only the two maps at time 1, not the ones between.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .geometry import DeformationMap, GridGeometry, Stencil
from .kernels import KernelSpec
from .momenta import TimeMomenta, VelocityAssembler

__all__ = [
    "FlowPath",
    "integrate",
]


@dataclass(frozen=True)
class FlowPath:
    """Forward map ``final`` and inverse map ``final_inverse`` at time 1."""

    final: DeformationMap
    final_inverse: DeformationMap


_MAX_NODES = 2**31  # the transport's int32 stencil base indices address fewer nodes


class _Transport:
    """Semi-Lagrangian transport of the inverse map over T steps on ``grid``,
    the one transport loop, and its exact adjoint.

    ``maps[_slot(k)]`` holds the inverse map psi_k channel-major, shape
    (d, node_count); ``maps[0]`` is the node positions and never changes.
    Step k stages its upwind points ``x - v_k / T`` in psi_{k+1}'s rows,
    locates them and gathers psi_k into those rows. Every transport has two
    stencil buffer sets, each an int32 base index and the (d, node_count)
    fractions (28 bytes per node in 3D): the steps of :meth:`advect`
    overwrite set 0, which ends as ``last``, step T - 1's stencil, and set 1
    holds the ``final`` sample of psi_T. ``adjoint`` only chooses how many
    maps a pass keeps. With it, psi_k has its own map for even k and for
    k = T, and the odd psi_k share one (T // 2 + 2 maps for even T), which
    :meth:`backward` gathers again, as it locates the step stencils again (checkpointing,
    Griewank & Walther, *Evaluating Derivatives*, ch. 12). A forward-only
    transport keeps three maps, psi_0 and two that later steps alternate
    between (no step reads a map older than its predecessor), and refuses
    :meth:`backward`. An owner that keeps the transport across passes
    allocates it once; each :meth:`advect` overwrites what the last one
    wrote, and its maps, ``last`` and ``final`` stay valid until the next,
    but for a backward, which releases both stencils; psi_T's map stays.
    Base indices are int32, so a grid of ``_MAX_NODES`` nodes or more is
    refused before anything is allocated.
    """

    def __init__(self, grid: GridGeometry, T: int, adjoint: bool = True):
        d, n = grid.ndim, grid.node_count
        if n >= _MAX_NODES:
            raise ValueError(f"the transport indexes nodes as int32; a grid of {n} nodes needs fewer than {_MAX_NODES}")
        self.grid, self.T, self.dt, self.adjoint = grid, T, 1.0 / T, adjoint
        # the adjoint keeps psi_0, psi_2, ..., psi_T and, for T > 1, one map the odd psi_k share
        self.maps = np.empty(((T + 1) // 2 + 1 + (T > 1) if adjoint else min(T + 1, 3), d, n))
        self.maps[0] = grid.node_positions().reshape(n, d).T
        self.base = np.empty((2, n), np.int32)
        self.frac = np.empty((2, d, n))
        self.final = self.last = None

    def _slot(self, k: int) -> int:
        """Index in ``maps`` of psi_k."""
        if not self.adjoint:
            return 2 - k % 2 if k else 0
        return (k + 1) // 2 if k % 2 == 0 or k == self.T else len(self.maps) - 1

    def _stencil(self, s: int, pts) -> Stencil:
        """The stencil of the (d, node_count) points ``pts`` in buffer set ``s``."""
        return Stencil(self.grid, pts, (self.base[s], self.frac[s]))

    def _upwind(self, k: int, v) -> np.ndarray:
        """Step k's upwind points ``x - v / T`` of the (d, node_count) velocity v,
        staged in psi_{k+1}'s rows."""
        out = self.maps[self._slot(k + 1)]
        np.multiply(v, self.dt, out=out)
        return np.subtract(self.maps[0], out, out=out)

    def _gather(self, k: int, st: Stencil) -> None:
        """psi_{k+1}, sampled from psi_k through step k's stencil ``st`` into its own rows."""
        st.gather(self.maps[self._slot(k)], self.maps[self._slot(k + 1)])

    def advect(self, velocities) -> None:
        """Transport psi_0 through the T per-step node velocities, each
        (d, node_count), drawn from any iterable (a generator will do).

        Step k samples the previous map at the upwind points ``x - v_k / T``
        through one stencil. A non-finite velocity raises
        :class:`DivergenceError` and leaves no pass; finite ones keep every
        map finite, since each gather is a convex combination of the previous
        map's nodes.
        """
        self.final = self.last = None
        st = None
        for k, v in enumerate(velocities):
            if not np.all(np.isfinite(v)):
                raise DivergenceError(f"velocity non-finite at step {k + 1}")
            st = self._stencil(0, self._upwind(k, v))
            self._gather(k, st)
        self.last = st
        self.final = self._stencil(1, self.maps[self._slot(self.T)])

    def _relocate(self, k: int, velocity) -> Stencil:
        """Step k's stencil located again in set 1 - k % 2 from v_k = ``velocity(k)``,
        which is dropped once its points are staged in psi_{k+1}'s rows."""
        return self._stencil(1 - k % 2, self._upwind(k, velocity(k)))

    def backward(self, velocity, psibar):
        """Yield ``(k, vbar)``, the adjoint of step k's velocity, for k = T - 1
        down to 0, through the last pass's steps from ``psibar``, the
        (d, node_count) adjoint of psi_T; ``velocity(k)`` re-synthesises v_k,
        bit for bit as the pass drew it.

        ``final`` and ``last`` are released first, since the loop overwrites
        both stencil sets. Step T - 1 reuses ``last``. The odd maps' slot
        still holds the last odd map, T - 1 or T - 2, when its step comes;
        any earlier odd step k stages step k - 1's points in that slot,
        locates them in the set that does not hold step k's stencil and
        gathers psi_{k-1} into that slot again, which gives psi_k back, and
        step k - 1 then reuses that stencil. Every other step's points are
        staged in psi_{k+1}'s rows, free once step k + 1's adjoint is done,
        so psi_T's are never written. That makes T - 1 lookups and
        (T - 2) // 2 gathers per pass (none for T < 4). A forward-only
        transport, or one whose pass is gone, raises RuntimeError."""
        if not self.adjoint:
            raise RuntimeError("a forward-only transport keeps no step maps to differentiate")
        if self.last is None:
            raise RuntimeError("the transport has no pass to differentiate")
        st, self.final, self.last = self.last, None, None
        for k in range(self.T - 1, -1, -1):
            if st is None:
                st = self._relocate(k, velocity)
            prev = None
            if k % 2 and k + 2 < self.T:
                prev = self._relocate(k - 1, velocity)
                self._gather(k - 1, prev)
            vbar, psibar = self.step_adjoint(k, st, psibar)
            yield k, vbar
            del vbar  # with the caller's, before the next step's scratch
            st = prev

    def step_adjoint(self, k: int, st: Stencil, psibar):
        """Adjoint of step k of the last pass through its stencil ``st``, given
        psi_k's map and ``psibar``, the (d, node_count) adjoint of psi_{k+1}: the
        adjoint of the step's velocity and that of psi_k, or None for k = 0,
        whose map psi_0 is fixed."""
        vbar = st.point_grad_dot(self.maps[self._slot(k)], psibar)
        vbar *= -self.dt
        return vbar, (st.splat(psibar) if k > 0 else None)

    def inverse_map(self) -> DeformationMap:
        """A copy of psi_T, the inverse map at time 1."""
        return DeformationMap(self.grid, self.maps[self._slot(self.T)].T.reshape(self.grid.dims + (-1,)), "inverse")


def _flow_path(velocities, psi_T: DeformationMap, grid: GridGeometry, T: int) -> FlowPath:
    """FlowPath of the inverse map ``psi_T`` and of the forward map at time 1, an
    Euler push of the node positions that keeps one map at a time and draws the
    T (d, node_count) ``velocities`` from any iterable (a generator will do)."""
    dt = 1.0 / T
    phi = grid.node_positions().reshape(-1, grid.ndim).T
    for k, v in enumerate(velocities):
        phi = phi + dt * Stencil(grid, phi).gather(v)
        if not np.all(np.isfinite(phi)):
            raise DivergenceError(f"forward map non-finite after step {k + 1}")
    return FlowPath(DeformationMap(grid, phi.T.reshape(grid.dims + (-1,)), "forward"), psi_T)


def integrate(tm: TimeMomenta, spec: KernelSpec, grid: GridGeometry) -> FlowPath:
    """Integrate the forward and inverse maps at time 1 from per-step momenta on a product lattice.

    Each map draws the velocities from its own generator, so one velocity
    field is held at a time and each is synthesised twice."""
    asm = VelocityAssembler(spec, grid, tm.points)
    transport = _Transport(grid, tm.T, adjoint=False)
    transport.advect(asm.velocity(M) for M in tm.block)
    inverse = transport.inverse_map()
    del transport  # the whole transport goes before the forward push
    return _flow_path((asm.velocity(M) for M in tm.block), inverse, grid, tm.T)
