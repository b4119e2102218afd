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
from .geometry import DeformationMap, GridGeometry, Stencil, interp_values
from .kernels import KernelSpec
from .momenta import TimeMomenta, VelocityAssembler, _block

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
    Every transport has two stencil buffer sets: set 0, which each step
    overwrites, and set 1, which belongs to the ``final`` sample of psi_T.
    ``adjoint`` only chooses how many maps a pass keeps. With it, every
    psi_k keeps its own map, and :meth:`step_adjoint` locates step k + 1's
    upwind points again, staged by :meth:`upwind` in the transport's
    (d, node_count) ``points`` buffer, into set 0 instead of keeping T step
    stencils: 8d bytes per node and step instead of 17d + 4 (24 instead of
    55 in 3D), plus the one ``points`` block. A forward-only transport keeps
    three maps, psi_0 and two that later steps alternate between (no step
    reads a map older than its predecessor), has no ``points`` and refuses
    :meth:`step_adjoint`. An owner that keeps the transport across passes
    allocates it once; each :meth:`advect` overwrites what the last one
    wrote, and its maps and ``final`` stay valid until the next, a
    backward pass included.
    Base indices are int32, so a grid of ``_MAX_NODES`` nodes or more is
    refused before anything is allocated.
    """

    def __init__(self, grid: GridGeometry, T: int, adjoint: bool = True):
        d, n = grid.ndim, grid.node_count
        if n >= _MAX_NODES:
            raise ValueError(f"the transport indexes nodes as int32; a grid of {n} nodes needs fewer than {_MAX_NODES}")
        self.grid, self.T, self.dt, self.adjoint = grid, T, 1.0 / T, adjoint
        self.field_shape = grid.dims + (d,)
        self.maps = np.empty((T + 1 if adjoint else min(T + 1, 3), d, n))
        self.maps[0] = grid.node_positions().reshape(n, d).T
        self.points = np.empty((d, n)) if adjoint else None
        self.base = np.empty((2, n), np.int32)
        self.frac = np.empty((2, d, n))
        self.unclamped = np.empty((2, d, n), bool)
        self.final = None

    def _slot(self, k: int) -> int:
        """Index in ``maps`` of psi_k."""
        return k if self.adjoint or k == 0 else 2 - k % 2

    def _stencil(self, s: int, pts) -> Stencil:
        """The stencil of the (node_count, d) points ``pts`` in buffer set ``s``."""
        return Stencil(self.grid, pts, (self.base[s], self.frac[s], self.unclamped[s]))

    def upwind(self, v, out=None) -> np.ndarray:
        """The upwind points ``x - v / T`` of the (node_count, d) velocity v as a
        (d, node_count) block, written into ``out`` or else into ``points``, which
        the next such call overwrites. The velocity v_k of the last pass gives its
        step k + 1's points bit for bit, so a backward may drop v_k once they are staged."""
        out = self.points if out is None else out
        np.multiply(v.T, self.dt, out=out)
        return np.subtract(self.maps[0], out, out=out)

    def advect(self, velocities) -> None:
        """Transport psi_0 through the T per-step node velocities, each
        (node_count, d), drawn from any iterable (a generator will do).

        Step k samples the previous map at the upwind points ``x - v_k / T``
        through one stencil. A non-finite velocity raises
        :class:`DivergenceError` and leaves no pass; finite ones keep every
        map finite, since each gather is a convex combination of the previous
        map's nodes.
        """
        self.final = None
        for k, v in enumerate(velocities):
            if not np.all(np.isfinite(v)):
                raise DivergenceError(f"velocity non-finite at step {k + 1}")
            # the upwind points are staged in the rows of psi_{k+1}, which the gather then fills
            pts = self.upwind(v, self.maps[self._slot(k + 1)])
            self._stencil(0, pts.T).gather(self.maps[self._slot(k)].T.reshape(self.field_shape), pts)
        self.final = self._stencil(1, self.maps[self._slot(self.T)].T)

    def step_adjoint(self, k: int, pts, psibar):
        """Adjoint of step k + 1 of the last pass at ``psibar``, the (node_count, d)
        adjoint of psi_{k+1}, given that step's (d, node_count) upwind points
        ``pts`` (see :meth:`upwind`), which are located again in stencil set 0:
        the adjoint of the step's velocity and that of psi_k, or None for k = 0,
        whose map psi_0 is fixed. A forward-only transport raises RuntimeError."""
        if not self.adjoint:
            raise RuntimeError("a forward-only transport keeps no step maps to differentiate")
        st = self._stencil(0, pts.T)
        vbar = st.point_grad_dot(self.maps[k].T, psibar)
        vbar *= -self.dt
        return vbar, (st.splat(psibar) if k > 0 else None)

    def inverse_map(self) -> DeformationMap:
        """A copy of psi_T, the inverse map at time 1."""
        return DeformationMap(self.grid, self.maps[self._slot(self.T)].T.reshape(self.field_shape), "inverse")


def _flow_path(velocities, psi_T: DeformationMap, grid: GridGeometry, T: int) -> FlowPath:
    """FlowPath of the inverse map ``psi_T`` and of the forward map at time 1, an
    Euler push of the node positions that keeps one map at a time and draws the
    T ``velocities`` from any iterable (a generator will do)."""
    dt = 1.0 / T
    field_shape = grid.dims + (grid.ndim,)
    phi = grid.node_positions().reshape(-1, grid.ndim)
    for k, v in enumerate(velocities):
        phi = phi + dt * interp_values(v.reshape(field_shape), grid, phi)
        if not np.all(np.isfinite(phi)):
            raise DivergenceError(f"forward map non-finite after step {k + 1}")
    return FlowPath(DeformationMap(grid, phi.reshape(field_shape), "forward"), psi_T)


def integrate(tm: TimeMomenta, spec: KernelSpec, grid: GridGeometry) -> FlowPath:
    """Integrate the forward and inverse maps at time 1 from per-step momenta on a product lattice."""
    asm = VelocityAssembler(spec, grid, tm.points)
    velocities = [asm.velocity(_block(ms.m0, ms.m1)) for ms in tm.steps]
    transport = _Transport(grid, tm.T, adjoint=False)
    transport.advect(velocities)
    inverse = transport.inverse_map()
    del transport  # the whole transport goes before the forward push
    return _flow_path(velocities, inverse, grid, tm.T)
