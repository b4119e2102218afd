"""Time integration of deformation maps.

Forward maps follow an explicit Euler push of material points through the
per-step velocity; inverse maps are transported semi-Lagrangian style, so
the warped template is available directly at grid nodes without a global
map inversion. Velocities are piecewise constant in time over the step.
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
    "jacobian_fd",
    "inverse_consistency_error",
]


@dataclass(frozen=True)
class FlowPath:
    """Forward and inverse deformation maps at times k/T, k = 0..T."""

    maps: tuple
    inv_maps: tuple

    def __post_init__(self):
        if len(self.maps) != len(self.inv_maps) or len(self.maps) < 2:
            raise ValueError("need matching forward/inverse sequences with T >= 1")
        object.__setattr__(self, "maps", tuple(self.maps))
        object.__setattr__(self, "inv_maps", tuple(self.inv_maps))

    @property
    def T(self) -> int:
        return len(self.maps) - 1

    @property
    def final(self) -> DeformationMap:
        return self.maps[-1]

    @property
    def final_inverse(self) -> DeformationMap:
        return self.inv_maps[-1]


def _advect_inverse(velocities, grid: GridGeometry, T: int) -> tuple[list, list]:
    """Semi-Lagrangian transport of the inverse map, the one transport loop.

    ``velocities`` is any iterable (a generator will do) of the T per-step
    node velocities, each (node_count, d). Step k samples the previous map
    at the upwind points ``x - v_k / T`` through one :class:`Stencil`.
    Returns the maps psi_0..psi_T as (node_count, d) arrays and the T
    step stencils, which the exact adjoint reuses. A non-finite velocity
    raises :class:`DivergenceError`; finite ones keep every map finite,
    since each gather is a convex combination of the previous map's nodes.
    """
    dt = 1.0 / T
    X = grid.node_positions().reshape(-1, grid.ndim)
    field_shape = grid.dims + (grid.ndim,)
    psis, stencils = [X], []
    for k, v in enumerate(velocities):
        if not np.all(np.isfinite(v)):
            raise DivergenceError(f"velocity non-finite at step {k + 1}", step=k + 1)
        stencils.append(Stencil(grid, X - dt * v))
        psis.append(stencils[-1].gather(psis[-1].reshape(field_shape)))
    return psis, stencils


def _flow_path(velocities, psis, grid: GridGeometry) -> FlowPath:
    """FlowPath of the inverse maps ``psis`` (``psis[0]`` is the node positions)
    and of the forward maps, an Euler push of ``psis[0]`` by ``velocities``."""
    dt = 1.0 / len(velocities)
    field_shape = grid.dims + (grid.ndim,)
    phi = [psis[0]]
    for k, v in enumerate(velocities):
        nxt = phi[-1] + dt * interp_values(v.reshape(field_shape), grid, phi[-1])
        if not np.all(np.isfinite(nxt)):
            raise DivergenceError(f"forward map non-finite after step {k + 1}", step=k + 1)
        phi.append(nxt)
    maps = tuple(DeformationMap(grid, p.reshape(field_shape), "forward") for p in phi)
    inv_maps = tuple(DeformationMap(grid, p.reshape(field_shape), "inverse") for p in psis)
    return FlowPath(maps, inv_maps)


def integrate(tm: TimeMomenta, spec: KernelSpec, grid: GridGeometry) -> FlowPath:
    """Integrate forward and inverse maps from per-step momenta."""
    asm = VelocityAssembler(spec, grid, tm.points)
    velocities = [asm.velocity(_block(ms.m0, ms.m1)) for ms in tm.steps]
    psis = _advect_inverse(velocities, grid, tm.T)[0]  # drop the stencils before the copies
    return _flow_path(velocities, psis, grid)


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


def inverse_consistency_error(fp: FlowPath, region: np.ndarray) -> float:
    """Max voxel-unit round-trip error |inv(fwd(x)) - x| over masked nodes."""
    geom = fp.final.geometry
    region = np.asarray(region, bool)
    if region.shape != geom.dims:
        raise ValueError(f"region shape {region.shape} != grid dims {geom.dims}")
    if not region.any():
        return 0.0
    X = geom.node_positions()[region]
    fwd = fp.final.targets[region]
    back = interp_values(fp.final_inverse.targets, geom, fwd)
    err = (back - X) / np.asarray(geom.spacing)
    return float(np.max(np.linalg.norm(err, axis=-1)))
