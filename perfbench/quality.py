"""Result-quality metrics and the output checks every solve must pass."""
from __future__ import annotations

import numpy as np

from slidereg import registration as reg
from slidereg.geometry import DeformationMap
from slidereg.momenta import MomentumSet, TimeMomenta, control_lattice


def ssd_ratio(warped, template, reference) -> float:
    """SSD(warped, reference) / SSD(template, reference)."""
    return reg.ssd(warped, reference) / reg.ssd(template, reference)


def map_err_px(inv_map: DeformationMap, true_map: DeformationMap, foreground) -> float:
    """Mean Euclidean distance, in voxels, between two maps over a mask."""
    spacing = np.asarray(inv_map.geometry.spacing)
    diff = (inv_map.targets - true_map.targets) / spacing
    return float(np.mean(np.linalg.norm(diff[foreground], axis=-1)))


def interior_jacobian_dets(dmap: DeformationMap) -> np.ndarray:
    """Jacobian determinants of a map at interior nodes (central differences).

    Boundary nodes are left out: ``np.gradient`` is one-sided there.
    """
    geom = dmap.geometry
    d = geom.ndim
    inner = (slice(1, -1),) * d
    # J[..., c, a] = d target_c / d x_a
    J = np.stack(
        [np.stack(np.gradient(dmap.targets[..., c], *geom.spacing), axis=-1)[inner] for c in range(d)],
        axis=-2,
    )
    return np.linalg.det(J).ravel()


def fold_frac(dets: np.ndarray) -> float:
    """Fraction of nodes whose Jacobian determinant is <= 0."""
    return float(np.mean(dets <= 0.0))


def solve_failures(result, pair, cfg, ssd_ratio_max: float) -> tuple[list, float | None]:
    """Reasons a solve's outputs fail the checks, and its SSD ratio."""
    reasons = []
    outputs = (
        ("warped image", result.warped.values),
        ("inverse map", result.flow.final_inverse.targets),
        ("forward map", result.flow.final.targets),
    )
    for name, arr in outputs:
        if not np.all(np.isfinite(arr)):
            reasons.append(f"{name} is non-finite")
    energies = [p.total for p in result.energy_trace]
    for k in range(1, len(energies)):
        if not energies[k] <= energies[k - 1]:
            reasons.append(f"energy increased at step {k}: {energies[k - 1]!r} -> {energies[k]!r}")
            break
    if result.iterations_used != cfg.max_iters:
        reasons.append(f"stopped after {result.iterations_used} of {cfg.max_iters} iterations")
    if reasons:
        return reasons, None
    ratio = ssd_ratio(result.warped, pair.template, pair.reference)
    if not ratio <= ssd_ratio_max:
        reasons.append(f"ssd_ratio {ratio:.4g} exceeds {ssd_ratio_max}")
    return reasons, ratio


def gradient_check(cfg, pair, seed: int, rtol: float, eps: float = 1e-5, tries: int = 2) -> list:
    """Relative errors of ``registration.gradient`` against central differences.

    The state and the unit directions are drawn from ``seed``; one error per
    direction tried, stopping at the first within ``rtol``. The energy is
    only piecewise smooth (multilinear interpolation), so a step that
    crosses a cell boundary can miss by ~1e-4 even for an exact gradient;
    a second direction makes that false alarm rare. Zeroth-only configs keep
    first-order momenta and their direction at zero, since the gradient
    zeroes that block.
    """
    rng = np.random.default_rng(seed)
    points = control_lattice(pair.template.geometry, cfg.control_stride)
    n, d = points.shape
    first = cfg.orders == "zeroth_and_first"
    m0 = 0.2 * rng.standard_normal((cfg.T, n, d))
    m1 = 0.2 * rng.standard_normal((cfg.T, n, d, d)) * first

    def state(a0, a1) -> TimeMomenta:
        return TimeMomenta(tuple(MomentumSet(points, a0[k], a1[k]) for k in range(cfg.T)))

    g = reg.gradient(cfg, state(m0, m1), pair.template, pair.reference)
    errors = []
    for _ in range(tries):
        h0 = rng.standard_normal(m0.shape)
        h1 = rng.standard_normal(m1.shape) * first
        norm = np.sqrt(np.sum(h0**2) + np.sum(h1**2))
        h0, h1 = h0 / norm, h1 / norm
        dd = sum(float(np.sum(ms.m0 * h0[k]) + np.sum(ms.m1 * h1[k])) for k, ms in enumerate(g.steps))
        ep = reg.total_energy(cfg, state(m0 + eps * h0, m1 + eps * h1), pair.template, pair.reference).total
        em = reg.total_energy(cfg, state(m0 - eps * h0, m1 - eps * h1), pair.template, pair.reference).total
        fd = (ep - em) / (2.0 * eps)
        errors.append(abs(fd - dd) / max(abs(fd), abs(dd), 1e-300))
        if errors[-1] <= rtol:
            break
    return errors
