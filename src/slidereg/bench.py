"""Synthetic data generators, registration metrics, and experiment runs.

The two synthetic scenes exercise sliding motion: a rectangle whose halves
translate in opposite directions across a horizontal interface, and a
spoked wheel whose inner disk and outer annulus rotate against each other.
Both return the analytic ground-truth (inverse) map alongside the images.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import os
import shutil
from dataclasses import dataclass, replace

import numpy as np
from scipy.ndimage import gaussian_filter

from . import registration as reg
from .errors import DivergenceError
from .fileio import read_image, read_landmarks, write_pgm
from .flow import FlowPath, integrate
from .geometry import (
    DeformationMap,
    GridGeometry,
    LandmarkSet,
    ScalarImage,
    VectorField,
    interp_values,
    warp_image,
)
from .kernels import KernelSpec
from .momenta import MomentumSet, TimeMomenta, synth_velocity

__all__ = [
    "RectanglePair",
    "WheelPair",
    "ExperimentSpec",
    "MetricsReport",
    "gen_rectangle",
    "gen_wheel",
    "tre",
    "transition_width",
    "row_profile",
    "radial_profile",
    "sign_flip",
    "run_experiment",
    "write_registration_artifacts",
    "demo_momentum",
    "METHODS",
]

METHODS = {
    "gaussian": ("gaussian", "zeroth_only"),
    "wendland_zeroth": ("wendland_c0_mult", "zeroth_only"),
    "wendland_both": ("wendland_c0_mult", "zeroth_and_first"),
}

DEMO_KINDS = ("fig1a", "fig1b", "fig1c")


def _unit_grid(size: int) -> GridGeometry:
    return GridGeometry((size, size), (1.0, 1.0), (0.0, 0.0))


def _maybe_blur(values: np.ndarray, antialias: bool) -> np.ndarray:
    if not antialias:
        return values
    return gaussian_filter(values, sigma=1.0, mode="nearest")


@dataclass(frozen=True)
class RectanglePair:
    template: ScalarImage
    reference: ScalarImage
    true_map: DeformationMap
    landmarks_template: LandmarkSet
    landmarks_reference: LandmarkSet
    interface_row: int


@dataclass(frozen=True)
class WheelPair:
    template: ScalarImage
    reference: ScalarImage
    true_map: DeformationMap
    ring_radius: float


def gen_rectangle(size: int = 64, shift: int = 5, antialias: bool = True) -> RectanglePair:
    """Bright rectangle whose upper half slides +shift px and lower -shift.

    The interface sits between rows ``size//2 - 1`` and ``size//2``. Twenty
    landmark pairs are placed five rows off the interface on both sides.
    """
    if not shift < size / 4:
        raise ValueError(f"shift {shift} too large for size {size} (needs shift < size/4)")
    shift = int(shift)
    yc = size // 2
    lo, hi = size // 4, 3 * size // 4
    template = np.zeros((size, size))
    template[lo:hi, lo:hi] = 255.0

    reference = np.zeros_like(template)
    if shift > 0:
        reference[:yc, shift:] = template[:yc, :-shift]  # upper half moves right
        reference[yc:, :-shift] = template[yc:, shift:]  # lower half moves left
    else:
        reference[:] = template

    geom = _unit_grid(size)
    pos = geom.node_positions()
    targets = pos.copy()
    targets[:yc, :, 1] -= shift  # inverse map pulls from the unshifted location
    targets[yc:, :, 1] += shift
    true_map = DeformationMap(geom, targets, "inverse")

    cols = np.linspace(lo + 2, hi - 3, 10).round()
    upper = np.stack([np.full(10, yc - 5.0), cols], axis=1)
    lower = np.stack([np.full(10, yc + 5.0), cols], axis=1)
    tpl_pts = np.concatenate([upper, lower])
    ref_pts = tpl_pts.copy()
    ref_pts[:10, 1] += shift
    ref_pts[10:, 1] -= shift

    return RectanglePair(
        template=ScalarImage(geom, _maybe_blur(template, antialias)),
        reference=ScalarImage(geom, _maybe_blur(reference, antialias)),
        true_map=true_map,
        landmarks_template=LandmarkSet(tpl_pts),
        landmarks_reference=LandmarkSet(ref_pts),
        interface_row=yc,
    )


def gen_wheel(size: int = 64, angle_deg: float = 5.0, antialias: bool = True) -> WheelPair:
    """Spoked wheel: inner disk rotates +angle, outer annulus -angle.

    The wheel is centered on a grid node and the ring radius is an integer,
    so the sliding interface lies on a radial-bin edge of
    :func:`radial_profile` and crosses all four axis poles on lines of the
    default control-point sublattice.
    """
    if not 0 <= angle_deg < 45:
        raise ValueError(f"angle must lie in [0, 45) degrees, got {angle_deg}")
    geom = _unit_grid(size)
    c = float(size // 2)
    pos = geom.node_positions()
    dy = pos[..., 0] - c
    dx = pos[..., 1] - c
    r = np.hypot(dy, dx)
    theta = np.arctan2(dx, dy)
    r_ring = float(round(0.22 * size))
    r_outer = float(round(0.42 * size))

    n_spokes = 12
    sector = (np.floor((theta + np.pi) / (2 * np.pi / n_spokes)).astype(int)) % 2
    template = np.where((r < r_outer) & (sector == 0), 255.0, 0.0)

    def _rotated_targets(alpha: float) -> np.ndarray:
        ca, sa = np.cos(alpha), np.sin(alpha)
        ny = ca * dy - sa * dx
        nx = sa * dy + ca * dx
        return np.stack([ny + c, nx + c], axis=-1)

    a = np.deg2rad(angle_deg)
    targets = pos.copy()
    inner = r < r_ring
    annulus = (r >= r_ring) & (r < r_outer)
    # content rotated by +a needs a pull-back rotation of -a, and vice versa
    targets[inner] = _rotated_targets(-a)[inner]
    targets[annulus] = _rotated_targets(+a)[annulus]
    true_map = DeformationMap(geom, targets, "inverse")

    tpl_img = ScalarImage(geom, template)
    reference = warp_image(tpl_img, true_map).values
    return WheelPair(
        template=ScalarImage(geom, _maybe_blur(template, antialias)),
        reference=ScalarImage(geom, _maybe_blur(reference, antialias)),
        true_map=true_map,
        ring_radius=r_ring,
    )


def tre(ref_lms: LandmarkSet, tpl_lms: LandmarkSet, spacing, dmap: DeformationMap | None = None) -> float:
    """Mean physical landmark error; ``dmap`` maps reference landmarks.

    With no map the landmarks are compared in place (before-registration
    error). Landmark coordinates are voxel indices; spacing converts the
    differences to physical units (mm for CT data).
    """
    if len(ref_lms) != len(tpl_lms):
        raise ValueError(f"landmark counts differ: {len(ref_lms)} vs {len(tpl_lms)}")
    spacing = np.asarray(spacing, float)
    p_ref = ref_lms.points
    if dmap is None:
        mapped = p_ref
    else:
        geom = dmap.geometry
        phys = geom.to_physical(p_ref)
        mapped = geom.to_index(interp_values(dmap.targets, geom, phys))
    diff = (mapped - tpl_lms.points) * spacing
    return float(np.mean(np.linalg.norm(diff, axis=1)))


def row_profile(dmap: DeformationMap, interface_axis: int = 0, band: tuple | None = None) -> np.ndarray:
    """Mean tangential displacement per grid line along the interface axis.

    For a horizontal interface (axis 0) this is the mean x-displacement of
    each row, averaged over a central column band (central half by default).
    """
    if dmap.geometry.ndim != 2:
        raise ValueError("profiles are 2D only")
    disp = dmap.displacement()
    tang = 1 - interface_axis
    n_t = dmap.geometry.dims[tang]
    if band is None:
        band = (n_t // 4, n_t - n_t // 4)
    sl = [slice(None), slice(None)]
    sl[tang] = slice(band[0], band[1])
    block = disp[tuple(sl)][..., tang]
    return block.mean(axis=tang)


def transition_width(dmap: DeformationMap, interface_axis: int, interface_pos: int,
                     gap: int = 4, plateau_rows: int = 8):
    """Rows needed for the tangential displacement to swing 10% -> 90%.

    ``interface_pos`` is the index of the first grid line on the far side
    of the interface. Plateau levels are medians over ``plateau_rows``
    lines starting ``gap`` lines away from the interface on each side, and
    the crossing search runs between the two plateau windows. Returns None
    (undefined metric) when the plateaus differ by less than 0.5 px.
    """
    prof = row_profile(dmap, interface_axis)
    n = prof.size
    if not 0 < interface_pos < n:
        raise ValueError(f"interface position {interface_pos} outside axis of length {n}")
    lo_end = max(1, interface_pos - gap)
    lo_start = max(0, lo_end - plateau_rows)
    hi_start = min(n - 1, interface_pos + gap)
    hi_end = min(n, hi_start + plateau_rows)
    lo_plateau = float(np.median(prof[lo_start:lo_end]))
    hi_plateau = float(np.median(prof[hi_start:hi_end]))
    rng = hi_plateau - lo_plateau
    if abs(rng) < 0.5:
        return None
    lev10 = lo_plateau + 0.1 * rng
    lev90 = lo_plateau + 0.9 * rng
    scan = np.arange(lo_start, hi_end)
    seg = prof[scan]
    if rng > 0:
        passed10 = seg >= lev10
        passed90 = seg >= lev90
    else:
        passed10 = seg <= lev10
        passed90 = seg <= lev90
    idx10 = np.nonzero(passed10)[0]
    r10 = int(idx10[0]) if idx10.size else seg.size - 1
    idx90 = np.nonzero(passed90 & (np.arange(seg.size) >= r10))[0]
    r90 = int(idx90[0]) if idx90.size else seg.size - 1
    return r90 - r10 + 1


def radial_profile(dmap: DeformationMap, center, r_max: float,
                   sector_halfwidth_deg: float | None = None) -> np.ndarray:
    """Mean tangential displacement per radius bin [b, b+1) around ``center``.

    With ``sector_halfwidth_deg`` set, only nodes within that angular
    distance of one of the four axis directions contribute; that samples the
    profile where an axis-aligned kernel kink can coincide with a circular
    interface.
    """
    geom = dmap.geometry
    pos = geom.node_positions()
    center = np.asarray(center, float)
    dy = pos[..., 0] - center[0]
    dx = pos[..., 1] - center[1]
    r = np.hypot(dy, dx)
    safe = np.maximum(r, 1e-9)
    t_hat = np.stack([-dx / safe, dy / safe], axis=-1)
    tang = np.sum(dmap.displacement() * t_hat, axis=-1)
    keep = np.ones(geom.dims, bool)
    if sector_halfwidth_deg is not None:
        theta = np.arctan2(dx, dy)
        off_axis = np.abs(((theta + np.pi / 4) % (np.pi / 2)) - np.pi / 4)
        keep = off_axis <= np.deg2rad(sector_halfwidth_deg)
    nbins = int(np.floor(r_max))
    prof = np.full(nbins, np.nan)
    rbin = np.floor(r).astype(int)
    for b in range(1, nbins):
        mask = (rbin == b) & keep
        if mask.any():
            prof[b] = tang[mask].mean()
    return prof


def sign_flip(profile: np.ndarray, min_frac: float = 0.3, max_gap: int = 0) -> bool:
    """True when the profile jumps between large opposite values.

    Entries with magnitude below ``min_frac`` times the profile peak do not
    count; a flip needs two significant entries of opposite sign separated
    by at most ``max_gap`` insignificant entries. That keeps a gradual zero
    crossing (many small entries in between) from registering.
    """
    p = np.asarray(profile, float)
    finite = p[np.isfinite(p)]
    if finite.size < 2:
        return False
    floor = min_frac * np.max(np.abs(finite))
    if floor == 0:
        return False
    last_sign = 0
    gap = 0
    for v in p:
        if not np.isfinite(v) or abs(v) < floor:
            gap += 1
            continue
        s = 1 if v > 0 else -1
        if last_sign and s != last_sign and gap <= max_gap:
            return True
        last_sign = s
        gap = 0
    return False


# ---------------------------------------------------------------------------
# Experiment orchestration.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    """One benchmark: a data source, a base config, and methods to compare."""

    name: str
    config: reg.RegistrationConfig
    out_dir: str
    methods: tuple = ("gaussian", "wendland_zeroth", "wendland_both")
    generator: dict | None = None
    dataset: dict | None = None

    def __post_init__(self):
        if not self.methods:
            raise ValueError("at least one method must be listed")
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise ValueError(f"unknown methods {bad}; choose from {sorted(METHODS)}")
        if (self.generator is None) == (self.dataset is None):
            raise ValueError("exactly one of generator/dataset must be given")
        object.__setattr__(self, "methods", tuple(self.methods))


@dataclass(frozen=True)
class MetricsReport:
    ssd_before: float
    ssd_after: dict
    tre_before_mm: float | None
    tre_after_mm: dict | None
    transition_width_rows: dict | None
    jacobian_min: dict
    fold_count: dict
    stop_reason: dict
    iterations: dict

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _method_config(base: reg.RegistrationConfig, method: str) -> reg.RegistrationConfig:
    family, orders = METHODS[method]
    kernel = KernelSpec(family, base.kernel.scale, base.kernel.window)
    return replace(base, kernel=kernel, orders=orders)


def _load_pair(spec: ExperimentSpec):
    """(template, reference, template landmarks, reference landmarks,
    interface row), each of the last three None where the source has none."""
    if spec.generator is not None:
        g = dict(spec.generator)
        kind = g.pop("kind")
        if kind == "rectangle":
            p = gen_rectangle(**g)
            return p.template, p.reference, p.landmarks_template, p.landmarks_reference, p.interface_row
        if kind == "wheel":
            p = gen_wheel(**g)
            return p.template, p.reference, None, None, None
        raise ValueError(f"unknown generator kind {kind!r}")
    ds = spec.dataset
    template = read_image(ds["template"], ds.get("sidecar"))
    reference = read_image(ds["reference"], ds.get("sidecar"))
    lms_t = lms_r = None
    if "template_landmarks" in ds:
        base = int(ds.get("landmark_base", 1))
        lms_t = read_landmarks(ds["template_landmarks"], base, template.geometry.dims)
        lms_r = read_landmarks(ds["reference_landmarks"], base, reference.geometry.dims)
    return template, reference, lms_t, lms_r, None


def _grid_image(geom: GridGeometry, every: int = 4) -> ScalarImage:
    """Grid lines along the last two axes, so every axis-0 slice shows the grid."""
    vals = np.zeros(geom.dims)
    vals[..., ::every, :] = 255.0
    vals[..., ::every] = 255.0
    return ScalarImage(geom, vals)


def _write_pgm_view(path: str, geom: GridGeometry, values: np.ndarray) -> None:
    """Write rounded ``values`` as PGM: a 2D grid whole, a volume as its central axis-0 slice."""
    if geom.ndim == 3:
        geom = GridGeometry(geom.dims[1:], geom.spacing[1:], geom.origin[1:])
        values = values[values.shape[0] // 2]
    write_pgm(path, ScalarImage(geom, np.rint(values)))


def write_registration_artifacts(out: str, result: reg.RegistrationResult) -> dict:
    """Write the warped image, deformation magnitude and deformed grid (PGM) and the energy trace (CSV)."""
    os.makedirs(out, exist_ok=True)
    geom = result.warped.geometry
    _write_pgm_view(os.path.join(out, "warped.pgm"), geom, np.clip(result.warped.values, 0, 255))

    disp = result.flow.final_inverse.displacement()
    mag = np.linalg.norm(disp, axis=-1)
    peak = float(mag.max())
    scale = 255.0 / peak if peak > 0 else 1.0
    _write_pgm_view(os.path.join(out, "deformation_magnitude.pgm"), geom, mag * scale)

    grid_img = warp_image(_grid_image(geom), result.flow.final_inverse)
    _write_pgm_view(os.path.join(out, "deformed_grid.pgm"), geom, np.clip(grid_img.values, 0, 255))

    with open(os.path.join(out, "trace.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "E_S", "E_R", "sparsity", "total"])
        for i, p in enumerate(result.energy_trace):
            writer.writerow([i, repr(p.similarity), repr(p.regularization), repr(p.sparsity), repr(p.total)])
    return {"magnitude_scale": scale}


def _interior_jacobian_dets(dmap: DeformationMap) -> np.ndarray:
    """Jacobian determinants at every ``min(dims) // 32``-th node two or more
    from each face; the central differences equal ``jacobian_fd`` at h = spacing/2."""
    geom = dmap.geometry
    step = max(1, min(geom.dims) // 32)
    sl = tuple(slice(2, n - 2, step) for n in geom.dims)
    grads = np.gradient(dmap.targets, *geom.spacing, axis=tuple(range(geom.ndim)))
    return np.linalg.det(np.stack(grads, axis=-1)[sl]).ravel()  # J[..., c, a] = d target_c / d x_a


def run_experiment(spec: ExperimentSpec) -> MetricsReport:
    """Run every method of an experiment, writing artifacts and a report.

    Per-method subdirectories receive the warped image, deformation
    magnitude and deformed grid (PGM), and the energy trace (CSV); the
    experiment root receives ``report.json``. Partial artifacts are
    removed when any method fails.
    """
    template, reference, lms_t, lms_r, interface_row = _load_pair(spec)
    out_root = os.path.join(spec.out_dir, spec.name)
    existed = os.path.isdir(out_root)
    os.makedirs(out_root, exist_ok=True)
    created = []

    spacing = np.asarray(template.geometry.spacing)
    ssd_before = reg.ssd(template, reference)
    tre_before = tre(lms_r, lms_t, spacing) if lms_t is not None else None

    ssd_after: dict = {}
    tre_after: dict = {}
    widths: dict = {}
    jac_min: dict = {}
    folds: dict = {}
    stops: dict = {}
    iters: dict = {}
    extras: dict = {}
    try:
        for method in spec.methods:
            cfg = _method_config(spec.config, method)
            result = reg.optimize(cfg, template, reference)
            mdir = os.path.join(out_root, method)
            created.append(mdir)
            extras[method] = write_registration_artifacts(mdir, result)
            ssd_after[method] = reg.ssd(result.warped, reference)
            dets = _interior_jacobian_dets(result.flow.final)
            jac_min[method] = float(dets.min())
            folds[method] = int(np.count_nonzero(dets <= 0.0))
            stops[method], iters[method] = result.stop_reason, result.iterations_used
            if lms_t is not None:
                tre_after[method] = tre(lms_r, lms_t, spacing, result.flow.final_inverse)
            if interface_row is not None:
                widths[method] = transition_width(result.flow.final_inverse, 0, interface_row)
        report = MetricsReport(
            ssd_before=ssd_before,
            ssd_after=ssd_after,
            tre_before_mm=tre_before,
            tre_after_mm=tre_after or None,
            transition_width_rows=widths or None,
            jacobian_min=jac_min,
            fold_count=folds,
            stop_reason=stops,
            iterations=iters,
        )
        payload = report.to_dict()
        payload["name"] = spec.name
        payload["methods"] = list(spec.methods)
        payload["artifact_scales"] = extras
        path = os.path.join(out_root, "report.json")
        created.append(path)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
        return report
    except Exception:
        for path in created:
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)
            elif os.path.exists(path):
                os.unlink(path)
        if not existed:
            shutil.rmtree(out_root, ignore_errors=True)
        raise


# ---------------------------------------------------------------------------
# Single-momentum demos: local translation / smooth shear / sliding.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DemoResult:
    kind: str
    momenta: MomentumSet
    kernel: KernelSpec
    velocity: VectorField
    flow: FlowPath
    files: tuple


def demo_momentum(kind: str, out_dir: str | None = None, size: int = 64) -> DemoResult:
    """Integrate one momentum at the image center and render the warped grid.

    fig1a: gaussian kernel, zeroth-order momentum (local translation).
    fig1b: gaussian kernel, first-order momentum (smooth local shear).
    fig1c: wendland kernel, first-order momentum (non-smooth sliding).
    """
    if kind not in DEMO_KINDS:
        raise ValueError(f"unknown demo kind {kind!r}; choose from {DEMO_KINDS}")
    geom = _unit_grid(size)
    scale = 4.0 * min(geom.spacing)
    center = np.asarray(geom.to_physical([size // 2, size // 2]), float)
    d = 2
    m0 = np.zeros((1, d))
    m1 = np.zeros((1, d, d))
    if kind == "fig1a":
        spec = KernelSpec("gaussian", scale, 9)
        m0[0] = (0.0, 3.0)
    else:
        family = "gaussian" if kind == "fig1b" else "wendland_c0_mult"
        spec = KernelSpec(family, scale, 9)
        m1[0, 0] = (0.0, 6.0)  # derivative slot: rows; vector: along columns
    ms = MomentumSet(center[None, :], m0, m1)
    tm = TimeMomenta(tuple(ms for _ in range(10)))
    fp = integrate(tm, spec, geom)
    vel = synth_velocity(ms, spec, geom)
    files = []
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        grid_img = warp_image(_grid_image(geom), fp.final_inverse)
        path = os.path.join(out_dir, f"{kind}_grid.pgm")
        write_pgm(path, ScalarImage(geom, np.rint(np.clip(grid_img.values, 0, 255))))
        files.append(path)
    return DemoResult(kind, ms, spec, vel, fp, tuple(files))


