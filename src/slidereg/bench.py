"""Synthetic data generators, registration metrics, and experiment runs.

The two synthetic scenes exercise sliding motion: a rectangle whose halves
translate in opposite directions across a horizontal interface, and a
spoked wheel whose inner disk and outer annulus rotate against each other.
Both return the analytic ground-truth (inverse) map alongside the images.
"""
from __future__ import annotations

import csv
import inspect
import json
import os
import shutil
from dataclasses import dataclass, replace

import numpy as np
from scipy.ndimage import gaussian_filter

from . import registration as reg
from .errors import DivergenceError
from .fileio import _check_keys, read_image, read_landmarks, write_pgm
from .flow import FlowPath, integrate
from .geometry import (
    DeformationMap,
    GridGeometry,
    LandmarkSet,
    ScalarImage,
    _count,
    _flag,
    _real,
    interp_values,
    warp_image,
)
from .kernels import KernelSpec, default_scale
from .momenta import MomentumSet, TimeMomenta

__all__ = [
    "RectanglePair",
    "WheelPair",
    "gen_rectangle",
    "gen_wheel",
    "tre",
    "transition_width",
    "row_profile",
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
    landmark pairs are placed five rows off the interface on both sides, or
    as far as the grid allows when it is smaller than 12 rows.
    """
    size, shift, antialias = _count("size", size), _count("shift", shift), _flag("antialias", antialias)
    if not 0 <= shift < size / 4:
        raise ValueError(f"shift {shift} must lie in [0, size/4) for size {size}")
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

    off = min(5, size - 1 - yc)  # rows yc +- off and columns cols +- shift stay on the grid
    cols = np.clip(np.linspace(lo + 2, hi - 3, 10).round(), shift, size - 1 - shift)
    upper = np.stack([np.full(10, yc - off), cols], axis=1)
    lower = np.stack([np.full(10, yc + off), cols], axis=1)
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
    so the sliding interface crosses all four axis poles on lines of the
    default control-point sublattice.
    """
    size, angle_deg, antialias = _count("size", size), _real("angle_deg", angle_deg), _flag("antialias", antialias)
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
    error). Landmark coordinates are voxel indices; spacing, finite and
    positive, converts the differences to physical units (mm for CT data).
    Both landmark sets, the spacing and the map must have one dimension.
    """
    if len(ref_lms) != len(tpl_lms):
        raise ValueError(f"landmark counts differ: {len(ref_lms)} vs {len(tpl_lms)}")
    spacing = np.asarray(spacing, float)
    if not np.all(np.isfinite(spacing) & (spacing > 0)):
        raise ValueError(f"spacing must be finite and positive, got {spacing.tolist()}")
    dims = {"reference landmarks": ref_lms.points.shape[1], "template landmarks": tpl_lms.points.shape[1],
            "spacing": spacing.size}
    if dmap is not None:
        dims["map"] = dmap.geometry.ndim
    if len(set(dims.values())) > 1:
        raise ValueError("dimensions differ: " + ", ".join(f"{k} {v}" for k, v in dims.items()))
    p_ref = ref_lms.points
    if dmap is None:
        mapped = p_ref
    else:
        geom = dmap.geometry
        phys = geom.to_physical(p_ref)
        mapped = geom.to_index(interp_values(dmap.targets, geom, phys))
    diff = (mapped - tpl_lms.points) * spacing
    return float(np.mean(np.linalg.norm(diff, axis=1)))


def row_profile(dmap: DeformationMap, interface_axis: int = 0) -> np.ndarray:
    """Mean tangential displacement per grid line along the interface axis.

    For a horizontal interface (axis 0) this is the mean x-displacement of
    each row, averaged over the central half of the columns.
    """
    if dmap.geometry.ndim != 2:
        raise ValueError("profiles are 2D only")
    disp = dmap.displacement()
    tang = 1 - interface_axis
    n_t = dmap.geometry.dims[tang]
    sl = [slice(None), slice(None)]
    sl[tang] = slice(n_t // 4, n_t - n_t // 4)
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


# ---------------------------------------------------------------------------
# Experiment orchestration.
# ---------------------------------------------------------------------------


def _method_config(base: reg.RegistrationConfig, method: str) -> reg.RegistrationConfig:
    family, orders = METHODS[method]
    return replace(base, kernel=replace(base.kernel, family=family), orders=orders)


def _string(what: str, doc: dict, key: str) -> str:
    if not isinstance(doc[key], str):
        raise ValueError(f"{what} key {key!r} must be a string, got {json.dumps(doc[key])}")
    return doc[key]


def _load_pair(g, ds):
    """Check an experiment's ``generator`` or ``dataset`` (exactly one is
    None), then return (template, reference, template landmarks, reference
    landmarks, interface row), each of the last three None where the source
    has none. A malformed source raises ValueError before any file is read."""
    if (g is None) == (ds is None):
        raise ValueError("exactly one of generator/dataset must be given")
    if g is not None:
        kind = g.get("kind") if isinstance(g, dict) else None
        gen = {"rectangle": gen_rectangle, "wheel": gen_wheel}.get(kind) if isinstance(kind, str) else None
        if gen is None:
            raise ValueError(f"generator must be a JSON object of kind 'rectangle' or 'wheel', got {g!r}")
        _check_keys(g, "generator", ("kind",), inspect.signature(gen).parameters)
        p = gen(**{k: v for k, v in g.items() if k != "kind"})
        if gen is gen_wheel:
            return p.template, p.reference, None, None, None
        return p.template, p.reference, p.landmarks_template, p.landmarks_reference, p.interface_row
    _check_keys(ds, "dataset", ("template", "reference"),
                ("sidecar", "template_landmarks", "reference_landmarks", "landmark_base"))
    for key in [k for k in ds if k != "landmark_base"]:
        _string("dataset", ds, key)
    keys = ("template_landmarks", "reference_landmarks")
    if (keys[0] in ds) != (keys[1] in ds):
        given, missing = keys if keys[0] in ds else keys[::-1]
        raise ValueError(f"dataset has {given!r} but is missing {missing!r}; give both landmark keys or neither")
    base = _count("landmark_base", ds.get("landmark_base", 1))
    template = read_image(ds["template"], ds.get("sidecar"))
    reference = read_image(ds["reference"], ds.get("sidecar"))
    lms_t = lms_r = None
    if "template_landmarks" in ds:
        lms_t = read_landmarks(ds["template_landmarks"], base, template.geometry.dims)
        lms_r = read_landmarks(ds["reference_landmarks"], base, reference.geometry.dims)
    return template, reference, lms_t, lms_r, None


def _grid_image(geom: GridGeometry) -> ScalarImage:
    """Grid lines every 4 nodes along the last two axes, so every axis-0 slice shows the grid."""
    vals = np.zeros(geom.dims)
    vals[..., ::4, :] = 255.0
    vals[..., ::4] = 255.0
    return ScalarImage(geom, vals)


def _write_pgm_view(path: str, geom: GridGeometry, values: np.ndarray) -> None:
    """Write rounded ``values`` as PGM: a 2D grid whole, a volume as its central axis-0 slice."""
    if geom.ndim == 3:
        geom = GridGeometry(geom.dims[1:], geom.spacing[1:], geom.origin[1:])
        values = values[values.shape[0] // 2]
    write_pgm(path, ScalarImage(geom, np.rint(values)))


def write_registration_artifacts(out: str, result: reg.RegistrationResult) -> dict:
    """Write the warped image, deformation magnitude and deformed grid (PGM),
    the energy trace (CSV) and ``summary.json``; returns the summary.

    The trace has one row per iterate; from row 1 on it also gives the
    accepted line-search step ``alpha`` and the ``candidates`` tried. The
    summary holds the solver's stop facts, the first and last SSD and total
    energy, the magnitude image's ``magnitude_scale``, and the forward map's
    ``jacobian_min`` and ``fold_count`` (nodes with determinant <= 0) over
    the sample of :func:`_interior_jacobian_dets`, both None when it is empty."""
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
        writer.writerow(["iter", "E_S", "E_R", "sparsity", "total", "alpha", "candidates"])
        writer.writerow([0, *map(repr, result.energy_trace[0]), "", ""])
        for i, (p, step) in enumerate(zip(result.energy_trace[1:], result.line_search), 1):
            writer.writerow([i, *map(repr, p), repr(step.alpha), step.candidates])

    first, last = result.energy_trace[0], result.energy_trace[-1]
    dets = _interior_jacobian_dets(result.flow.final)
    summary = {
        "iterations": result.iterations_used,
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "forward_passes": result.forward_passes,
        "ssd_initial": first.similarity,
        "ssd_final": last.similarity,
        "total_initial": first.total,
        "total_final": last.total,
        "magnitude_scale": scale,
        "jacobian_min": float(dets.min()) if dets.size else None,
        "fold_count": int(np.count_nonzero(dets <= 0.0)) if dets.size else None,
    }
    with open(os.path.join(out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    return summary


def _interior_jacobian_dets(dmap: DeformationMap) -> np.ndarray:
    """Jacobian determinants at every node one or more from each face (none
    when an axis has 2 nodes); each is the determinant of the central-difference
    Jacobian of the interpolated map at that node with h = spacing/2."""
    geom = dmap.geometry
    grads = np.gradient(dmap.targets, *geom.spacing, axis=tuple(range(geom.ndim)))
    inner = (slice(1, -1),) * geom.ndim
    return np.linalg.det(np.stack(grads, axis=-1)[inner]).ravel()  # J[..., c, a] = d target_c / d x_a


def run_experiment(doc: dict) -> dict:
    """Run every method of a parsed experiment document, writing artifacts and
    a report; returns the report.

    The whole document is checked before anything is read or written: a
    malformed one raises ValueError. Each method's subdirectory receives what
    :func:`write_registration_artifacts` writes. The report holds the
    experiment's ``name`` and ``methods``, ``ssd_before`` and
    ``tre_before_mm`` (None without landmarks), and ``runs``: per method its
    summary, plus ``tre_mm`` when the source has landmarks and
    ``transition_width_rows`` when it has an interface row. It is written
    unchanged to ``report.json`` in the experiment root. Partial artifacts
    are removed when any method fails.
    """
    _check_keys(doc, "experiment", ("name", "out", "config"), ("methods", "generator", "dataset"))
    name, out = _string("experiment", doc, "name"), _string("experiment", doc, "out")
    if name in ("", ".", "..") or any(sep and sep in name for sep in (os.sep, os.altsep)):
        raise ValueError(f"experiment key 'name' must be one plain path component, got {json.dumps(name)}")
    methods = doc.get("methods", list(METHODS))
    if not (isinstance(methods, list) and all(isinstance(m, str) for m in methods)):
        raise ValueError(f"experiment key 'methods' must be a list of strings, got {json.dumps(methods)}")
    if not methods:
        raise ValueError("at least one method must be listed")
    bad = [m for m in methods if m not in METHODS]
    if bad:
        raise ValueError(f"unknown methods {bad}; choose from {sorted(METHODS)}")
    if len(set(methods)) < len(methods):
        raise ValueError(f"methods {sorted({m for m in methods if methods.count(m) > 1})} are listed more than once")
    cfg = reg.config_from_dict(doc["config"])
    if "orders" in doc["config"]:
        raise ValueError("experiment config must not hold 'orders': each method sets it")
    template, reference, lms_t, lms_r, interface_row = _load_pair(doc.get("generator"), doc.get("dataset"))
    spacing = np.asarray(template.geometry.spacing)
    report = {
        "name": name,
        "methods": list(methods),
        "ssd_before": reg.ssd(template, reference),
        "tre_before_mm": tre(lms_r, lms_t, spacing) if lms_t is not None else None,
        "runs": {},
    }
    out_root = os.path.join(out, name)
    existed = os.path.isdir(out_root)
    os.makedirs(out_root, exist_ok=True)
    created = []
    try:
        for method in methods:
            result = reg.optimize(_method_config(cfg, method), template, reference)
            mdir = os.path.join(out_root, method)
            created.append(mdir)
            run = report["runs"][method] = write_registration_artifacts(mdir, result)
            if lms_t is not None:
                run["tre_mm"] = tre(lms_r, lms_t, spacing, result.flow.final_inverse)
            if interface_row is not None:
                run["transition_width_rows"] = transition_width(result.flow.final_inverse, 0, interface_row)
        path = os.path.join(out_root, "report.json")
        created.append(path)
        with open(path, "w") as fh:
            fh.write(json.dumps(report, indent=2) + "\n")
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
    momenta: MomentumSet
    kernel: KernelSpec
    flow: FlowPath
    files: tuple


def demo_momentum(kind: str, out_dir: str | None = None) -> DemoResult:
    """Integrate one momentum at the image center and render the warped grid.

    fig1a: gaussian kernel, zeroth-order momentum (local translation).
    fig1b: gaussian kernel, first-order momentum (smooth local shear).
    fig1c: wendland kernel, first-order momentum (non-smooth sliding).
    """
    if kind not in DEMO_KINDS:
        raise ValueError(f"unknown demo kind {kind!r}; choose from {DEMO_KINDS}")
    geom = _unit_grid(64)
    scale = default_scale(geom)
    center = np.asarray(geom.to_physical([32, 32]), float)
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
    files = []
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        grid_img = warp_image(_grid_image(geom), fp.final_inverse)
        path = os.path.join(out_dir, f"{kind}_grid.pgm")
        _write_pgm_view(path, geom, np.clip(grid_img.values, 0, 255))
        files.append(path)
    return DemoResult(ms, spec, fp, tuple(files))


