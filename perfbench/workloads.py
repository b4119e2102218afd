"""Benchmark workloads: seeded image pairs, solver configs and output bounds.

Every workload registers one synthetic sliding pair with the public
``slidereg.registration.optimize`` at a fixed iteration count
(``stop_rel_tol=0`` turns the relative-decrease stop off, so each solve
does the same amount of descent work). The seed and a realization index
only draw the Gaussian intensity noise added to both images; the phantom
and its analytic inverse map are fixed.

Why each workload is here, and what a faster layer should move on it.
Shares are self-time over traced ``solve_s`` on the seed code (2-vCPU
x86_64 VM); builds count the kernel evaluations they make.

* ``rect2d`` - the paper's headline method (``wendland_both``) on the 64^2
  sliding rectangle at the ``scripts/run_rectangle.py`` weights, 10
  iterations. Dense Gram apply 30%, operator builds 30%, interpolation
  and splat 27%, synthesis 10%; one line-search candidate per accepted
  step. A separable Gram moves ``solve_s`` most here.
* ``wheel2d`` - the classical smooth baseline (``gaussian``,
  ``zeroth_only``) on the 128^2 sliding wheel at the
  ``scripts/run_wheel.py`` weights, stride 4 with scale and window doubled
  to match, 30 iterations. Interpolation and splat 46%, Gram 23%,
  synthesis 23% (17^2 footprint against 9^2 elsewhere), builds 5%; about
  2.1 candidates per step. Cached stencils and cheap Armijo candidates
  move ``solve_s`` most here, a faster build least. It is the only
  workload on the Gaussian branch and on the zeroth-only path, so it
  catches a result change from truncating the Gaussian Gram.
* ``box3d`` - a 24^3 sliding box generated here (``src/`` has no 3D
  generator), ``wendland_both``, 4 iterations. n = 1728 control points:
  builds 32% of ``solve_s`` and most of ``setup_s``, Gram 27%, the final
  ``flow.integrate`` 12% (its largest share), 8-corner stencils; the
  dense Grams (``momenta.gram_bytes``, 96 MB) set ``peak_rss_mb``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.ndimage import gaussian_filter

from slidereg import bench
from slidereg.geometry import DeformationMap, GridGeometry, ScalarImage, interp_values
from slidereg.kernels import KernelSpec
from slidereg.registration import RegistrationConfig

NOISE_SIGMA = 2.0  # intensity units; the phantoms span 0..255


@dataclass(frozen=True)
class Pair:
    """Noisy images, the analytic inverse map and the reference foreground."""

    template: ScalarImage
    reference: ScalarImage
    true_map: DeformationMap
    foreground: np.ndarray


@dataclass(frozen=True)
class Workload:
    """One benchmark case.

    ``generate`` returns the noise-free (template, reference, true_map).
    ``width`` reduces a final inverse map to the sliding transition width
    in rows (None when undefined). ``ssd_ratio_max`` is the output check
    every solve must meet.
    """

    name: str
    generate: Callable[[], tuple]
    config: RegistrationConfig
    width: Callable[[DeformationMap], int | None]
    ssd_ratio_max: float

    def pair(self, seed: int, realization: int = 0) -> Pair:
        template, reference, true_map = self.generate()
        rng = np.random.default_rng([seed, realization])

        def noisy(img: ScalarImage) -> ScalarImage:
            noise = NOISE_SIGMA * rng.standard_normal(img.geometry.dims)
            return ScalarImage(img.geometry, img.values + noise)

        foreground = reference.values > 0.5 * reference.values.max()
        return Pair(noisy(template), noisy(reference), true_map, foreground)


def gen_box(size: int = 24, shift: int = 2):
    """3D extrusion of the sliding rectangle: a bright cube whose upper half
    (axis 0 below ``size // 2``) slides ``+shift`` voxels along the last axis
    and whose lower half slides ``-shift``. The interface is normal to axis
    0. Returns anti-aliased (template, reference) and the analytic inverse
    map, like :func:`slidereg.bench.gen_rectangle`.
    """
    if not 0 < shift < size / 4:
        raise ValueError(f"shift {shift} must lie in (0, size/4) for size {size}")
    yc = size // 2
    lo, hi = size // 4, 3 * size // 4
    template = np.zeros((size,) * 3)
    template[lo:hi, lo:hi, lo:hi] = 255.0
    reference = np.zeros_like(template)
    reference[:yc, :, shift:] = template[:yc, :, :-shift]
    reference[yc:, :, :-shift] = template[yc:, :, shift:]

    geom = GridGeometry((size,) * 3, (1.0,) * 3, (0.0,) * 3)
    targets = geom.node_positions()
    targets[:yc, ..., 2] -= shift  # pull back from the unshifted location
    targets[yc:, ..., 2] += shift

    def blur(v):
        return ScalarImage(geom, gaussian_filter(v, sigma=1.0, mode="nearest"))

    return blur(template), blur(reference), DeformationMap(geom, targets, "inverse")


def rect_width(dmap: DeformationMap) -> int | None:
    """Transition width across the rectangle's horizontal interface."""
    return bench.transition_width(dmap, 0, dmap.geometry.dims[0] // 2)


def box_slice_width(dmap: DeformationMap) -> int | None:
    """Transition width on the central axis-1 slice of a 3D box map.

    The slice keeps axis 0 (interface normal) and axis 2 (slide direction).
    The plateau windows shrink with the box, whose 12 rows fit the default
    windows of the 32-row rectangle only partly.
    """
    size0, size1, size2 = dmap.geometry.dims
    targets = dmap.targets[:, size1 // 2][..., [0, 2]]
    geom = GridGeometry((size0, size2), dmap.geometry.spacing[::2], dmap.geometry.origin[::2])
    return bench.transition_width(
        DeformationMap(geom, targets, "inverse"), 0, size0 // 2, gap=1, plateau_rows=4
    )


def wheel_width(dmap: DeformationMap, ring_radius: float, n_angles: int = 256) -> int | None:
    """Transition width across the wheel's sliding ring.

    Unwraps the map around the grid center into rows of constant radius
    (1-node steps) and columns of constant angle. The value in each polar
    cell is the angular displacement scaled to pixels at the ring radius,
    so a rigid rotation of either part is a constant plateau and a perfect
    slide has width 1, as on the rectangle.
    """
    geom = dmap.geometry
    c = float(geom.dims[0] // 2)
    radii = np.arange(1.0, c)
    theta = np.linspace(-np.pi, np.pi, n_angles, endpoint=False)
    rr, tt = np.meshgrid(radii, theta, indexing="ij")
    dy, dx = rr * np.cos(tt), rr * np.sin(tt)
    pts = np.stack([c + dy, c + dx], axis=-1)
    disp = interp_values(dmap.targets, geom, pts) - pts
    tang = -disp[..., 0] * np.sin(tt) + disp[..., 1] * np.cos(tt)
    polar = GridGeometry(rr.shape, (1.0, 1.0), (0.0, 0.0))
    targets = polar.node_positions()
    targets[..., 1] += tang * ring_radius / rr
    return bench.transition_width(DeformationMap(polar, targets, "inverse"), 0, int(ring_radius) - 1)


def _rect():
    p = bench.gen_rectangle(64, 5)
    return p.template, p.reference, p.true_map


def _wheel():
    p = bench.gen_wheel(128, 5.0, antialias=False)
    return p.template, p.reference, p.true_map


WHEEL_RING = float(round(0.22 * 128))

# run_rectangle.py weights; run_wheel.py weights for the wheel
_RECT_WEIGHTS = dict(T=10, lambda0=0.05, lambda1=0.05, reg_weight=0.2, stop_rel_tol=0.0)
_WHEEL_WEIGHTS = dict(T=10, lambda0=0.005, lambda1=0.005, reg_weight=0.02, stop_rel_tol=0.0)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rect2d",
            _rect,
            RegistrationConfig(
                kernel=KernelSpec("wendland_c0_mult", 4.0, 9),
                orders="zeroth_and_first",
                control_stride=2,
                max_iters=10,
                **_RECT_WEIGHTS,
            ),
            rect_width,
            ssd_ratio_max=0.05,
        ),
        Workload(
            "wheel2d",
            _wheel,
            RegistrationConfig(
                kernel=KernelSpec("gaussian", 8.0, 17),
                orders="zeroth_only",
                control_stride=4,
                max_iters=30,
                **_WHEEL_WEIGHTS,
            ),
            lambda m: wheel_width(m, WHEEL_RING),
            ssd_ratio_max=0.12,
        ),
        Workload(
            "box3d",
            gen_box,
            RegistrationConfig(
                kernel=KernelSpec("wendland_c0_mult", 4.0, 9),
                orders="zeroth_and_first",
                control_stride=2,
                max_iters=4,
                **_RECT_WEIGHTS,
            ),
            box_slice_width,
            ssd_ratio_max=0.08,
        ),
    )
}
