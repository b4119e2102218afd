"""A solve commutes with permuting the axes of its input pair.

On a control lattice that the permutation maps onto itself, transposing a
2D pair or permuting the axes of a 3D pair permutes everything a
3-iteration solve returns: the momenta (lattice index, components and
first-order slots alike), both end maps and the warped template. The
energy trace and the line search are unchanged.
"""
import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from slidereg.bench import METHODS, gen_rectangle
from slidereg.geometry import GridGeometry, ScalarImage
from slidereg.kernels import KernelSpec
from slidereg.registration import RegistrationConfig, optimize

RTOL = 1e-12


def config(method):
    """The rectangle script's weights for ``method``, 3 iterations."""
    family, orders = METHODS[method]
    return RegistrationConfig(
        KernelSpec(family, 4.0, 9), orders, T=10, lambda0=0.05, lambda1=0.05, reg_weight=0.2,
        max_iters=3, control_stride=2,
    )


def box_pair(size=24, shift=2):
    """A blurred bright cube and the same cube with the half before the middle
    of axis 0 slid ``+shift`` voxels along the last axis, the other half ``-shift``."""
    geom = GridGeometry((size,) * 3, (1.0,) * 3, (0.0,) * 3)
    lo, hi, mid = size // 4, 3 * size // 4, size // 2
    template = np.zeros(geom.dims)
    template[lo:hi, lo:hi, lo:hi] = 255.0
    reference = np.zeros_like(template)
    reference[:mid, :, shift:] = template[:mid, :, :-shift]
    reference[mid:, :, :-shift] = template[mid:, :, shift:]
    return [ScalarImage(geom, gaussian_filter(v, sigma=1.0, mode="nearest")) for v in (template, reference)]


def permute(F, p, lead=0, vec=1):
    """``F`` with ``lead`` leading axes, then one axis per node axis, then ``vec``
    vector axes of length d: its node axes permuted by ``p``, and the entries
    along each vector axis too."""
    axes = tuple(range(lead)) + tuple(lead + a for a in p) + tuple(range(lead + len(p), F.ndim))
    F = np.transpose(F, axes)
    for k in range(1, vec + 1):
        F = np.take(F, p, axis=-k)
    return F


def permuted_image(img, p):
    g = img.geometry
    geom = GridGeometry(*(tuple(v[a] for a in p) for v in (g.dims, g.spacing, g.origin)))
    return ScalarImage(geom, permute(img.values, p, vec=0))


def assert_close(got, want):
    """Relative to ``want`` in the 2-norm, as rounding differences across a descent go."""
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= RTOL * np.linalg.norm(want)


def lattice_arrays(result):
    """Points, m0 and m1 of a solve, the point index unravelled onto the lattice."""
    tm = result.momenta
    shape = tuple(np.unique(c).size for c in tm.points.T)
    d = len(shape)
    return (
        tm.points.reshape(shape + (d,)),
        np.array([ms.m0 for ms in tm.steps]).reshape((tm.T,) + shape + (d,)),
        np.array([ms.m1 for ms in tm.steps]).reshape((tm.T,) + shape + (d, d)),
    )


def assert_permuted(got, want, p):
    """The solve ``got`` on the pair with axes permuted by ``p`` is the solve ``want`` permuted."""
    (gp, g0, g1), (wp, w0, w1) = lattice_arrays(got), lattice_arrays(want)
    np.testing.assert_array_equal(gp, permute(wp, p))
    assert_close(g0, permute(w0, p, lead=1))
    assert_close(g1, permute(w1, p, lead=1, vec=2))
    for name in ("final", "final_inverse"):
        assert_close(getattr(got.flow, name).targets, permute(getattr(want.flow, name).targets, p))
    assert_close(got.warped.values, permute(want.warped.values, p, vec=0))
    np.testing.assert_allclose(np.array(got.energy_trace), np.array(want.energy_trace), rtol=RTOL, atol=0)
    assert [s.candidates for s in got.line_search] == [s.candidates for s in want.line_search]


@pytest.mark.parametrize("method", ["gaussian", "wendland_both"])
def test_transposed_rectangle_transposes_the_solve(method):
    # 64^2 at stride 2: the lattice 0, 2, ..., 62 on both axes maps onto itself
    pair = gen_rectangle(64, 5)
    cfg = config(method)
    p = (1, 0)
    want = optimize(cfg, pair.template, pair.reference)
    got = optimize(cfg, permuted_image(pair.template, p), permuted_image(pair.reference, p))
    assert_permuted(got, want, p)


def test_permuted_box_permutes_the_solve():
    I0, I1 = box_pair()
    cfg = config("wendland_both")
    p = (2, 0, 1)
    want = optimize(cfg, I0, I1)
    got = optimize(cfg, permuted_image(I0, p), permuted_image(I1, p))
    assert_permuted(got, want, p)
