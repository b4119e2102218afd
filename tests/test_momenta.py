import numpy as np
import pytest

from slidereg.geometry import GridGeometry
from slidereg.kernels import KernelSpec
from slidereg.momenta import (
    KernelGrams,
    MomentumSet,
    TimeMomenta,
    VelocityAssembler,
    _Lattice,
    _along,
    _apply,
    _per_order,
    control_lattice,
)

from oracles import block, kernel_nd, mixed_nd, partial_nd

GRID = GridGeometry((24, 24), (1.0, 1.0), (0.0, 0.0))
WEND = KernelSpec("wendland_c0_mult", 4.0, 9)
GAUSS = KernelSpec("gaussian", 4.0, 9)


GRID3 = GridGeometry((9, 8, 7), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
ANISO = GridGeometry((20, 14), (0.7, 1.9), (-3.0, 5.0))
SMALL = KernelSpec("wendland_c0_mult", 2.0, 5)
SMALL_GAUSS = KernelSpec("gaussian", 1.5, 5)


def product_points(*axes):
    """The C-order product of per-axis coordinates, as control_lattice lays out its points."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def random_lattice(rng, shape, lo=6.0, hi=17.0):
    """A product lattice of ``shape`` with random, off-node, unevenly spaced axis coordinates."""
    return product_points(*(np.sort(rng.uniform(lo, hi, k)) for k in shape))


def node_velocity(ms, spec, grid, first_order=True):
    """Velocity of the momentum set ``ms`` at the grid nodes, shape ``dims + (d,)``;
    with ``first_order=False`` its order 0 alone, as the zeroth-only solver synthesizes it."""
    asm = VelocityAssembler(spec, grid, ms.points, first_order)
    return asm.velocity(block(ms.m0, ms.m1, None if first_order else 0)).T.reshape(grid.dims + (grid.ndim,))


def random_set(rng, shape=(2, 2), lo=6.0, hi=17.0):
    return random_momenta(rng, random_lattice(rng, shape, lo, hi))


def random_momenta(rng, pts):
    n, d = pts.shape
    return MomentumSet(pts, rng.standard_normal((n, d)), rng.standard_normal((n, d, d)))


def zeroth_only(ms):
    """The momentum set with its first-order momenta zeroed."""
    return MomentumSet(ms.points, ms.m0, np.zeros_like(ms.m1))


def with_duplicate(pts):
    """The points with the first one repeated at the end."""
    return np.vstack([pts, pts[:1]])


def f_order(pts):
    """A C-order lattice's points reordered so that the first axis varies fastest."""
    d = pts.shape[1]
    dims = tuple(len(np.unique(c)) for c in pts.T)
    return pts.reshape(dims + (d,)).transpose(tuple(reversed(range(d))) + (d,)).reshape(pts.shape)


_AXES = np.random.default_rng(7)

# (spec, grid, points) cases beyond the default 2D unit grid; the gaussian
# windows of the points near the grid corners are clipped by the boundary
OPERATOR_CASES = [
    pytest.param(WEND, GRID3, control_lattice(GRID3, 3), id="wendland-3d-lattice"),
    pytest.param(GAUSS, GRID3, control_lattice(GRID3, 3), id="gaussian-3d-lattice"),
    pytest.param(SMALL, ANISO, control_lattice(ANISO, 3), id="wendland-aniso-offset"),
    pytest.param(SMALL_GAUSS, ANISO, control_lattice(ANISO, 3), id="gaussian-aniso-offset"),
    pytest.param(GAUSS, GRID, product_points(*(_AXES.uniform([0.0, 9.0, 22.0], [1.0, 15.0, 23.0]) for _ in range(2))),
                 id="gaussian-clipped"),
]

# sets that are not a C-order product lattice: every operator refuses them
NON_LATTICE_CASES = [
    pytest.param(WEND, GRID, with_duplicate(control_lattice(GRID, 5)), id="wendland-duplicate"),
    pytest.param(GAUSS, GRID3, with_duplicate(control_lattice(GRID3, 4)), id="gaussian-3d-duplicate"),
    pytest.param(WEND, GRID, _AXES.uniform(6.0, 17.0, (4, 2)), id="wendland-scattered"),
    pytest.param(GAUSS, GRID3, f_order(control_lattice(GRID3, 3)), id="gaussian-3d-f-order"),
]
NON_LATTICE = "C-order product of their per-axis coordinates"


def extended(cases, defaults, variants):
    """Each case with the extra arguments ``defaults``, under its own id, then each
    case again per ``variants`` entry, id suffix to extra arguments."""
    out = [pytest.param(*c.values, *defaults, id=c.id) for c in cases]
    for suffix, extra in variants.items():
        out += [pytest.param(*c.values, *extra, id=f"{c.id}-{suffix}") for c in cases]
    return out


def footprint_oracle(spec, grid, ms):
    """Sum over every (node, point) pair, masked to each point's window."""
    pos = grid.node_positions().reshape(-1, grid.ndim)
    nodes = np.indices(grid.dims).reshape(grid.ndim, -1).T
    half = spec.window // 2
    want = np.zeros_like(pos)
    for j, y in enumerate(ms.points):
        near = np.clip(np.rint(grid.to_index(y)), 0, np.asarray(grid.dims) - 1)
        inside = np.all(np.abs(nodes - near) <= half, axis=1)[:, None]
        want += inside * kernel_nd(spec, pos, y)[:, None] * ms.m0[j]
        for i in range(grid.ndim):
            want += inside * partial_nd(spec, i, pos, y)[:, None] * ms.m1[j, i]
    return want


class TestContainers:
    def test_shape_validation(self, rng):
        pts = rng.uniform(2, 20, (3, 2))
        with pytest.raises(ValueError):
            MomentumSet(pts, np.zeros((3, 2)), np.zeros((3, 2)))

    def test_time_momenta_point_mismatch(self, rng):
        a = MomentumSet.zeros(rng.uniform(2, 20, (3, 2)))
        b = MomentumSet.zeros(rng.uniform(2, 20, (3, 2)))
        with pytest.raises(ValueError):
            TimeMomenta((a, b))

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 2)], ids=["2d", "3d"])
    def test_time_momenta_steps_are_views_of_one_read_only_block(self, rng, shape):
        pts = random_lattice(rng, shape)
        n, d = pts.shape
        m0, m1 = rng.standard_normal((4, n, d)), rng.standard_normal((4, n, d, d))
        tm = TimeMomenta(tuple(MomentumSet(pts, m0[k], m1[k]) for k in range(4)))
        # component-major (T, d + 1, d, n): order 0 first, then the slots, each a
        # C-contiguous (d, n) slab; the zeroth-only engine reads the order-0 prefix
        assert tm.block.shape == (4, d + 1, d, n) and tm.block.flags.c_contiguous and not tm.block.flags.writeable
        np.testing.assert_array_equal(tm.block[:, 0], np.swapaxes(m0, 1, 2))
        np.testing.assert_array_equal(tm.block[:, 1:], np.moveaxis(m1, 1, 3))
        np.testing.assert_array_equal(tm.block, block(m0, m1))
        np.testing.assert_array_equal(tm.block[:, :1], block(m0, m1, 0))
        assert tm.points is not pts and np.array_equal(tm.points, pts) and not tm.points.flags.writeable
        for k, ms in enumerate(tm.steps):
            assert ms.points is tm.points
            assert np.array_equal(ms.m0, m0[k]) and np.array_equal(ms.m1, m1[k])
            assert np.shares_memory(ms.m0, tm.block[k, 0]) and np.shares_memory(ms.m1, tm.block[k, 1:])
        with pytest.raises(ValueError, match="read-only"):
            tm.block[0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            tm.steps[1].m0[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            tm.steps[2].m1[0, 0, 0] = 1.0
        np.testing.assert_array_equal(tm.block, block(m0, m1))

    def test_time_momenta_zeros_allocates_one_block(self):
        # the zero block and a read-only copy of the points, no per-step sets
        import tracemalloc

        pts = control_lattice(GridGeometry((32, 32, 32), (1.0,) * 3, (0.0,) * 3), 2)
        tracemalloc.start()
        try:
            tm = TimeMomenta.zeros(pts, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, d = pts.shape
        assert tm.block.shape == (10, d + 1, d, n) and not np.any(tm.block) and not tm.block.flags.writeable
        assert all(ms.points is tm.points for ms in tm.steps)
        # the block is 3,932,160 B and the points 98,304 B; the margin covers the step views
        assert peak <= tm.block.nbytes + pts.nbytes + 32 * 1024

    @pytest.mark.parametrize("T", [0, -1])
    def test_time_momenta_zeros_needs_a_step(self, T):
        with pytest.raises(ValueError, match="need at least one timestep"):
            TimeMomenta.zeros(control_lattice(GRID, 4), T)

    def test_control_lattice_stride(self):
        pts = control_lattice(GRID, 2)
        assert pts.shape == (144, 2)
        assert pts.min() == 0.0 and pts.max() == 22.0

    @pytest.mark.parametrize("stride", [2.5, True], ids=repr)
    def test_control_lattice_stride_must_be_an_integer(self, stride):
        # a stride of 2.5 used to build a lattice with nodes halfway between grid nodes
        with pytest.raises(ValueError, match="stride must be an integer"):
            control_lattice(GRID, stride)


class TestSynthVelocity:
    def test_zero_momenta_zero_field(self, rng):
        ms = MomentumSet.zeros(random_lattice(rng, (3, 2), 4.0, 20.0))
        v = node_velocity(ms, WEND, GRID)
        assert np.all(v == 0.0)

    @pytest.mark.parametrize("spec", [WEND, GAUSS])
    def test_single_zeroth_momentum_reproduces_at_center(self, spec):
        pts = np.array([[12.0, 12.0]])
        a = np.array([0.7, -1.3])
        ms = MomentumSet(pts, a[None, :], np.zeros((1, 2, 2)))
        v = node_velocity(ms, spec, GRID)
        np.testing.assert_allclose(v[12, 12], a, atol=1e-14)

    def test_first_order_sign_flip_across_kink(self):
        pts = np.array([[12.0, 12.0]])
        m1 = np.zeros((1, 2, 2))
        m1[0, 0] = [0.0, 1.0]  # slot along rows, vector along columns
        ms = MomentumSet(pts, np.zeros((1, 2)), m1)
        v = node_velocity(ms, WEND, GRID)
        # rows mirrored about the control row see opposite tangential velocity
        for off in (1, 2, 3):
            assert v[12 - off, 12, 1] == pytest.approx(-v[12 + off, 12, 1])
            assert v[12 + off, 12, 1] != 0.0
        assert v[12, 12, 1] == 0.0  # kink convention at the control row

    def test_linearity_doubling(self, rng):
        ms = random_set(rng)
        v1 = node_velocity(ms, WEND, GRID)
        doubled = MomentumSet(ms.points, 2 * ms.m0, 2 * ms.m1)
        v2 = node_velocity(doubled, WEND, GRID)
        np.testing.assert_allclose(v2, 2 * v1, rtol=1e-13, atol=1e-15)

    def test_compact_locality(self, rng):
        ms = random_set(rng, (2, 2), 8.0, 14.0)
        v = node_velocity(ms, WEND, GRID)
        pos = GRID.node_positions()
        far = np.ones(GRID.dims, bool)
        for p in ms.points:
            far &= np.max(np.abs(pos - p), axis=-1) >= WEND.scale
        assert far.any()
        assert np.all(v[far] == 0.0)

    def test_out_of_domain_points_rejected(self):
        ms = MomentumSet.zeros(np.array([[40.0, 4.0]]))
        with pytest.raises(ValueError):
            node_velocity(ms, WEND, GRID)

    @pytest.mark.parametrize(
        "spec, grid, points, first_order",
        extended([pytest.param(WEND, GRID, None, id="wendland-2d")] + OPERATOR_CASES, (True,), {"zeroth": (False,)}),
    )
    def test_matches_brute_force_sum(self, spec, grid, points, first_order, rng):
        ms = random_set(rng, (3, 2), 8.0, 15.0) if points is None else random_momenta(rng, points)
        got = node_velocity(ms, spec, grid, first_order).reshape(-1, grid.ndim)
        want = footprint_oracle(spec, grid, ms if first_order else zeroth_only(ms))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("spec, grid, points", NON_LATTICE_CASES)
    def test_refuses_non_lattice(self, spec, grid, points):
        # a scattered set used to be embedded in the product of its coordinates,
        # n^d nodes for n points, and repeated points had their momenta summed
        with pytest.raises(ValueError, match=NON_LATTICE):
            node_velocity(MomentumSet.zeros(points), spec, grid)


def gram_energy(ms, spec):
    """Kernel-norm energy of a momentum set, as the solver's Grams evaluate it."""
    return KernelGrams(spec, ms.points).energy(block(ms.m0, ms.m1))


def dense_gram_energy(ms, spec):
    """Kernel-norm energy of a momentum set, one dense kernel column K(x_j, x_k) at a time."""
    want = 0.0
    for k, y in enumerate(ms.points):
        want += ms.m0 @ ms.m0[k] @ kernel_nd(spec, ms.points, y)
        for i in range(ms.points.shape[1]):
            want += ms.m1[:, i] @ ms.m1[k, i] @ mixed_nd(spec, i, ms.points, y)
    return want


class TestVEnergy:
    def test_zero_momenta(self, rng):
        assert gram_energy(MomentumSet.zeros(random_lattice(rng, (2, 2), 4.0, 20.0)), WEND) == 0.0

    @pytest.mark.parametrize("spec", [WEND, GAUSS])
    def test_single_zeroth_momentum_norm(self, spec):
        a = np.array([1.5, -2.0])
        ms = MomentumSet(np.array([[10.0, 10.0]]), a[None, :], np.zeros((1, 2, 2)))
        assert gram_energy(ms, spec) == pytest.approx(float(a @ a))

    @pytest.mark.parametrize(
        "spec, grid, points, first_order, steps",
        extended(
            [pytest.param(WEND, GRID, None, id="spec0"), pytest.param(GAUSS, GRID, None, id="spec1")] + OPERATOR_CASES,
            (True, None),
            {"zeroth": (False, None), "steps": (True, 3)},
        ),
    )
    def test_matches_dense_gram_oracle(self, spec, grid, points, first_order, steps, rng):
        # ``steps`` stacks that many sets on a leading step axis, as the solver's block does
        points = random_lattice(rng, (2, 3)) if points is None else points
        sets = [random_momenta(rng, points) for _ in range(steps or 1)]
        if not first_order:
            sets = [zeroth_only(ms) for ms in sets]
        M = np.stack([block(ms.m0, ms.m1, None if first_order else 0) for ms in sets])
        got = KernelGrams(spec, points, first_order).energy(M if steps else M[0])
        want = sum(dense_gram_energy(ms, spec) for ms in sets)
        assert got == pytest.approx(want, rel=1e-12)

    def test_gaussian_energy_nonnegative(self, rng):
        # the smooth family has a true positive-semidefinite per-order Gram
        for _ in range(20):
            ms = random_set(rng, (3, 2))
            scale = max(np.sum(ms.m0**2) + np.sum(ms.m1**2), 1.0)
            assert gram_energy(ms, GAUSS) >= -1e-8 * scale

    def test_wendland_zeroth_energy_nonnegative(self, rng):
        for _ in range(20):
            ms = random_set(rng, (3, 2))
            only0 = MomentumSet(ms.points, ms.m0, np.zeros_like(ms.m1))
            scale = max(np.sum(ms.m0**2), 1.0)
            assert gram_energy(only0, WEND) >= -1e-8 * scale

    def test_grams_grad_matches_quadratic_form(self, rng):
        ms = random_set(rng, (2, 3))
        grams = KernelGrams(WEND, ms.points)
        M = block(ms.m0, ms.m1)
        G = grams.grad(M)
        eps = 1e-6
        D = rng.standard_normal(M.shape)
        dd = (grams.energy(M + eps * D) - grams.energy(M - eps * D)) / (2 * eps)
        assert float(np.sum(G * D)) == pytest.approx(dd, rel=1e-7)

    @pytest.mark.parametrize("first_order", [True, False], ids=["both", "zeroth"])
    @pytest.mark.parametrize("steps", [(), (3,)], ids=["one-step", "steps"])
    def test_matches_per_order_loop(self, first_order, steps, rng):
        # energy and grad apply one order's Gram at a time, bit for bit like a loop
        points = random_lattice(rng, (3, 4))
        grams, lat = KernelGrams(WEND, points, first_order), _Lattice(points)
        M = rng.standard_normal(steps + (3 if first_order else 1, 2, len(points)))
        total, want = 0.0, np.empty(M.shape)
        for o, ops in enumerate(grams.ops):
            P = lat.gather(_apply(ops, lat.scatter(M[..., o, :, :])))
            total += np.sum(P * M[..., o, :, :])
            want[..., o, :, :] = 2.0 * P
        assert grams.energy(M) == total
        np.testing.assert_array_equal(grams.grad(M), want)
        np.testing.assert_array_equal(grams.grad(M, out=M), want)

    def test_last_axis_contraction_reads_a_strided_slab_in_place(self, rng):
        # an order's slab of a multi-step block is strided over the steps; a GEMM
        # over every leading row at once copied it first, one more slab of scratch
        import tracemalloc

        points = control_lattice(GRID3, 2)
        grams = KernelGrams(WEND, points)
        M = rng.standard_normal((5, 4, 3, len(points)))
        X = grams.lattice.scatter(M[:, 1])
        assert not X.flags.c_contiguous
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            Y = _along(*grams.ops[1][-1], X, X.ndim - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(Y, grams.lattice.scatter(M[:, 1].copy()) @ grams.ops[1][-1][1])
        assert peak - entry <= Y.nbytes + 2_000

    @pytest.mark.parametrize("spec, grid, points", NON_LATTICE_CASES)
    def test_refuses_non_lattice(self, spec, grid, points):
        with pytest.raises(ValueError, match=NON_LATTICE):
            KernelGrams(spec, points)


class TestAssemblerAdjoint:
    @pytest.mark.parametrize(
        "spec, grid, points, first_order",
        extended(
            [
                pytest.param(WEND, GRID, control_lattice(GRID, 4), id="spec0"),
                pytest.param(GAUSS, GRID, control_lattice(GRID, 4), id="spec1"),
            ]
            + OPERATOR_CASES,
            (True,),
            {"zeroth": (False,)},
        ),
    )
    def test_adjoint_identity(self, spec, grid, points, first_order, rng):
        asm = VelocityAssembler(spec, grid, points, first_order)
        n, d = points.shape
        M = rng.standard_normal((d + 1 if first_order else 1, d, n))
        vbar = rng.standard_normal((d, grid.node_count))
        v = asm.velocity(M)
        A = asm.adjoint(vbar)
        assert A.shape == M.shape
        lhs = float(np.sum(v * vbar))
        rhs = float(np.sum(M * A))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("spec, grid, points, first_order", extended(OPERATOR_CASES, (True,), {"zeroth": (False,)}))
    def test_sum_factorization_matches_per_order_products(self, spec, grid, points, first_order, rng):
        # the orders one by one, each a Kronecker product; a single order runs in
        # _apply's axis order in 2D, so zeroth-only 2D results are equal bit for bit
        asm, lat = VelocityAssembler(spec, grid, points, first_order), _Lattice(points)
        orders = _per_order(asm.k, asm.dk)
        d = grid.ndim
        M = rng.standard_normal((len(orders), d, len(points)))
        vbar = rng.standard_normal((d, grid.node_count))
        V = np.reshape(vbar, (d,) + grid.dims)
        want_v = sum(_apply(pairs, lat.scatter(m)) for pairs, m in zip(orders, M)).reshape(d, -1)
        want_a = np.stack([lat.gather(_apply([p[::-1] for p in pairs], V)) for pairs in orders])
        for got, want in ((asm.velocity(M), want_v), (asm.adjoint(vbar), want_a)):
            if d == 2 and not first_order:
                np.testing.assert_array_equal(got, want)
            else:
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("spec, grid, points", NON_LATTICE_CASES)
    def test_refuses_non_lattice(self, spec, grid, points):
        with pytest.raises(ValueError, match=NON_LATTICE):
            VelocityAssembler(spec, grid, points)


class TestLattice:
    @pytest.mark.parametrize(
        "points, shape",
        [(control_lattice(GRID3, 3), (3, 3, 3)), (np.array([[3.5, 7.25]]), (1, 1)),
         (product_points([0.5, 2.0, 9.75], [1.0, 1.5]), (3, 2))],
        ids=["control-lattice", "single-point", "non-uniform-product"],
    )
    def test_scatter_and_gather_are_reshapes(self, points, shape, rng):
        lattice = _Lattice(points)
        assert lattice.shape == shape
        for a, u in enumerate(lattice.axes):
            np.testing.assert_array_equal(u, np.unique(points[:, a]))
        m = rng.standard_normal((4, 2, len(points)))
        np.testing.assert_array_equal(lattice.scatter(m), m.reshape((4, 2) + shape))
        np.testing.assert_array_equal(lattice.gather(lattice.scatter(m)), m)

    @pytest.mark.parametrize("spec, grid, points", NON_LATTICE_CASES)
    def test_refuses_non_lattice(self, spec, grid, points):
        with pytest.raises(ValueError, match=NON_LATTICE):
            _Lattice(points)


class TestLatticeScale:
    def test_48_cubed_control_lattice(self):
        # n = 13,824 control points: dense Grams would need about 6 GB
        grid = GridGeometry((48, 48, 48), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
        pts = control_lattice(grid, 2)
        n = pts.shape[0]
        assert n == 13824
        asm = VelocityAssembler(WEND, grid, pts)
        grams = KernelGrams(WEND, pts)
        j = int(np.flatnonzero(np.all(pts == [24.0, 10.0, 36.0], axis=1))[0])
        a = np.array([0.5, -1.0, 2.0])
        M = np.zeros((4, 3, n))
        M[0, :, j] = a
        v = asm.velocity(M).reshape((3,) + grid.dims)
        np.testing.assert_allclose(v[:, 24, 10, 36], a, atol=1e-14)
        assert grams.energy(M) == pytest.approx(float(a @ a), rel=1e-14)
