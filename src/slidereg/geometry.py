"""Discrete grids, scalar images, deformation maps, and interpolation.

All spatial math runs in physical coordinates: the node with multi-index
``k`` sits at ``origin + k * spacing``. Arrays are row-major with axis 0
slowest. Every container is immutable after construction (the backing
numpy arrays are marked read-only), so instances are safe to share across
threads. Containers that hold arrays compare and hash by identity, as an
elementwise ``==`` has no single truth value. Containers hold node data node-major,
``dims + (c,)``; :class:`Stencil` takes rows, (d, m) points, (c, node_count) node data
and (c, m) samples, and :func:`interp_values`, :func:`interp_with_point_grad` and
:func:`splat_adjoint` convert between the two.
"""
from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridGeometry",
    "ScalarImage",
    "DeformationMap",
    "LandmarkSet",
    "warp_image",
    "box_downsample",
    "identity_map",
    "Stencil",
    "interp_values",
    "interp_with_point_grad",
    "splat_adjoint",
]


def _count(name: str, v) -> int:
    """``v`` as an int; ``9.0`` counts, while ``9.7``, ``True`` or ``"9"`` raise ValueError."""
    integral = isinstance(v, numbers.Integral) or (isinstance(v, float) and v.is_integer())
    if isinstance(v, bool) or not integral:
        raise ValueError(f"{name} must be an integer, got {v!r}")
    return int(v)


def _real(name: str, v) -> float:
    """``v`` as a float; ``True``, ``"0.1"`` or ``None`` raise ValueError."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {v!r}")
    return float(v)


def _flag(name: str, v) -> bool:
    """``v`` if it is a bool; ``1``, ``"no"`` or ``None`` raise ValueError."""
    if not isinstance(v, bool):
        raise ValueError(f"{name} must be true or false, got {v!r}")
    return v


def _readonly(a):
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class GridGeometry:
    """Regular rectangular grid over a 2D or 3D physical domain."""

    dims: tuple[int, ...]
    spacing: tuple[float, ...]
    origin: tuple[float, ...]

    def __post_init__(self):
        dims = tuple(_count("dims", n) for n in self.dims)
        spacing = tuple(float(s) for s in self.spacing)
        origin = tuple(float(o) for o in self.origin)
        if len(dims) not in (2, 3):
            raise ValueError(f"grid must be 2D or 3D, got {len(dims)} axes")
        if not (len(dims) == len(spacing) == len(origin)):
            raise ValueError("dims, spacing, origin must have equal length")
        if any(n < 2 for n in dims):
            raise ValueError(f"every axis needs at least 2 nodes, got {dims}")
        if not all(math.isfinite(s) and s > 0 for s in spacing):
            raise ValueError(f"spacing must be finite and positive, got {spacing}")
        if not all(math.isfinite(o) for o in origin):
            raise ValueError(f"origin must be finite, got {origin}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", origin)

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def node_count(self) -> int:
        return math.prod(self.dims)

    @property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) physical corners of the node bounding box."""
        lo = np.asarray(self.origin, float)
        hi = lo + (np.asarray(self.dims, float) - 1.0) * np.asarray(self.spacing, float)
        return lo, hi

    def node_positions(self) -> np.ndarray:
        """Physical node coordinates, shape ``dims + (ndim,)``."""
        axes = [
            self.origin[a] + self.spacing[a] * np.arange(self.dims[a])
            for a in range(self.ndim)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def to_physical(self, index_pts) -> np.ndarray:
        """Map (fractional) index coordinates to physical coordinates."""
        idx = np.asarray(index_pts, float)
        return np.asarray(self.origin) + idx * np.asarray(self.spacing)

    def to_index(self, phys_pts) -> np.ndarray:
        """Map physical coordinates to (fractional) index coordinates."""
        p = np.asarray(phys_pts, float)
        return (p - np.asarray(self.origin)) / np.asarray(self.spacing)


@dataclass(frozen=True, eq=False)
class ScalarImage:
    """Scalar intensities on a grid; ``values`` has shape ``geometry.dims``."""

    geometry: GridGeometry
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, float)
        if v.shape != self.geometry.dims:
            raise ValueError(
                f"values shape {v.shape} does not match grid dims {self.geometry.dims}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("image values must be finite")
        object.__setattr__(self, "values", _readonly(v))


@dataclass(frozen=True, eq=False)
class DeformationMap:
    """Per-node mapped physical positions; direction 'forward' or 'inverse'.

    A forward map transports material points ahead in time; an inverse map
    is the pull-back used to warp images (``warped(x) = image(inverse(x))``).
    """

    geometry: GridGeometry
    targets: np.ndarray
    direction: str

    def __post_init__(self):
        t = np.asarray(self.targets, float)
        want = self.geometry.dims + (self.geometry.ndim,)
        if t.shape != want:
            raise ValueError(f"targets shape {t.shape} != expected {want}")
        if not np.all(np.isfinite(t)):
            raise ValueError("map targets must be finite")
        if self.direction not in ("forward", "inverse"):
            raise ValueError(f"direction must be 'forward' or 'inverse', got {self.direction!r}")
        object.__setattr__(self, "targets", _readonly(t))

    def displacement(self) -> np.ndarray:
        """targets − identity, shape ``dims + (ndim,)``."""
        return self.targets - self.geometry.node_positions()


@dataclass(frozen=True, eq=False)
class LandmarkSet:
    """Landmark points in zero-based voxel index coordinates.

    :func:`fileio.read_landmarks` converts 1-based files on reading.
    """

    points: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.points, float)
        if p.ndim != 2 or p.shape[1] not in (2, 3):
            raise ValueError(f"points must be (n, 2) or (n, 3), got {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError("landmark coordinates must be finite")
        object.__setattr__(self, "points", _readonly(p))

    def __len__(self) -> int:
        return self.points.shape[0]


def identity_map(geom: GridGeometry, direction: str = "forward") -> DeformationMap:
    return DeformationMap(geom, geom.node_positions(), direction)


# ---------------------------------------------------------------------------
# Multilinear interpolation core.
#
# Sample points outside the node bounding box are clamped to the nearest
# boundary face before interpolation, so the interpolant extends constantly
# past the boundary along each clamped axis.
# ---------------------------------------------------------------------------


def _locate(geom: GridGeometry, pts: np.ndarray, base, frac) -> None:
    """Fill the flat lowest-corner index ``base`` (m,) and the in-cell fractions
    ``frac`` (d, m) of the (d, m) points ``pts``.

    Each axis is worked in its own rows with ``out=`` ufuncs: ``frac[a]`` holds
    the index coordinate of row ``pts[a]``, then its clamp to the node range,
    then the fraction; the axis's cell index, the one temporary, folds into
    ``base * dims[a] + cell``.
    """
    for a in range(geom.ndim):
        u = frac[a]
        np.subtract(pts[a], geom.origin[a], out=u)
        np.divide(u, geom.spacing[a], out=u)
        np.maximum(u, 0.0, out=u)
        np.minimum(u, geom.dims[a] - 1.0, out=u)
        cell = u.astype(np.intp)  # truncation, which is the floor of the clamped u >= 0
        np.minimum(cell, geom.dims[a] - 2, out=cell)
        u -= cell
        if a:
            base *= geom.dims[a]
            base += cell
        else:
            base[...] = cell


@functools.lru_cache(maxsize=64)
def _corners(dims: tuple[int, ...]) -> tuple:
    """The 2^d cell corners of a grid of ``dims``, each a bit tuple with its flat
    node offset, in lexicographic bit order (the last axis's bit flips fastest)."""
    strides = [math.prod(dims[a + 1:]) for a in range(len(dims))]
    return tuple(
        (c, sum(s for s, bit in zip(strides, c) if bit)) for c in itertools.product((0, 1), repeat=len(dims))
    )


class Stencil:
    """Multilinear interpolation stencil of the (d, m) points ``pts`` on a grid,
    whose methods take and return rows: (c, node_count) node data, (c, m)
    samples and their adjoints, and (d, m) point derivatives.

    Locates the points once and keeps the flat index of each point's lowest
    cell corner (``base``) and its in-cell fractions (``frac``, (d, m)); the
    gather, its contracted point derivative and its transpose (the splat)
    share that lookup. Corner weights are recomputed per use, not stored 2^d
    times, always in the same corner and axis order, so gather and splat
    match a per-corner loop bit for bit; point_grad_dot regroups its sums.

    A corner's weight is the left-to-right product over the axes of
    ``1 - frac`` or ``frac`` by corner bit. Corners come in lexicographic bit
    order, so the corners that share their first bits are consecutive and
    share the product over those axes: it is formed once, as a prefix, and
    a 3D call makes 4 + 8 = 12 multiplies instead of 8 x 2 = 16, each
    rounding as the left-to-right product does. Each corner's node data is
    taken into one reused buffer by ``np.take(..., out=, mode="wrap")``: the
    indices ``base + offset`` lie in range by construction, so wrapping
    never changes one; ``mode="raise"`` would stage ``out`` in a copy, and
    ``"wrap"`` takes faster than ``"clip"``; ``np.take`` copies rows that are not C-contiguous.

    ``buffers`` is ``(base, frac)``, arrays of shapes (m,) and (d, m) that
    the stencil fills and keeps; fresh ones by default.
    """

    def __init__(self, geom: GridGeometry, pts: np.ndarray, buffers=None):
        self.geom = geom
        if buffers is None:
            buffers = np.empty(pts.shape[1], np.intp), np.empty(pts.shape)
        self.base, self.frac = buffers
        _locate(geom, pts, self.base, self.frac)
        self.corners = _corners(geom.dims)

    def _weights(self):
        """Corner weights in ``corners`` order, as shared prefix products: row a - 1
        of one (d - 1, m) block holds the product over axes 0..a of the current
        corner, and only the rows from the first axis whose bit changed are
        re-formed. Each weight is yielded in the block's last row, which the next
        corner overwrites."""
        fac, d = (1.0 - self.frac, self.frac), len(self.frac)
        prefix = np.empty((d - 1, self.base.size))
        for j, (corner, _) in enumerate(self.corners):
            # corner j first differs from corner j - 1 on the axis of j's lowest set bit
            changed = d - (j & -j).bit_length() if j else 0
            for a in range(max(changed, 1), d):
                left = prefix[a - 2] if a > 1 else fac[corner[0]][0]
                np.multiply(left, fac[corner[a]][a], out=prefix[a - 1])
            yield prefix[-1]

    def _take(self, rows: np.ndarray, off: int, idx: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The rows of the corner at flat offset ``off`` into ``out``, through the index buffer ``idx``."""
        np.add(self.base, off, out=idx, dtype=np.intp)
        return np.take(rows, idx, axis=1, out=out, mode="wrap")

    def gather(self, rows: np.ndarray, out=None) -> np.ndarray:
        """Interpolate the (c, node_count) node data ``rows`` at the points into
        ``out``, a (c, m) block that must not overlap ``rows`` (fresh by
        default), and return it. The first corner is taken straight into ``out``.
        """
        acc = np.empty((len(rows), self.base.size)) if out is None else out
        idx, corner = np.empty(self.base.size, np.intp), np.empty(acc.shape)
        for j, ((_, off), w) in enumerate(zip(self.corners, self._weights())):
            for row in self._take(rows, off, idx, corner if j else acc):
                row *= w  # channel by channel: a broadcast stages a buffer for small m
            if j:
                acc += corner
        return acc

    def point_grad_dot(self, rows: np.ndarray, adj) -> np.ndarray:
        """Derivative of :meth:`gather` of ``rows`` with respect to the point,
        contracted with ``adj`` (a (c, m) block like :meth:`gather`'s output)
        over the channels: a (d, m) block, zero along any axis on which the
        point was clamped.
        Each corner's node data is dotted with ``adj`` once; along axis a, the
        differences of those dots across a are weighted by the other axes' factors.

        Axis a passes the point through where ``frac[a] < 1`` and either
        ``frac[a] > 0`` or the point's axis-a cell index is above 0. As
        ``frac = u - cell`` is exact, that is ``0 < u < dims[a] - 1`` for the
        point's unclamped index coordinate u. Those 0 / 1 factors fill the
        output block before the differences; a cell index is worked out from
        ``base`` only for the points on a node plane (``frac[a] == 0``)."""
        d, m = self.geom.ndim, self.base.size
        dots = np.empty((len(self.corners), m))
        idx, corner = np.empty(m, np.intp), np.empty(adj.shape)
        for j, (_, off) in enumerate(self.corners):
            np.einsum("cn,cn->n", self._take(rows, off, idx, corner), adj, out=dots[j])
        del idx, corner  # before the pass-through and the differences' scratch
        dots = dots.reshape((2,) * d + (m,))
        # out starts as the 0 / 1 pass-through factors; on a node plane the cell
        # index is above 0 where base is at least stride past its multiple of
        # stride * dims[a]
        out = np.less(self.frac, 1.0, out=np.empty((d, m)))
        for a, stride in enumerate(math.prod(self.geom.dims[a + 1:]) for a in range(d)):
            plane = self.frac[a] == 0.0
            cells = self.base[plane]
            cells %= stride * self.geom.dims[a]
            out[a][plane] = cells >= stride  # out[a, plane] takes a slower indexing path
        del plane, cells  # before the differences' scratch
        inv_spacing = 1.0 / np.asarray(self.geom.spacing)
        diff = np.empty((2,) * (d - 1) + (m,))
        for a in range(d):
            lo, hi = np.moveaxis(dots, a, 0)
            t = np.subtract(hi, lo, out=diff)
            for b in [b for b in reversed(range(d)) if b != a]:
                # lerp in place, rounding like t * (1 - frac) + t1 * frac
                t, t1 = t[..., 0, :], t[..., 1, :]
                t *= 1.0 - self.frac[b]
                t1 *= self.frac[b]
                t += t1
            t *= inv_spacing[a]
            out[a] *= t  # a 0 / 1 factor times t rounds as t alone or gives a signed 0
        return out

    def splat(self, adj) -> np.ndarray:
        """Transpose of :meth:`gather`: accumulate the (c, m) block ``adj`` onto
        the nodes as a (c, node_count) block.

        Corner by corner, in ``corners`` order, ``np.add.at`` scatters each channel's
        weight-times-adjoint products, formed in one reused buffer, into one zeroed
        (c, node_count) block, so every node sums in the order of a per-corner loop.
        """
        m = self.base.size
        out = np.zeros((len(adj), self.geom.node_count))
        idx, prod = np.empty(m, np.intp), np.empty(m)
        for (_, off), w in zip(self.corners, self._weights()):
            np.add(self.base, off, out=idx, dtype=np.intp)
            for row, col in zip(out, adj):
                np.add.at(row, idx, np.multiply(w, col, out=prod))
        return out


def _node_rows(values: np.ndarray, geom: GridGeometry) -> np.ndarray:
    """Node data of shape ``dims`` or ``dims + (c,)`` as contiguous (c, node_count) rows."""
    return np.ascontiguousarray(np.reshape(values, (geom.node_count, -1)).T)


def _located(geom: GridGeometry, pts):
    """The leading shape of the points ``pts`` (..., d) and their stencil, located through a (d, m) row view."""
    pts = np.asarray(pts, float)
    return pts.shape[:-1], Stencil(geom, pts.reshape(-1, geom.ndim).T)


def interp_values(values: np.ndarray, geom: GridGeometry, pts) -> np.ndarray:
    """Multilinear interpolation of node data at physical points.

    ``values`` has shape ``dims`` (scalar) or ``dims + (c,)`` (c channels);
    ``pts`` has shape ``(..., d)``. Returns shape ``(...,)`` or ``(..., c)``.
    """
    lead, st = _located(geom, pts)
    return st.gather(_node_rows(values, geom)).T.reshape(lead + values.shape[geom.ndim:])


def interp_with_point_grad(values: np.ndarray, geom: GridGeometry, pts):
    """Interpolated values and their derivative with respect to the point.

    Returns ``(vals, grad)``; ``grad`` has shape ``lead + channels + (d,)``
    with ``grad[..., a] = d(vals)/dp_a``, one :meth:`Stencil.point_grad_dot`
    per channel with a unit adjoint.
    """
    lead, st = _located(geom, pts)
    nodes = _node_rows(values, geom)
    vals = st.gather(nodes).T.reshape(lead + values.shape[geom.ndim:])
    grad = np.stack([st.point_grad_dot(row[None], np.ones((1, st.base.size))) for row in nodes])  # (c, d, m)
    return vals, np.moveaxis(grad, -1, 0).reshape(vals.shape + (geom.ndim,))


def splat_adjoint(shape: tuple, geom: GridGeometry, pts, adj) -> np.ndarray:
    """Transpose of :func:`interp_values`: scatter adjoints back to nodes.

    Accumulates ``adj`` (shape ``(m,)`` or ``(m, c)``) into a zero array of
    ``shape`` (``dims`` or ``dims + (c,)``) using the same corner weights the
    interpolation gather would use at ``pts``.
    """
    st = _located(geom, pts)[1]
    return st.splat(np.reshape(adj, (st.base.size, -1)).T).T.reshape(shape)


# ---------------------------------------------------------------------------
# Public image operations.
# ---------------------------------------------------------------------------


def warp_image(img: ScalarImage, inv_map: DeformationMap) -> ScalarImage:
    """Pull an image back through an inverse map: out(x) = img(inv_map(x))."""
    if inv_map.direction != "inverse":
        raise ValueError("warp_image needs an inverse-direction map")
    if inv_map.geometry.dims != img.geometry.dims:
        raise ValueError(
            f"map dims {inv_map.geometry.dims} != image dims {img.geometry.dims}"
        )
    warped = interp_values(img.values, img.geometry, inv_map.targets)
    return ScalarImage(inv_map.geometry, warped)


def box_downsample(img: ScalarImage) -> ScalarImage:
    """2x block-average downsampling; a trailing node that does not fill a block drops.

    The coarse origin shifts to the center of the first block so coarse
    nodes sit at the mean position of the nodes they average.
    """
    geom = img.geometry
    new_dims = tuple(n // 2 for n in geom.dims)
    if any(n < 2 for n in new_dims):
        raise ValueError("image too small to downsample by 2")
    v = img.values[tuple(slice(0, n * 2) for n in new_dims)]
    for axis in range(geom.ndim):
        v = v.reshape(v.shape[:axis] + (new_dims[axis], 2) + v.shape[axis + 1:]).mean(axis=axis + 1)
    new_spacing = tuple(s * 2 for s in geom.spacing)
    new_origin = tuple(o + 0.5 * s for o, s in zip(geom.origin, geom.spacing))
    return ScalarImage(GridGeometry(new_dims, new_spacing, new_origin), v)
