"""Discrete grids, scalar/vector fields, deformation maps, and interpolation.

All spatial math runs in physical coordinates: the node with multi-index
``k`` sits at ``origin + k * spacing``. Arrays are row-major with axis 0
slowest. Every container is immutable after construction (the backing
numpy arrays are marked read-only), so instances are safe to share across
threads.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridGeometry",
    "ScalarImage",
    "VectorField",
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


def _readonly(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class GridGeometry:
    """Regular rectangular grid over a 2D or 3D physical domain."""

    dims: tuple[int, ...]
    spacing: tuple[float, ...]
    origin: tuple[float, ...]

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        spacing = tuple(float(s) for s in self.spacing)
        origin = tuple(float(o) for o in self.origin)
        if len(dims) not in (2, 3):
            raise ValueError(f"grid must be 2D or 3D, got {len(dims)} axes")
        if not (len(dims) == len(spacing) == len(origin)):
            raise ValueError("dims, spacing, origin must have equal length")
        if any(n < 2 for n in dims):
            raise ValueError(f"every axis needs at least 2 nodes, got {dims}")
        if any(s <= 0 for s in spacing):
            raise ValueError(f"spacing must be positive, got {spacing}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", origin)

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def node_count(self) -> int:
        return int(np.prod(self.dims))

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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class VectorField:
    """One d-vector per node in physical units; shape ``dims + (ndim,)``."""

    geometry: GridGeometry
    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, float)
        want = self.geometry.dims + (self.geometry.ndim,)
        if v.shape != want:
            raise ValueError(f"vectors shape {v.shape} != expected {want}")
        if not np.all(np.isfinite(v)):
            raise ValueError("vector components must be finite")
        object.__setattr__(self, "vectors", _readonly(v))


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class LandmarkSet:
    """Landmark points in zero-based voxel index coordinates.

    ``index_base`` records the convention of the source file; points are
    normalized to base 0 on construction.
    """

    points: np.ndarray
    index_base: int = 0

    def __post_init__(self):
        p = np.asarray(self.points, float)
        if p.ndim != 2 or p.shape[1] not in (2, 3):
            raise ValueError(f"points must be (n, 2) or (n, 3), got {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError("landmark coordinates must be finite")
        if self.index_base not in (0, 1):
            raise ValueError(f"index_base must be 0 or 1, got {self.index_base}")
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


def _locate(geom: GridGeometry, pts: np.ndarray, i0, frac, unclamped) -> None:
    """Fill the cell indices ``i0``, in-cell fractions ``frac`` and clamp
    pass-through mask ``unclamped``, each (d, m), of the points ``pts`` (m, d).

    Each axis is worked in its own rows with ``out=`` ufuncs, so there are
    no temporaries: ``frac[a]`` holds the index coordinate, then its clamp
    to the node range, then the fraction. ``unclamped`` is True per axis
    where the raw coordinate lies strictly inside the domain, i.e. where
    the clamp is locally the identity. A column of channel-major points
    (a transposed (d, m) block) is read contiguously.
    """
    for a in range(geom.ndim):
        u, inside, hi = frac[a], unclamped[a], geom.dims[a] - 1.0
        np.subtract(pts[:, a], geom.origin[a], out=u)
        np.divide(u, geom.spacing[a], out=u)
        np.greater(u, 0.0, out=inside)
        np.less(u, hi, out=inside, where=inside)
        np.clip(u, 0.0, hi, out=u)
        i0[a] = u  # truncation, which is the floor of the clamped u >= 0
        np.minimum(i0[a], geom.dims[a] - 2, out=i0[a])
        u -= i0[a]


class Stencil:
    """Multilinear interpolation stencil of a point set on a grid.

    Locates the points once and keeps the flat index of each point's lowest
    cell corner (``base``), its in-cell fractions (``frac``, (d, m)) and its
    clamp mask (``unclamped``, (d, m)); the gather, its contracted point
    derivative and its transpose (the splat) share that lookup. Corner
    weights are recomputed per use, not stored 2^d times, always in the
    same corner and axis order, so gather and splat match a per-corner loop
    bit for bit; point_grad_dot regroups its sums.

    ``buffers`` is ``(base, frac, unclamped, index)``, arrays of shapes
    (m,), (d, m), (d, m) and (d, m) that the stencil fills and keeps (the
    cell-index scratch ``index`` is not kept, so stencils built one after
    another may share it); fresh ones by default. The flat index is an
    in-place multiply-add over the cell indices, exact in integers.
    Channel-major data, a transposed (c, m) row block as :meth:`gather` and
    :meth:`splat` return, enters every method without a transposing copy.
    """

    def __init__(self, geom: GridGeometry, pts, buffers=None):
        pts = np.asarray(pts, float)
        d = geom.ndim
        self.geom = geom
        self.lead = pts.shape[:-1]
        pts = pts.reshape(-1, d)
        if buffers is None:
            m = len(pts)
            buffers = np.empty(m, np.intp), np.empty((d, m)), np.empty((d, m), bool), np.empty((d, m), np.intp)
        self.base, self.frac, self.unclamped, index = buffers
        _locate(geom, pts, index, self.frac, self.unclamped)
        self.base[...] = index[0]
        for a in range(1, d):
            self.base *= geom.dims[a]
            self.base += index[a]
        corners = itertools.product((0, 1), repeat=d)
        self.corners = [(c, int(np.ravel_multi_index(c, geom.dims))) for c in corners]

    def _weights(self):
        """Corner weights in ``corners`` order: the left-to-right product over the
        axes of ``1 - frac`` or ``frac`` by corner bit. A corner reuses the
        partial product of the leading bits it shares with the last."""
        fac = (1.0 - self.frac, self.frac)
        prefix, last = [None], ()
        for corner, _ in self.corners:
            keep = next((a for a, (b, c) in enumerate(zip(corner, last)) if b != c), 0)
            del prefix[keep + 1:]
            for a in range(keep, len(corner)):
                w, f = prefix[a], fac[corner[a]][a]
                prefix.append(f if w is None else w * f)
            last = corner
            yield prefix[-1]

    def _rows(self, values: np.ndarray):
        """Channel shape and the node data as contiguous (c, node_count) rows."""
        channels = values.shape[self.geom.ndim:]
        return channels, np.ascontiguousarray(values.reshape(self.geom.node_count, -1).T)

    def gather(self, values: np.ndarray, out=None) -> np.ndarray:
        """Interpolate ``values`` (shape ``dims`` or ``dims + (c,)``) at the points.

        Returns shape ``lead`` or ``lead + (c,)``, as a channel-major view of
        ``out``, a (c, m) row block that must not overlap ``values`` (fresh
        by default); the view is not C-contiguous when there are several
        channels.
        """
        channels, rows = self._rows(values)
        acc = np.empty((rows.shape[0], self.base.size)) if out is None else out
        acc[...] = 0.0
        for (_, off), w in zip(self.corners, self._weights()):
            corner = np.take(rows, self.base + off, axis=1)
            corner *= w
            acc += corner
        return acc.T.reshape(self.lead + channels)

    def point_grad_dot(self, values: np.ndarray, adj) -> np.ndarray:
        """Derivative of :meth:`gather` with respect to the point, contracted with
        ``adj`` (shaped like :meth:`gather`'s output) over the channels; shape
        ``lead + (d,)``, zero along any axis on which the point was clamped.
        Each corner's node data is dotted with ``adj`` once; along axis a, the
        differences of those dots across a are weighted by the other axes' factors."""
        d, m = self.geom.ndim, self.base.size
        rows = self._rows(values)[1]
        adj = np.ascontiguousarray(np.reshape(adj, (m, -1)).T)
        dots = np.empty((len(self.corners), m))
        for j, (_, off) in enumerate(self.corners):
            np.einsum("cn,cn->n", np.take(rows, self.base + off, axis=1), adj, out=dots[j])
        dots = dots.reshape((2,) * d + (m,))
        inv_spacing = 1.0 / np.asarray(self.geom.spacing)
        fac = (1.0 - self.frac, self.frac)
        out = np.empty((m, d))
        for a in range(d):
            lo, hi = np.moveaxis(dots, a, 0)
            t = hi - lo
            for b in [b for b in reversed(range(d)) if b != a]:
                t, t1 = t[..., 0, :], t[..., 1, :]
                t *= fac[0][b]
                t += t1 * fac[1][b]
            out[:, a] = t * inv_spacing[a] * self.unclamped[a]
        return out.reshape(self.lead + (d,))

    def splat(self, adj) -> np.ndarray:
        """Transpose of :meth:`gather`: accumulate ``adj`` onto the nodes.

        ``adj`` (shape ``lead`` or ``lead + (c,)``) becomes ``(node_count,)``
        or ``(node_count, c)``, channel-major like :meth:`gather`'s output.
        One ``np.bincount`` per channel over a corner-major ``(2^d, m)``
        block of flat indices and weight-times-adjoint products adds in the
        order of a per-corner scatter.
        """
        adj = np.asarray(adj, float)
        channels = adj.shape[len(self.lead):]
        idx = (self.base + np.array([off for _, off in self.corners])[:, None]).ravel()
        w = np.empty((len(self.corners), self.base.size))
        for row, wj in zip(w, self._weights()):
            row[...] = wj
        n = self.geom.node_count
        out = [np.bincount(idx, (w * col).ravel(), minlength=n) for col in adj.reshape(self.base.size, -1).T]
        return np.stack(out).T.reshape((n,) + channels)


def interp_values(values: np.ndarray, geom: GridGeometry, pts) -> np.ndarray:
    """Multilinear interpolation of node data at physical points.

    ``values`` has shape ``dims`` (scalar) or ``dims + (c,)`` (c channels);
    ``pts`` has shape ``(..., d)``. Returns shape ``(...,)`` or ``(..., c)``.
    """
    return Stencil(geom, pts).gather(values)


def interp_with_point_grad(values: np.ndarray, geom: GridGeometry, pts):
    """Interpolated values and their derivative with respect to the point.

    Returns ``(vals, grad)``; ``grad`` has shape ``lead + channels + (d,)``
    with ``grad[..., a] = d(vals)/dp_a``, one :meth:`Stencil.point_grad_dot`
    per channel with a unit adjoint.
    """
    st = Stencil(geom, pts)
    vals = st.gather(values)
    chan = values.reshape(geom.dims + (-1,))
    grad = [st.point_grad_dot(chan[..., k], np.ones(st.lead)) for k in range(chan.shape[-1])]
    return vals, np.stack(grad, axis=-2).reshape(vals.shape + (geom.ndim,))


def splat_adjoint(shape: tuple, geom: GridGeometry, pts, adj) -> np.ndarray:
    """Transpose of :func:`interp_values`: scatter adjoints back to nodes.

    Accumulates ``adj`` (shape ``(m,)`` or ``(m, c)``) into a zero array of
    ``shape`` (``dims`` or ``dims + (c,)``) using the same corner weights the
    interpolation gather would use at ``pts``.
    """
    st = Stencil(geom, pts)
    return st.splat(np.reshape(adj, st.lead + tuple(shape[geom.ndim:]))).reshape(shape)


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


def box_downsample(img: ScalarImage, factor: int = 2) -> ScalarImage:
    """Block-average downsampling; trailing nodes that do not fill a block drop.

    The coarse origin shifts to the center of the first block so coarse
    nodes sit at the mean position of the nodes they average.
    """
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    if factor == 1:
        return img
    geom = img.geometry
    new_dims = tuple(n // factor for n in geom.dims)
    if any(n < 2 for n in new_dims):
        raise ValueError(f"image too small to downsample by {factor}")
    v = img.values
    sl = tuple(slice(0, n * factor) for n in new_dims)
    v = v[sl]
    for axis in range(geom.ndim):
        shape = v.shape[:axis] + (new_dims[axis], factor) + v.shape[axis + 1:]
        v = v.reshape(shape).mean(axis=axis + 1)
    new_spacing = tuple(s * factor for s in geom.spacing)
    new_origin = tuple(
        o + 0.5 * (factor - 1) * s for o, s in zip(geom.origin, geom.spacing)
    )
    return ScalarImage(GridGeometry(new_dims, new_spacing, new_origin), v)
