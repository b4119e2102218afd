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
    "sample_linear",
    "warp_image",
    "gradient_central",
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


def _locate(geom: GridGeometry, pts: np.ndarray):
    """Cell indices, in-cell fractions, and the clamp pass-through mask.

    Returns (i0, frac, unclamped), each (d, m), for flattened points (m, d);
    axis-major rows keep numpy on contiguous data with scalar operands.
    ``unclamped`` is True per axis where the raw coordinate lies strictly
    inside the domain, i.e. where the clamp is locally the identity.
    """
    rows = np.ascontiguousarray(pts.T)
    i0, frac, unclamped = (np.empty(rows.shape, t) for t in (np.intp, float, bool))
    for a, p in enumerate(rows):
        u = (p - geom.origin[a]) / geom.spacing[a]
        hi = geom.dims[a] - 1.0
        uc = np.clip(u, 0.0, hi)
        i0[a] = np.minimum(uc.astype(np.intp), geom.dims[a] - 2)
        frac[a] = uc - i0[a]
        unclamped[a] = (u > 0.0) & (u < hi)
    return i0, frac, unclamped


class Stencil:
    """Multilinear interpolation stencil of a point set on a grid.

    Locates the points once and keeps the flat index of each point's lowest
    cell corner, its in-cell fractions and its clamp mask; the gather, its
    point derivative and its transpose (the splat) share that lookup. Corner
    weights are recomputed per use, not stored 2^d times, always in the same
    corner and axis order, so gather, point_grad and splat match a per-corner
    loop bit for bit; point_grad_dot regroups its sums.
    """

    def __init__(self, geom: GridGeometry, pts):
        pts = np.asarray(pts, float)
        d = geom.ndim
        self.geom = geom
        self.lead = pts.shape[:-1]
        i0, self.frac, self.unclamped = _locate(geom, pts.reshape(-1, d))
        self.base = np.ravel_multi_index(tuple(i0), geom.dims)
        corners = itertools.product((0, 1), repeat=d)
        self.corners = [(c, int(np.ravel_multi_index(c, geom.dims))) for c in corners]

    def _weights(self, skip: int = -1, fac=None):
        """Corner weights in ``corners`` order: the left-to-right product over axes
        a != skip of ``fac[bit][a]``, with ``fac = (1 - frac, frac)``. A corner
        reuses the partial product of the leading bits it shares with the last."""
        fac = fac or (1.0 - self.frac, self.frac)
        prefix, last = [None], ()
        for corner, _ in self.corners:
            keep = next((a for a, (b, c) in enumerate(zip(corner, last)) if b != c), 0)
            del prefix[keep + 1:]
            for a in range(keep, len(corner)):
                w, f = prefix[a], fac[corner[a]][a]
                prefix.append(w if a == skip else f if w is None else w * f)
            last = corner
            yield prefix[-1]

    def _rows(self, values: np.ndarray):
        """Channel shape and the node data as contiguous (c, node_count) rows."""
        channels = values.shape[self.geom.ndim:]
        return channels, np.ascontiguousarray(values.reshape(self.geom.node_count, -1).T)

    def gather(self, values: np.ndarray) -> np.ndarray:
        """Interpolate ``values`` (shape ``dims`` or ``dims + (c,)``) at the points.

        Returns shape ``lead`` or ``lead + (c,)``.
        """
        channels, rows = self._rows(values)
        acc = np.zeros((rows.shape[0], self.base.size))
        for (_, off), w in zip(self.corners, self._weights()):
            acc += w * np.take(rows, self.base + off, axis=1)
        return np.ascontiguousarray(acc.T).reshape(self.lead + channels)

    def point_grad(self, values: np.ndarray) -> np.ndarray:
        """Derivative of :meth:`gather` with respect to the point.

        Shape ``lead + channels + (d,)``: ``grad[..., a] = d(gather)/dp_a``,
        zero along any axis on which the point was clamped.
        """
        d = self.geom.ndim
        channels, rows = self._rows(values)
        inv_spacing = 1.0 / np.asarray(self.geom.spacing)
        fac = (1.0 - self.frac, self.frac)
        grad = np.zeros((d, rows.shape[0], self.base.size))
        per_axis = zip(*(self._weights(a, fac) for a in range(d)))
        for (corner, off), dws in zip(self.corners, per_axis):
            node = np.take(rows, self.base + off, axis=1)
            for a, dw in enumerate(dws):
                if corner[a] == 0:
                    dw = -dw
                grad[a] += dw * inv_spacing[a] * self.unclamped[a] * node
        return np.ascontiguousarray(grad.transpose(2, 1, 0)).reshape(self.lead + channels + (d,))

    def point_grad_dot(self, values: np.ndarray, adj) -> np.ndarray:
        """:meth:`point_grad` contracted with ``adj`` (shaped like :meth:`gather`'s
        output) over the channels, without forming it; shape ``lead + (d,)``.
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
        or ``(node_count, c)``. One ``np.bincount`` per channel over the
        corner-major indices adds in the order of a per-corner scatter.
        """
        adj = np.asarray(adj, float)
        channels = adj.shape[len(self.lead):]
        idx = np.concatenate([self.base + off for _, off in self.corners])
        w = np.concatenate(list(self._weights()))
        n, k = self.geom.node_count, len(self.corners)
        out = [np.bincount(idx, w * np.tile(col, k), minlength=n) for col in adj.reshape(self.base.size, -1).T]
        return np.stack(out, axis=-1).reshape((n,) + channels)


def interp_values(values: np.ndarray, geom: GridGeometry, pts) -> np.ndarray:
    """Multilinear interpolation of node data at physical points.

    ``values`` has shape ``dims`` (scalar) or ``dims + (c,)`` (c channels);
    ``pts`` has shape ``(..., d)``. Returns shape ``(...,)`` or ``(..., c)``.
    """
    return Stencil(geom, pts).gather(values)


def interp_with_point_grad(values: np.ndarray, geom: GridGeometry, pts):
    """Interpolated values and their derivative with respect to the point.

    Returns ``(vals, grad)``; see :meth:`Stencil.point_grad` for the layout.
    """
    st = Stencil(geom, pts)
    return st.gather(values), st.point_grad(values)


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


def sample_linear(img: ScalarImage, p) -> float:
    """Multilinear sample of an image at one physical point (clamped)."""
    p = np.asarray(p, float)
    if p.shape != (img.geometry.ndim,):
        raise ValueError(f"point shape {p.shape} != ({img.geometry.ndim},)")
    if not np.all(np.isfinite(p)):
        raise ValueError(f"sample point must be finite, got {p}")
    return float(interp_values(img.values, img.geometry, p[None, :])[0])


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


def gradient_central(img: ScalarImage) -> VectorField:
    """Spatial gradient: central differences inside, one-sided at borders."""
    grads = np.gradient(img.values, *img.geometry.spacing, edge_order=1)
    return VectorField(img.geometry, np.stack(grads, axis=-1))


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
