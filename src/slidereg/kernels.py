"""Kernel families and their partial derivatives.

Two families are provided:

* ``gaussian``: K(x, y) = exp(-|x - y|^2 / scale^2), smooth and globally
  supported (synthesis truncates it to the window footprint).
* ``wendland_c0_mult``: the product over axes of the one-dimensional C0
  kernel ((1 - |dx|/scale) clipped at 0)^2. Compactly supported: exactly
  zero as soon as any axis offset reaches ``scale``. Not differentiable on
  the axis-aligned hyperplanes through the second argument; this kink is
  what lets first-order momenta encode velocity jumps.

Each ``eval_*_many`` evaluates one control point ``y`` (d,) against the
rows of ``X`` (m, d); the separable operators of :mod:`slidereg.momenta`
call them on 1D offsets, ``X`` of shape (m, 1) against ``y = 0``.
Derivatives are taken with respect to the *second* argument (the control
point). On the kink set the first partial uses the symmetric-subgradient
value 0; the mixed second partial uses the positive diagonal limit
``2/scale^2`` per 1D factor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import GridGeometry, _count, _real

__all__ = [
    "KernelSpec",
    "eval_kernel_many",
    "eval_partial_many",
    "eval_mixed_many",
    "default_scale",
]

FAMILIES = ("gaussian", "wendland_c0_mult")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family, finite positive physical scale (stored as a float), and odd
    discrete window size (an integer count)."""

    family: str
    scale: float
    window: int = 9

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}; choose from {FAMILIES}")
        object.__setattr__(self, "scale", _real("scale", self.scale))
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be finite and positive, got {self.scale}")
        object.__setattr__(self, "window", _count("window", self.window))
        if self.window < 3 or self.window % 2 == 0:
            raise ValueError(f"window must be odd and >= 3, got {self.window}")


def default_scale(grid: GridGeometry) -> float:
    """Default physical scale: 4 x the finest grid spacing.

    With the default 9-node window the compact support then just fills the
    discrete footprint.
    """
    return 4.0 * min(grid.spacing)


def eval_kernel_many(spec: KernelSpec, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    dx = np.atleast_2d(X) - y
    if spec.family == "gaussian":
        return np.exp(-np.sum(dx * dx, axis=1) / spec.scale**2)
    f = np.clip(1.0 - np.abs(dx) / spec.scale, 0.0, None)
    return np.prod(f * f, axis=1)


def eval_partial_many(spec: KernelSpec, i: int, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    dx = np.atleast_2d(X) - y
    s = spec.scale
    if spec.family == "gaussian":
        return 2.0 * dx[:, i] / s**2 * np.exp(-np.sum(dx * dx, axis=1) / s**2)
    f = np.clip(1.0 - np.abs(dx) / s, 0.0, None)
    rest = np.prod(np.delete(f * f, i, axis=1), axis=1)
    # d/dy of the axis-i factor; sign(0) = 0 encodes the kink convention
    return (2.0 / s) * f[:, i] * np.sign(dx[:, i]) * rest


def eval_mixed_many(spec: KernelSpec, i: int, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    dx = np.atleast_2d(X) - y
    s = spec.scale
    if spec.family == "gaussian":
        k = np.exp(-np.sum(dx * dx, axis=1) / s**2)
        return (2.0 / s**2 - 4.0 * dx[:, i] ** 2 / s**4) * k
    f = np.clip(1.0 - np.abs(dx) / s, 0.0, None)
    rest = np.prod(np.delete(f * f, i, axis=1), axis=1)
    adx = np.abs(dx[:, i])
    c = np.where(adx == 0.0, 2.0 / s**2, np.where(adx < s, -2.0 / s**2, 0.0))
    return c * rest
