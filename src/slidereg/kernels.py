"""Kernel families as 1D factors and their derivatives.

Both families are products over axes of one 1D factor of the axis offset
t = x - y between a point x and a control point y:

* ``gaussian``: exp(-t^2 / scale^2), so K(x, y) = exp(-|x - y|^2 / scale^2),
  smooth and globally supported (synthesis truncates it to the window
  footprint).
* ``wendland_c0_mult``: the C0 factor ((1 - |t|/scale) clipped at 0)^2.
  Compactly supported: exactly zero once |t| reaches ``scale``. Not
  differentiable at t = 0, so the kernel has a kink on the axis-aligned
  hyperplanes through the control point; this kink is what lets
  first-order momenta encode velocity jumps.

Each ``eval_*_many`` maps an array of offsets, of any shape, to the
factor, to its derivative with respect to the control coordinate y, or to
the mixed second derivative d^2/dx dy. A slot-i term of the d-dimensional
kernel swaps the axis-i factor for one of these, which is how the
Kronecker operators of :mod:`slidereg.momenta` use them. At the Wendland
kink the first derivative takes the symmetric-subgradient value 0
(sign(0) = 0) and the mixed one the positive diagonal limit ``2/scale^2``.
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


def eval_kernel_many(spec: KernelSpec, t: np.ndarray) -> np.ndarray:
    """The 1D factor at offsets ``t = x - y`` of any shape."""
    if spec.family == "gaussian":
        return np.exp(-(t * t) / spec.scale**2)
    f = np.clip(1.0 - np.abs(t) / spec.scale, 0.0, None)
    return f * f


def eval_partial_many(spec: KernelSpec, t: np.ndarray) -> np.ndarray:
    """d/dy of the 1D factor at offsets ``t = x - y``."""
    s = spec.scale
    if spec.family == "gaussian":
        return 2.0 * t / s**2 * np.exp(-(t * t) / s**2)
    # sign(0) = 0 encodes the kink convention
    return (2.0 / s) * np.clip(1.0 - np.abs(t) / s, 0.0, None) * np.sign(t)


def eval_mixed_many(spec: KernelSpec, t: np.ndarray) -> np.ndarray:
    """d^2/dx dy of the 1D factor at offsets ``t = x - y``; ``2/scale^2`` on the Wendland kink."""
    s = spec.scale
    if spec.family == "gaussian":
        return (2.0 / s**2 - 4.0 * t**2 / s**4) * np.exp(-(t * t) / s**2)
    at = np.abs(t)
    return np.where(at == 0.0, 2.0 / s**2, np.where(at < s, -2.0 / s**2, 0.0))
