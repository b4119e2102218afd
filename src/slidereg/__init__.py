"""Diffeomorphic image registration with sliding-motion support.

Velocity fields are synthesized from zeroth- and first-order momenta over
reproducing kernels; a non-differentiable compactly supported kernel lets
first-order momenta encode tangential velocity jumps (sliding) while the
flow stays diffeomorphic away from the interfaces. The solver builds its
operators from the kernels' separable 1D factors.
"""

from .errors import DivergenceError, FormatError
from .geometry import (
    DeformationMap,
    GridGeometry,
    LandmarkSet,
    ScalarImage,
    identity_map,
    warp_image,
)
from .kernels import KernelSpec, default_scale
from .momenta import MomentumSet, TimeMomenta, control_lattice
from .flow import FlowPath, integrate
from .registration import (
    RegistrationConfig,
    RegistrationResult,
    gradient,
    optimize,
    ssd,
    total_energy,
)

__version__ = "0.1.0"
