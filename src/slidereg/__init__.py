"""Diffeomorphic image registration with sliding-motion support.

Velocity fields are synthesized from zeroth- and first-order momenta over
reproducing kernels; a non-differentiable compactly supported kernel lets
first-order momenta encode tangential velocity jumps (sliding) while the
flow stays diffeomorphic away from the interfaces. The solver builds its
operators from the kernels' separable 1D factors. A companion toolkit
(``nonsmooth``) computes jump-aware state-transition matrices of
hand-built piecewise-affine flows; the solver does not use it.
"""

from .errors import (
    DegenerateCrossingError,
    DivergenceError,
    FormatError,
    TangentialCrossingError,
)
from .geometry import (
    DeformationMap,
    GridGeometry,
    LandmarkSet,
    ScalarImage,
    VectorField,
    identity_map,
    warp_image,
)
from .kernels import KernelSpec, default_scale
from .momenta import (
    MomentumSet,
    TimeMomenta,
    control_lattice,
    synth_velocity,
)
from .flow import FlowPath, integrate, jacobian_fd
from .nonsmooth import (
    AffineVelocity,
    FundamentalMatrix,
    MovingHyperplane,
    PiecewiseVelocity,
    StaticCircle,
    detect_crossing,
    fundamental_matrix,
    saltation_sliding,
    saltation_transversal,
)
from .registration import (
    RegistrationConfig,
    RegistrationResult,
    gradient,
    optimize,
    ssd,
    total_energy,
)

__version__ = "0.1.0"
