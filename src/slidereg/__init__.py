"""Diffeomorphic image registration with sliding-motion support.

Velocity fields are synthesized from zeroth- and first-order momenta over
reproducing kernels; a non-differentiable compactly supported kernel lets
first-order momenta encode tangential velocity jumps (sliding) while the
flow stays diffeomorphic away from the interfaces. A companion toolkit
analyzes the resulting discontinuous flows through jump-aware
state-transition matrices.
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
from .kernels import KernelSpec, default_scale, eval_kernel, eval_mixed, eval_partial
from .momenta import (
    MomentumSet,
    TimeMomenta,
    control_lattice,
    directional_kernel_velocity,
    sparsity,
    synth_velocity,
    v_energy,
)
from .flow import (
    FlowPath,
    integrate,
    inverse_consistency_error,
    jacobian_fd,
)
from .nonsmooth import (
    AffineVelocity,
    FundamentalMatrix,
    MovingHyperplane,
    PiecewiseVelocity,
    StaticCircle,
    adjoint_transport,
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
