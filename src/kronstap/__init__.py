"""Kronecker-structured low-rank covariance estimation and STAP filtering.

The package covers the full loop for multichannel pulsed radar data:
simulating compound-Gaussian clutter scenes, fitting a Kronecker
spatial-by-temporal covariance model to training snapshots, building
clutter-cancelation filters from the factor subspaces, forming
detection and change maps, and benchmarking the estimator.
"""

from .errors import (
    ConfigError,
    DataError,
    DegenerateInputError,
    DimensionError,
    KronStapError,
)
from .filters import (
    DetectionMap,
    StapFilter,
    SteeringVector,
    build_filter,
    detection_image,
    make_doppler_grid,
    make_spatial_grid,
    make_steering,
    projection_filter,
    sinr,
    subspace_basis,
)
from .linalg import EigenPairs, Factor, eig_truncate, hermitian_eig
from .lrkron import (
    KronCovEstimate,
    SampleCovariance,
    lr_kron_estimate,
    sample_covariance,
)
from .multipass import (
    StackedHistory,
    change_detect,
    multipass_estimate,
    pass_images,
    stack_passes,
)
from .parallel import WorkerPool
from .rearrange import (
    RearrangedMatrix,
    rearrange,
    unrearrange,
)
from .simulate import (
    PhaseHistory,
    SceneConfig,
    SceneModel,
    TargetTruth,
    gen_clutter,
    gen_multipass,
    inject_target,
    scene_model,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DataError", "DegenerateInputError", "DimensionError",
    "KronStapError", "DetectionMap", "StapFilter", "SteeringVector",
    "build_filter", "detection_image", "make_doppler_grid",
    "make_spatial_grid", "make_steering", "projection_filter", "sinr",
    "subspace_basis", "EigenPairs", "Factor", "eig_truncate", "hermitian_eig",
    "KronCovEstimate", "SampleCovariance", "lr_kron_estimate",
    "sample_covariance", "StackedHistory", "change_detect",
    "multipass_estimate", "pass_images", "stack_passes",
    "WorkerPool", "RearrangedMatrix", "rearrange",
    "unrearrange", "PhaseHistory", "SceneConfig", "SceneModel",
    "TargetTruth", "gen_clutter", "gen_multipass", "inject_target",
    "scene_model",
]
