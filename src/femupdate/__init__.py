"""femupdate: elastic-modulus imaging by finite element model updating.

Recovers a piecewise elastic-modulus distribution inside a coupon from
surface-only full-field strain measurements: a linear elastic forward
solver, synthetic DIC-style measurement generation, and a hybrid
genetic + projected Gauss-Newton inversion of the relative strain-residual
misfit.
"""

from .errors import (
    ConfigError,
    DataError,
    DegenerateElementError,
    NumericalError,
    OutOfDomainError,
    ParseError,
    SingularSystemError,
)
from .geometry import (
    DefectSpec,
    Mesh,
    PatchMap,
    build_coupon_mesh,
    element_volumes,
    partition_longitudinal,
    stamp_defect_patches,
)
from .inversion import (
    ConvergenceHistory,
    ConvergenceRecord,
    CostContext,
    GAConfig,
    GradConfig,
    fd_gradient,
    run_ga,
    run_gradient,
    run_hybrid,
)
from .measurement import (
    ExperimentalField,
    Interpolator,
    MeasurementGrid,
    generate_synthetic,
    grid_for_footprint,
    grid_strain_operator,
    load_measurement_csv,
    write_measurement_csv,
)
from .solver import (
    BoundaryConditions,
    ForwardModel,
    elastic_matrix,
    element_stiffness,
)

__version__ = "0.1.0"
