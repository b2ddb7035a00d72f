"""Rough paths through the regularity-structure lens, on dyadic grids.

The package lifts Hölder paths to rough paths, reconstructs distributions
from modelled distributions with compactly supported wavelets, computes
rough integrals by two independent routes, and solves rough differential
equations dy = F(y) dW by Picard iteration in the jet space.
"""

from .grids import (
    SampledPath,
    TestFunction,
    TimeGrid,
    generate_path,
    holder_seminorm,
    make_dyadic_grid,
    read_path_csv,
    write_path_csv,
)
from .integration import (
    convergence_order_fit,
    refinement_errors,
    rough_integral_path,
    rough_integral_sum,
    three_point_defect,
    young_integral,
)
from .modelled import (
    ControlledPath,
    FunctionDescriptor,
    ModelledDistribution,
    builtin_descriptor,
    compose,
    controlled_seminorm,
    from_modelled,
    linear_descriptor,
    md_norm_star,
    md_seminorm,
    multiply_by_Wdot,
    scalar_descriptor,
    to_modelled,
)
from .reconstruction import (
    ReconstructionResult,
    antiderivative_from_distribution,
    lift_continuity_gap,
    reconstruct,
    wavelet_lift,
    wavelet_rough_integral,
)
from .roughpath import (
    RoughPath,
    SecondOrderProcess,
    chen_defect,
    chen_extend,
    lift_piecewise_smooth,
    read_rough_path_json,
    rough_path_distance,
    rough_path_seminorm,
    write_rough_path_json,
)
from .solver import SolverConfig, SolverError, picard_step, solution_residual, solve_rde
from .structure import (
    ONE,
    ModelSpaceVector,
    PolynomialModel,
    PolynomialStructure,
    ReducedModel,
    RoughModel,
    RoughStructure,
    StructureGroupElement,
    Symbol,
    W,
    Wdot,
    WWdot,
    X,
    gamma_apply,
    model_bound_estimate,
    multiply,
    pi_pair,
)
from .wavelets import (
    CoefficientTable,
    StieltjesMeasure,
    WaveletBasis,
    cascade_evaluate,
    daubechies_basis,
    wavelet_coefficients,
)

__version__ = "0.1.0"
