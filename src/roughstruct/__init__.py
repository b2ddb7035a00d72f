"""Rough paths through the regularity-structure lens, on dyadic grids.

The package lifts Hölder paths to rough paths, reconstructs distributions
from modelled distributions with compactly supported wavelets, computes
rough integrals by two independent routes, and solves rough differential
equations dy = F(y) dW by Picard iteration in the jet space.

The namespace is lazy (PEP 562): ``import roughstruct`` loads no submodule
and not numpy; each public name is looked up in its defining submodule on
every access (importing it on first use) and never copied here, so a name
patched on its submodule is what ``roughstruct.<name>`` returns.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "grids": (
        "SampledPath", "TestFunction", "TimeGrid", "generate_path", "holder_seminorm",
        "make_dyadic_grid", "read_path_csv", "write_path_csv",
    ),
    "integration": (
        "convergence_order_fit", "refinement_errors", "rough_integral_path",
        "rough_integral_sum", "three_point_defect", "young_integral",
    ),
    "modelled": (
        "ControlledPath", "FunctionDescriptor", "ModelledDistribution", "builtin_descriptor",
        "compose", "controlled_seminorm", "from_modelled", "linear_descriptor", "md_norm_star",
        "md_seminorm", "multiply_by_Wdot", "scalar_descriptor", "to_modelled",
    ),
    "reconstruction": (
        "ReconstructionResult", "antiderivative_from_distribution", "lift_continuity_gap",
        "reconstruct", "wavelet_lift", "wavelet_rough_integral",
    ),
    "roughpath": (
        "RoughPath", "chen_defect",
        "lift_piecewise_smooth", "read_rough_path_json", "rough_path_distance",
        "rough_path_seminorm", "write_rough_path_json",
    ),
    "solver": ("SolverConfig", "SolverError", "picard_step", "solution_residual", "solve_rde"),
    "structure": (
        "ONE", "ModelSpaceVector", "PolynomialModel", "PolynomialStructure", "ReducedModel",
        "RoughModel", "RoughStructure", "Symbol", "W", "Wdot", "WWdot", "X", "gamma_apply",
        "multiply", "pi_pair",
    ),
    "wavelets": (
        "CoefficientTable", "StieltjesMeasure", "WaveletBasis", "cascade_evaluate",
        "daubechies_basis", "wavelet_coefficients",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
