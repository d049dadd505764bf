"""Capacity of entanglement for small bipartite systems.

Core state types and primitives, entanglement measures, exact two-qubit
dynamics under canonical non-local interactions, rate bounds and quantum
speed limits, self-inverse evolutions, and the mixed-state capacity built
on closest separable states.

Importing the package loads no submodule: each exported name, and each submodule's own name, imports
its submodule on first use (PEP 562), so ``from entcap import capacity_pure`` loads ``core`` and
``measures`` only.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "core": (
        "BipartitePureState", "ConfigurationError", "DensityOperator", "DomainError", "density_from_pure",
        "haar_random_pure", "partial_trace", "relative_entropy", "schmidt_decompose",
        "spectrum_entropy", "trace_distance", "von_neumann_entropy",
    ),
    "measures": (
        "CapacityResult", "capacity_from_spectrum", "capacity_of", "capacity_pure", "capacity_two_qubit_closed",
        "is_flat", "modular_hamiltonian", "observable_variance", "solve_max_variance_spectrum",
    ),
    "dynamics": (
        "NonlocalHamiltonian", "Trajectory", "canonical_form", "capacity_rate_factor",
        "capacity_rate_factor_maximum", "evolved_schmidt_weights", "max_capacity_rate", "max_entangling_element",
        "max_entangling_element_ancilla", "max_entangling_element_numeric", "simulate_trajectory",
    ),
    "speed_limits": (
        "QSLReport", "RateBoundCheck", "family_qsl_curve", "family_qsl_report", "fubini_study_speed",
        "hamiltonian_fluctuation", "qsl_time_dependent", "rate_bound_check",
    ),
    "self_inverse": (
        "CapacityRateBounds", "SelfInverseHamiltonian", "capacity_rate_bounds",
        "evolve_self_inverse", "liouville_rhs", "max_entropy_rate_constant", "operator_norm",
    ),
    "mixed": (
        "SeparableApproximation", "capacity_mixed", "closest_separable_family", "closest_separable_numeric",
        "closest_separable_pure", "family_relative_entropy", "family_state", "is_ppt", "partial_transpose",
    ),
}.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name):
    """Import an exported name's submodule, or any submodule by its name, on first use."""
    if name in _EXPORTS:
        value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
        return value
    try:
        return importlib.import_module(f"{__name__}.{name}")  # the import binds it here too
    except ModuleNotFoundError as err:
        if err.name != f"{__name__}.{name}":  # a submodule that exists but fails to import
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
