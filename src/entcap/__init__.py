"""Capacity of entanglement for small bipartite systems.

Core state types and primitives, entanglement measures, exact two-qubit
dynamics under canonical non-local interactions, rate bounds and quantum
speed limits, self-inverse evolutions, and the mixed-state capacity built
on closest separable states.
"""

from .core import (
    BipartitePureState,
    ConfigurationError,
    DensityOperator,
    DomainError,
    density_from_pure,
    haar_random_pure,
    log_on_support,
    partial_trace,
    relative_entropy,
    schmidt_decompose,
    spectrum_entropy,
    trace_distance,
    von_neumann_entropy,
)
from .measures import (
    CapacityResult,
    capacity_from_spectrum,
    capacity_of,
    capacity_pure,
    capacity_two_qubit_closed,
    is_flat,
    modular_hamiltonian,
    observable_variance,
    solve_max_variance_spectrum,
)
from .dynamics import (
    NonlocalHamiltonian,
    Trajectory,
    canonical_form,
    capacity_rate_factor,
    capacity_rate_factor_maximum,
    evolved_schmidt_weights,
    max_capacity_rate,
    max_entangling_element,
    max_entangling_element_ancilla,
    max_entangling_element_numeric,
    simulate_trajectory,
)
from .speed_limits import (
    QSLReport,
    RateBoundCheck,
    family_qsl_curve,
    family_qsl_report,
    fubini_study_speed,
    hamiltonian_fluctuation,
    qsl_time_dependent,
    rate_bound_check,
)
from .self_inverse import (
    CapacityRateBounds,
    SelfInverseHamiltonian,
    build_self_inverse,
    capacity_rate_bounds,
    evolve_self_inverse,
    liouville_rhs,
    max_entropy_rate_constant,
    operator_norm,
)
from .mixed import (
    SeparableApproximation,
    capacity_mixed,
    closest_separable_family,
    closest_separable_numeric,
    closest_separable_pure,
    family_relative_entropy,
    family_state,
    is_ppt,
    partial_transpose,
)

__version__ = "0.1.0"
