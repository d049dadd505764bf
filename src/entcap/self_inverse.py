"""Self-inverse Hamiltonians H = X_A ⊗ X_B and capacity-rate bounds."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BipartitePureState,
    DensityOperator,
    DomainError,
    _bisect,
    _checked_count,
    _checked_operator,
    _checked_real,
    _hamiltonian_matrix,
    _row_products,
    hermitize,
    log_scale,
)

INVOLUTION_TOL = 1e-10


def _check_involution(x, name: str) -> np.ndarray:
    """x as a complex array, checked by ``_checked_operator`` and then X^2 = I; a stack (..., d, d) is checked whole."""
    x = _checked_operator(x, INVOLUTION_TOL, name)
    dev = np.abs(x @ x - np.eye(x.shape[-1])).max()
    if not dev <= INVOLUTION_TOL:
        raise DomainError(f"{name} is not involutory (|X^2 - I| = {dev:.3e})")
    return x


@dataclass(frozen=True, eq=False)
class SelfInverseHamiltonian:
    """H = X_A ⊗ X_B of Hermitian involutions, checked at construction, so that H^2 = identity.

    Each factor is a matrix (d, d) or a stack (N, d, d) with the other's
    leading axes; a stack is N Hamiltonians, as an (N, 3) mu is for
    ``NonlocalHamiltonian``.  The factors are kept as read-only complex copies,
    so the check holds for the object's lifetime.
    """

    x_a: np.ndarray
    x_b: np.ndarray

    def __post_init__(self):
        for attr, name in (("x_a", "X_A"), ("x_b", "X_B")):
            x = _check_involution(np.array(getattr(self, attr), dtype=complex), name)
            x.setflags(write=False)
            object.__setattr__(self, attr, x)
        a, b = self.x_a.shape, self.x_b.shape
        if a[:-2] != b[:-2]:
            raise DomainError(f"X_A and X_B need the same leading axes, got shapes {a} and {b}")

    def matrix(self) -> np.ndarray:
        a, b = self.x_a, self.x_b
        d = a.shape[-1] * b.shape[-1]
        return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(a.shape[:-2] + (d, d))


def _evolve_involution(h: np.ndarray, amps0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """(psi(t), H psi(t)) = (cos t psi0 - i sin t H psi0, cos t H psi0 - i sin t psi0) / |psi(t)|, shape (2, N, T, d),
    for h (N, d, d) with H^2 = I, amps0 (N, d) and times (T,); elementwise per sample, with no eigensolve."""
    pair = np.stack([amps0, _row_products(amps0, np.swapaxes(h, -1, -2))])[:, :, None, :]  # psi0, H psi0
    evolved = np.cos(times)[:, None] * pair - 1j * np.sin(times)[:, None] * pair[::-1]
    return evolved / np.linalg.norm(evolved[0], axis=-1, keepdims=True)


def evolve_self_inverse(hamiltonian: SelfInverseHamiltonian, psi0: BipartitePureState, t: float) -> BipartitePureState:
    """Closed-form evolution cos(t)|psi> - i sin(t) H|psi> (``_evolve_involution``); period 2 pi.

    It needs H^2 = I: any Hamiltonian but one unstacked ``SelfInverseHamiltonian`` is a DomainError.
    """
    if not isinstance(hamiltonian, SelfInverseHamiltonian) or hamiltonian.x_a.ndim != 2:
        raise DomainError("evolve_self_inverse needs one unstacked SelfInverseHamiltonian")
    h = _hamiltonian_matrix(hamiltonian, psi0.dim)
    psi, _ = _evolve_involution(h[None], psi0.amplitudes[None], _checked_real(t, "t must be finite").reshape(1))
    return BipartitePureState(psi[0, 0], psi0.d_a, psi0.d_b)


def liouville_rhs(hamiltonian, rho: DensityOperator) -> np.ndarray:
    """-i[H, rho]: the generator of the density-operator flow.  Traceless Hermitian."""
    h = _hamiltonian_matrix(hamiltonian, rho.dim)
    comm = h @ rho.matrix - rho.matrix @ h
    return hermitize(-1j * comm)


@functools.cache
def _max_entropy_rate_constant_nat() -> float:
    """The natural-log rate cap, bisected once per process."""
    u = _bisect(lambda u: u * math.tanh(u) - 1.0, 1.0, 2.0)
    return 2.0 * u / math.cosh(u)


def max_entropy_rate_constant(base="e") -> float:
    """2 max_x sqrt(x(1-x)) |log(x/(1-x))|: the self-inverse entanglement-rate cap.

    With x = (1 + tanh u)/2 the objective is 2u/cosh(u), stationary at the root
    u ~ 1.1996786 of u tanh(u) = 1 (bisection on [1, 2]), where it equals
    2 sqrt(u^2 - 1).  Evaluating 2u/cosh(u), which is flat there, keeps the
    last bit of u out of the value.  Computed in natural log and converted, so
    the two bases agree exactly up to the ln(2) factor.
    """
    return _max_entropy_rate_constant_nat() / log_scale(base)


def operator_norm(hamiltonian):
    """Largest absolute eigenvalue of a Hamiltonian (Schatten-∞ norm).

    Takes a Hamiltonian type or a Hermitian matrix; a stack of matrices
    (N, d, d) gives an array of N norms.
    """
    h = _hamiltonian_matrix(hamiltonian)
    norms = np.abs(np.linalg.eigvalsh(h)).max(axis=-1)
    return float(norms) if norms.ndim == 0 else norms


@dataclass(frozen=True)
class CapacityRateBounds:
    """The chain of upper bounds on |d/dt C_E|, loosest last (arrays for array inputs)."""

    entanglement_rate_bound: float   # 2 |Gamma| (1 + log d_A)
    speed_bound: float               # 2 sqrt(C) V (1 + log d_A)
    norm_bound: float                # 2 ||H|| log d (1 + log d_A)
    self_inverse_bound: float        # 2 beta (1 + log d)


def capacity_rate_bounds(d_a: int, *, gamma, capacity, speed, op_norm, d: int, base="e") -> CapacityRateBounds:
    """Evaluate all four capacity-rate bounds for comparison with a measured rate.

    ``gamma``, ``capacity``, ``speed`` and ``op_norm`` are scalars or arrays
    that broadcast together; array inputs give array bounds.  The norm bound
    takes the ancilla-unassisted rate constant at 1, its most conservative
    value.
    """
    for x in (np.abs(gamma), capacity, speed, op_norm):
        _checked_real(x, "bound inputs must be finite and non-negative", 0.0)
    d_a, d = _checked_count(d_a, "d_a"), _checked_count(d, "d")
    scale = log_scale(base)
    log_da = np.log(d_a) / scale
    log_d = np.log(d) / scale
    beta = max_entropy_rate_constant(base)

    def out(x):
        return float(x) if np.ndim(x) == 0 else x

    return CapacityRateBounds(
        entanglement_rate_bound=out(np.abs(2.0 * gamma * (1.0 + log_da))),
        speed_bound=out(2.0 * np.sqrt(capacity) * speed * (1.0 + log_da)),
        norm_bound=out(2.0 * op_norm * log_d * (1.0 + log_da)),
        self_inverse_bound=float(2.0 * beta * (1.0 + log_d)),
    )
