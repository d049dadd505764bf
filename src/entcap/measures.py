"""Entanglement entropy, modular Hamiltonians, and the capacity of entanglement."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BipartitePureState,
    DensityOperator,
    DomainError,
    _bisect,
    _checked_count,
    _checked_real,
    _density_weights,
    _entropy_terms,
    _hamiltonian_matrix,
    _partial_trace_matrix,
    _support_log,
    _trace_distance,
    _von_neumann_entropy,
    log_scale,
    schmidt_decompose,
    SUPPORT_CUTOFF,
)

FLATNESS_TOL = 1e-9


@dataclass(frozen=True)
class CapacityResult:
    """Capacity (modular-Hamiltonian variance) with the entropy (its mean)."""

    capacity: float
    entropy: float


def modular_hamiltonian(rho: DensityOperator, base="e") -> np.ndarray:
    """The matrix K = -log rho on the support of rho; null directions map to 0."""
    return -_support_log(rho.matrix, base)[0]


def _spectrum_capacity(w: np.ndarray, base="e") -> tuple[np.ndarray, np.ndarray]:
    """(capacity, entropy) of the probability vectors along the last axis of w.

    Capacity sum_i w_i log^2 w_i - S^2 with 0·log 0 = 0; both clamped at 0
    against round-off.  Raises DomainError unless every vector is
    non-negative (to -1e-12) and sums to 1 (to 1e-10), so an empty one fails.
    """
    if not (w.size and w.min() >= -1e-12 and np.abs(w.sum(axis=-1) - 1.0).max() <= 1e-10):
        raise DomainError("weights must be non-negative and sum to 1")
    entropy, p, logs = _entropy_terms(w, base)
    capacity = np.sum(p * logs**2, axis=-1) - entropy**2
    return np.where(capacity < 0.0, 0.0, capacity), np.where(entropy < 0.0, 0.0, entropy)


def capacity_from_spectrum(weights, base="e") -> CapacityResult:
    """Capacity sum_i w_i log^2 w_i - S^2 for a probability vector (0·log^2 0 = 0)."""
    capacity, entropy = _spectrum_capacity(np.asarray(weights, dtype=float), base)
    return CapacityResult(float(capacity), float(entropy))


def capacity_pure(state: BipartitePureState, base="e") -> CapacityResult:
    """Capacity of entanglement of a bipartite pure state from its Schmidt weights."""
    weights, _, _ = schmidt_decompose(state)
    return capacity_from_spectrum(weights, base)


def _density_capacity(m: np.ndarray, base="e") -> np.ndarray:
    """Capacity of density matrices (..., d, d), from the spectra ``capacity_of`` uses."""
    return _spectrum_capacity(_density_weights(m), base)[0]


def capacity_of(rho: DensityOperator, base="e") -> CapacityResult:
    """Capacity computed from the eigenvalues of a (reduced) density operator."""
    return capacity_from_spectrum(_density_weights(rho.matrix), base)


def capacity_two_qubit_closed(p: float, base="e") -> float:
    """Closed form p(1-p) log^2(p/(1-p)) for a two-term Schmidt spectrum (p, 1-p)."""
    _checked_real(p, "p must lie in [0, 1]", 0.0, 1.0)
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(p * (1.0 - p) * (np.log(p / (1.0 - p)) / log_scale(base)) ** 2)


def is_flat(spectrum) -> bool:
    """True iff all eigenvalues above the support cutoff agree to relative FLATNESS_TOL.

    DomainError unless every entry is finite and one is positive.
    """
    w = _checked_real(spectrum, "spectrum must be finite with a positive entry")
    if not w.max(initial=0.0) > 0.0:
        raise DomainError("spectrum must be finite with a positive entry")
    nz = w[w > SUPPORT_CUTOFF * w.max()]
    return bool((nz.max() - nz.min()) <= FLATNESS_TOL * nz.max())


def _variance(obs: np.ndarray, m: np.ndarray) -> np.ndarray:
    """tr(m O^2) - tr(m O)^2 over matrices (..., d, d), clamped at 0 against round-off."""
    mean = np.trace(m @ obs, axis1=-2, axis2=-1).real
    second = np.trace(m @ obs @ obs, axis1=-2, axis2=-1).real
    var = second - mean**2
    if not var.min() >= -1e-12:
        raise DomainError(f"variance {var.min():.3e} below round-off tolerance")
    return np.maximum(var, 0.0)


def observable_variance(obs: np.ndarray, rho: DensityOperator) -> float:
    """tr(rho O^2) - tr(rho O)^2, clamped at 0 against round-off; a stack of N observables gives N values."""
    out = _variance(_hamiltonian_matrix(obs, rho.dim), rho.matrix)
    return float(out) if out.ndim == 0 else out


def solve_max_variance_spectrum(d: int) -> tuple[float, np.ndarray]:
    """The spectrum (1-r, r/(d-1), ..., r/(d-1)) maximizing the capacity at dimension d.

    r is the root of (1-2r) ln((1-r)(d-1)/r) = 2 in (0, 1/2), found by bisection.
    """
    d = _checked_count(d, "d", 2)
    r = _bisect(lambda r: (1.0 - 2.0 * r) * np.log((1.0 - r) / r * (d - 1)) - 2.0, 1e-300, 0.5)
    weights = np.full(d, r / (d - 1))
    weights[0] = 1.0 - r
    return float(r), weights


def smallest_continuity_constant(rhos: np.ndarray, sigmas: np.ndarray, base="e") -> float:
    """Smallest xi with |C(rho)-C(rho')|^2 <= xi log^2(d) D(rho,rho') on a sample.

    ``rhos`` and ``sigmas`` are stacks (n, d, d) of density matrices, paired
    row by row; pairs closer than 1e-14 in trace distance are skipped.
    Reporter only: the bound's constant is not pinned down analytically.
    """
    dist = _trace_distance(rhos, sigmas)
    gap = np.abs(_density_capacity(rhos, base) - _density_capacity(sigmas, base))
    far = dist >= 1e-14
    xi = gap**2 / ((np.log(rhos.shape[-1]) / log_scale(base)) ** 2 * np.where(far, dist, 1.0))
    return float(np.max(xi, where=far, initial=0.0))


def smallest_subadditivity_constant(states: np.ndarray, d_a: int, d_b: int, base="e") -> float:
    """Smallest chi with C(rho) <= C(rho_A)+C(rho_B)+chi log^2(d) f(I) on a sample.

    ``states`` is a stack (n, d_a d_b, d_a d_b) of density matrices on A⊗B;
    f(x) = max(x^(1/4), x^2) with I the mutual information.  Samples with no
    excess capacity, or with f below 1e-14, are skipped.  Reporter only.
    """
    rho_a = _partial_trace_matrix(states, d_a, d_b, "A")
    rho_b = _partial_trace_matrix(states, d_a, d_b, "B")
    excess = (_density_capacity(states, base) - _density_capacity(rho_a, base)
              - _density_capacity(rho_b, base))
    mutual = np.maximum(_von_neumann_entropy(rho_a, base) + _von_neumann_entropy(rho_b, base)
                        - _von_neumann_entropy(states, base), 0.0)
    f = np.maximum(mutual**0.25, mutual**2)
    kept = (excess > 0.0) & (f >= 1e-14)
    chi = excess / ((np.log(d_a * d_b) / log_scale(base)) ** 2 * np.where(kept, f, 1.0))
    return float(np.max(chi, where=kept, initial=0.0))
