"""Entanglement entropy, modular Hamiltonians, and the capacity of entanglement."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BipartitePureState,
    DensityOperator,
    DomainError,
    Spectrum,
    _bisect,
    hermitize,
    log_on_support,
    log_scale,
    partial_trace,
    schmidt_decompose,
    support_projector,
    SUPPORT_CUTOFF,
)

FLATNESS_TOL = 1e-9


@dataclass(frozen=True)
class ModularHamiltonian:
    """K = -log(rho) on the support, together with the support projector."""

    matrix: np.ndarray
    base: object
    support_projector: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """exp(-K) in the stored base, compressed to the support block."""
        scale = log_scale(self.base)
        w, v = np.linalg.eigh(self.matrix)
        rho = (v * np.exp(-w * scale)) @ v.conj().T
        p = self.support_projector
        return hermitize(p @ rho @ p)


@dataclass(frozen=True)
class CapacityResult:
    """Capacity (modular-Hamiltonian variance) with the entropy and spectrum used."""

    capacity: float
    entropy: float
    spectrum: Spectrum


def modular_hamiltonian(rho: DensityOperator, base="e") -> ModularHamiltonian:
    """K = -log rho on the support of rho."""
    return ModularHamiltonian(
        matrix=-log_on_support(rho, base),
        base=base,
        support_projector=support_projector(rho),
    )


def _spectrum_capacity(w: np.ndarray, base="e") -> tuple[np.ndarray, np.ndarray]:
    """(capacity, entropy) of the probability vectors along the last axis of w.

    Capacity sum_i w_i log^2 w_i - S^2 with 0·log 0 = 0; both clamped at 0
    against round-off.  Raises DomainError unless every vector is
    non-negative (to -1e-12) and sums to 1 (to 1e-10).
    """
    if w.min() < -1e-12 or np.abs(w.sum(axis=-1) - 1.0).max() > 1e-10:
        raise DomainError("weights must be non-negative and sum to 1")
    scale = log_scale(base)
    pos = w > 0.0
    nz = np.maximum(w, 1e-300)  # entries <= 0 are masked out of both sums
    logs = np.log(nz) / scale
    entropy = -np.sum(np.where(pos, nz * logs, 0.0), axis=-1)
    second = np.sum(np.where(pos, nz * logs**2, 0.0), axis=-1)
    capacity = second - entropy**2
    return np.where(capacity < 0.0, 0.0, capacity), np.where(entropy < 0.0, 0.0, entropy)


def capacity_from_spectrum(weights, base="e") -> CapacityResult:
    """Capacity sum_i w_i log^2 w_i - S^2 for a probability vector (0·log^2 0 = 0)."""
    w = np.asarray(weights, dtype=float)
    capacity, entropy = _spectrum_capacity(w, base)
    order = np.argsort(w)[::-1]
    spec = Spectrum(w[order], np.eye(len(w))[:, order])
    return CapacityResult(float(capacity), float(entropy), spec)


def capacity_pure(state: BipartitePureState, base="e") -> CapacityResult:
    """Capacity of entanglement of a bipartite pure state from its Schmidt weights."""
    weights, _, _ = schmidt_decompose(state)
    return capacity_from_spectrum(weights, base)


def capacity_of(rho: DensityOperator, base="e") -> CapacityResult:
    """Capacity computed from the eigenvalues of a (reduced) density operator."""
    w = np.clip(np.linalg.eigvalsh(rho.matrix), 0.0, None)
    return capacity_from_spectrum(w / w.sum(), base)


def capacity_two_qubit_closed(p: float, base="e") -> float:
    """Closed form p(1-p) log^2(p/(1-p)) for a two-term Schmidt spectrum (p, 1-p)."""
    if p < 0.0 or p > 1.0:
        raise DomainError("p must lie in [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    scale = log_scale(base)
    return float(p * (1.0 - p) * (np.log(p / (1.0 - p)) / scale) ** 2)


def is_flat(spectrum, tol: float = FLATNESS_TOL) -> bool:
    """True iff all eigenvalues above the support cutoff agree to relative tol."""
    w = np.asarray(spectrum, dtype=float)
    nz = w[w > SUPPORT_CUTOFF * w.max()]
    return bool((nz.max() - nz.min()) <= tol * nz.max())


def observable_variance(obs: np.ndarray, rho: DensityOperator) -> float:
    """tr(rho O^2) - tr(rho O)^2, clamped at 0 against round-off."""
    obs = np.asarray(obs, dtype=complex)
    if obs.shape != rho.matrix.shape:
        raise DomainError("observable and state dimensions do not match")
    mean = np.trace(rho.matrix @ obs).real
    second = np.trace(rho.matrix @ obs @ obs).real
    var = second - mean**2
    if var < -1e-12:
        raise DomainError(f"variance {var:.3e} below round-off tolerance")
    return max(var, 0.0)


def uncertainty(obs: np.ndarray, rho: DensityOperator) -> float:
    """Standard deviation sqrt(tr(rho O^2) - tr(rho O)^2)."""
    return float(np.sqrt(observable_variance(obs, rho)))


def solve_max_variance_spectrum(d: int) -> tuple[float, np.ndarray]:
    """Spectrum (1-r, r/(d-1), ..., r/(d-1)) maximizing the capacity at dimension d.

    r is the root of (1-2r) ln((1-r)(d-1)/r) = 2 in (0, 1/2), found by bisection.
    """
    if d < 2:
        raise DomainError("dimension must be at least 2")
    r = _bisect(lambda r: (1.0 - 2.0 * r) * np.log((1.0 - r) / r * (d - 1)) - 2.0, 1e-300, 0.5)
    weights = np.full(d, r / (d - 1))
    weights[0] = 1.0 - r
    return float(r), weights


def smallest_continuity_constant(pairs, base="e") -> float:
    """Smallest xi with |C(rho)-C(rho')|^2 <= xi log^2(d) D(rho,rho') on a sample.

    ``pairs`` iterates over (rho, sigma) DensityOperator pairs of equal dimension.
    Reporter only: the bound's constant is not pinned down analytically.
    """
    from .core import trace_distance

    scale = log_scale(base)
    xi = 0.0
    for rho, sigma in pairs:
        d = rho.dim
        dist = trace_distance(rho, sigma)
        if dist < 1e-14:
            continue
        gap = abs(capacity_of(rho, base).capacity - capacity_of(sigma, base).capacity)
        xi = max(xi, gap**2 / ((np.log(d) / scale) ** 2 * dist))
    return xi


def smallest_subadditivity_constant(states, base="e") -> float:
    """Smallest chi with C(rho) <= C(rho_A)+C(rho_B)+chi log^2(d) f(I) on a sample.

    f(x) = max(x^(1/4), x^2) with I the mutual information.  Reporter only.
    """
    from .core import von_neumann_entropy

    scale = log_scale(base)
    chi = 0.0
    for rho in states:
        rho_a = partial_trace(rho, "A")
        rho_b = partial_trace(rho, "B")
        excess = (
            capacity_of(rho, base).capacity
            - capacity_of(rho_a, base).capacity
            - capacity_of(rho_b, base).capacity
        )
        if excess <= 0.0:
            continue
        mutual = (
            von_neumann_entropy(rho_a, base)
            + von_neumann_entropy(rho_b, base)
            - von_neumann_entropy(rho, base)
        )
        f = max(mutual**0.25, mutual**2)
        if f < 1e-14:
            continue
        chi = max(chi, excess / ((np.log(rho.dim) / scale) ** 2 * f))
    return chi
