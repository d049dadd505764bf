"""Relative entropy of entanglement, closest separable states, and mixed-state capacity."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BipartitePureState,
    ConfigurationError,
    DensityOperator,
    DomainError,
    _leaves_support,
    density_from_pure,
    hermitize,
    log_on_support,
    log_scale,
    relative_entropy,
    schmidt_decompose,
)

PPT_TOL = 1e-8

_BELL_PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
_KET = np.eye(4, dtype=complex)


def partial_transpose(rho, subsystem: str = "B") -> np.ndarray:
    """Transpose one tensor factor; exact involution."""
    if isinstance(rho, DensityOperator):
        d_a, d_b = rho.split()
        m = rho.matrix
    else:
        m = np.asarray(rho, dtype=complex)
        d = int(round(math.sqrt(m.shape[0])))
        if d * d != m.shape[0]:
            raise ConfigurationError("partial transpose of a raw matrix needs a square split")
        d_a = d_b = d
    r = m.reshape(d_a, d_b, d_a, d_b)
    if subsystem == "B":
        out = r.transpose(0, 3, 2, 1)
    elif subsystem == "A":
        out = r.transpose(2, 1, 0, 3)
    else:
        raise ConfigurationError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    return out.reshape(d_a * d_b, d_a * d_b)


def is_ppt(rho: DensityOperator, tol: float = PPT_TOL) -> bool:
    """Peres-Horodecki test: partial transpose PSD within tol."""
    w = np.linalg.eigvalsh(partial_transpose(rho))
    return bool(w.min() >= -tol)


@dataclass(frozen=True)
class SeparableApproximation:
    """Candidate closest separable state with its achieved relative entropy.

    ``objective_trace`` holds (smoothing_level, objective) pairs for every
    accepted solver iteration; analytic constructions leave it empty.
    """

    sigma_star: DensityOperator
    relative_entropy: float
    iterations: int
    final_step_norm: float
    method: str
    converged: bool = True
    objective_trace: tuple = ()


def closest_separable_pure(state: BipartitePureState, base="e") -> SeparableApproximation:
    """Dephasing in the Schmidt basis: the known minimizer for pure states."""
    weights, basis_a, basis_b = schmidt_decompose(state)
    d = state.dim
    sigma = np.zeros((d, d), dtype=complex)
    for w, a_col, b_col in zip(weights, basis_a.T, basis_b.T):
        v = np.kron(a_col, b_col)
        sigma += w * np.outer(v, v.conj())
    sigma_star = DensityOperator(hermitize(sigma), d_a=state.d_a, d_b=state.d_b)
    e_r = relative_entropy(density_from_pure(state), sigma_star, base)
    return SeparableApproximation(sigma_star, e_r, 0, 0.0, "analytic-pure")


def family1_state(lam: float) -> DensityOperator:
    """lam |Phi+><Phi+| + (1-lam) |01><01|."""
    if lam < 0.0 or lam > 1.0:
        raise DomainError("lam must lie in [0, 1]")
    m = lam * np.outer(_BELL_PHI_PLUS, _BELL_PHI_PLUS.conj()) + (1.0 - lam) * np.outer(_KET[1], _KET[1].conj())
    return DensityOperator(m, d_a=2, d_b=2)


def family1_closest(lam: float) -> DensityOperator:
    """Closest separable state of the first mixture family."""
    a = lam / 2.0 * (1.0 - lam / 2.0)
    m = a * (
        np.outer(_KET[0], _KET[0].conj()) + np.outer(_KET[0], _KET[3].conj())
        + np.outer(_KET[3], _KET[0].conj()) + np.outer(_KET[3], _KET[3].conj())
    )
    m += (1.0 - lam / 2.0) ** 2 * np.outer(_KET[1], _KET[1].conj())
    m += lam**2 / 4.0 * np.outer(_KET[2], _KET[2].conj())
    return DensityOperator(m, d_a=2, d_b=2)


def family1_relative_entropy(lam: float, base="e") -> float:
    """(lam-2) ln(1 - lam/2) + (1-lam) ln(1-lam), converted to the requested base."""
    scale = log_scale(base)
    val = (lam - 2.0) * math.log(1.0 - lam / 2.0)
    if lam < 1.0:
        val += (1.0 - lam) * math.log(1.0 - lam)
    return val / scale


def family2_state(lam: float) -> DensityOperator:
    """lam |Phi+><Phi+| + (1-lam) |00><00|."""
    if lam < 0.0 or lam > 1.0:
        raise DomainError("lam must lie in [0, 1]")
    m = lam * np.outer(_BELL_PHI_PLUS, _BELL_PHI_PLUS.conj()) + (1.0 - lam) * np.outer(_KET[0], _KET[0].conj())
    return DensityOperator(m, d_a=2, d_b=2)


def family2_closest(lam: float) -> DensityOperator:
    """(1 - lam/2)|00><00| + (lam/2)|11><11|."""
    m = (1.0 - lam / 2.0) * np.outer(_KET[0], _KET[0].conj()) + lam / 2.0 * np.outer(_KET[3], _KET[3].conj())
    return DensityOperator(m, d_a=2, d_b=2)


def family2_relative_entropy(lam: float, base="e") -> float:
    """Exact relative entropy to the second family's closest separable state.

    s± = (1 ± sqrt(1 - 2 lam (1 - lam)))/2 are the state's eigenvalues; the
    cross term uses the diagonal weights (1 - lam/2, lam/2) of the minimizer.
    """
    scale = log_scale(base)

    def xlx(x: float) -> float:
        return x * math.log(x) if x > 0.0 else 0.0

    disc = math.sqrt(max(1.0 - 2.0 * lam * (1.0 - lam), 0.0))
    s_plus, s_minus = (1.0 + disc) / 2.0, (1.0 - disc) / 2.0
    val = xlx(s_plus) + xlx(s_minus) - xlx(1.0 - lam / 2.0) - xlx(lam / 2.0)
    return val / scale


def closest_separable_family1(lam: float, base="e") -> SeparableApproximation:
    """Analytic closest separable state for the Bell/|01> mixture."""
    rho = family1_state(lam)
    sigma = family1_closest(lam)
    return SeparableApproximation(sigma, relative_entropy(rho, sigma, base), 0, 0.0, "analytic-family-1")


def closest_separable_family2(lam: float, base="e") -> SeparableApproximation:
    """Analytic closest separable state for the Bell/|00> mixture."""
    rho = family2_state(lam)
    sigma = family2_closest(lam)
    return SeparableApproximation(sigma, relative_entropy(rho, sigma, base), 0, 0.0, "analytic-family-2")


# ---------------------------------------------------------------------------
# Numeric solver: projected gradient over the PPT ∩ density set
# ---------------------------------------------------------------------------

_I4 = np.eye(4)


def _proj_psd(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(hermitize(m))
    return (v * np.clip(w, 0.0, None)) @ v.conj().T


def _proj_ppt(m: np.ndarray) -> np.ndarray:
    return partial_transpose(_proj_psd(partial_transpose(m)))


def _proj_trace(m: np.ndarray) -> np.ndarray:
    m = hermitize(m)
    return m + (1.0 - np.trace(m).real) / m.shape[0] * _I4


def project_separable(m: np.ndarray, iters: int = 120, tol: float = 1e-12) -> np.ndarray:
    """Dykstra projection onto {PSD} ∩ {PPT} ∩ {tr = 1} for two qubits.

    The input is first moved onto the hyperplane tr = 1.  That hyperplane
    holds the whole target set, so this leaves the projection unchanged, and
    it keeps the sweeps from stalling at zero on inputs of trace <= 0.  The
    returned matrix is exactly PSD and unit trace; the PPT defect is at the
    Dykstra tolerance, or larger when ``iters`` sweeps run out on an input
    far from the set.  When the PSD projection alone already lands in the PPT
    set it is the exact intersection projection and is returned directly.
    """
    x = _proj_trace(np.asarray(m, dtype=complex))
    y = _proj_psd(x)
    ty = np.trace(y).real
    if ty > 0.0 and abs(ty - 1.0) < 1e-8:
        cand = y / ty
        if np.linalg.eigvalsh(partial_transpose(cand)).min() >= -1e-13:
            return cand
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for _ in range(iters):
        x_prev = x
        y = _proj_psd(x + p)
        p = x + p - y
        z = _proj_ppt(y + q)
        q = y + q - z
        x = _proj_trace(z)
        if np.linalg.norm(x - x_prev) < tol:
            break
    w, v = np.linalg.eigh(hermitize(x))
    w = np.clip(w, 0.0, None)
    return (v * (w / w.sum())) @ v.conj().T


def _smoothed_objective(rho: np.ndarray, sigma: np.ndarray, delta: float):
    w, v = np.linalg.eigh(hermitize(sigma))
    a = np.einsum("ji,jk,ki->i", v.conj(), rho, v).real
    return float(-np.sum(a * np.log(np.clip(w, delta, None)))), w, v


def _smoothed_gradient(rho: np.ndarray, w: np.ndarray, v: np.ndarray, delta: float) -> np.ndarray:
    # Frechet derivative of the matrix log: divided-difference kernel in the eigenbasis
    wc = np.clip(w, delta, None)
    lw = np.log(wc)
    den = wc[:, None] - wc[None, :]
    num = lw[:, None] - lw[None, :]
    kernel = np.where(np.abs(den) > 1e-16, num / np.where(den == 0.0, 1.0, den), 1.0 / wc[:, None])
    a = v.conj().T @ rho @ v
    grad = hermitize(-v @ (a * kernel) @ v.conj().T)
    return grad - (np.trace(grad).real / grad.shape[0]) * _I4


def _descend_at_delta(rho, sigma, delta, max_iter, tol, step0=1.0, trace=None):
    """Monotone projected-gradient loop for one smoothing level."""
    f, w, v = _smoothed_objective(rho, sigma, delta)
    grad = _smoothed_gradient(rho, w, v, delta)
    sig_prev = grad_prev = None
    step = step0 / max(np.linalg.norm(grad), 1.0)
    move = 0.0
    for it in range(max_iter):
        if sig_prev is not None:
            ds = sigma - sig_prev
            dg = grad - grad_prev
            curv = np.sum(ds.conj() * dg).real
            if curv > 1e-18:
                step = min(max(np.sum(ds.conj() * ds).real / curv, 1e-13), 1e6)
        t = step
        accepted = False
        for _ in range(60):
            cand = project_separable(sigma - t * grad)
            fc, wc, vc = _smoothed_objective(rho, cand, delta)
            descent = np.sum(grad.conj() * (cand - sigma)).real
            if fc <= f + 1e-4 * descent + 1e-15:
                accepted = True
                break
            if np.linalg.norm(cand - sigma) < tol:
                # the trial moves sigma by less than this level's stopping
                # tolerance, and shorter steps would move it less still
                break
            # the quadratic in s that matches f and the slope at s = 0 and fc at
            # s = 1 along the projected step has its minimum at -descent/(2 curv);
            # clamping to [0.1, 0.5] shrinks t by at least half, at most tenfold
            curv = fc - f - descent
            t *= min(max(-descent / (2.0 * curv), 0.1), 0.5) if curv > 0.0 else 0.5
        if not accepted:
            return sigma, it, move
        move = float(np.linalg.norm(cand - sigma))
        sig_prev, grad_prev = sigma, grad
        sigma, f, w, v = cand, fc, wc, vc
        if trace is not None:
            trace.append((delta, f))
        grad = _smoothed_gradient(rho, w, v, delta)
        if move < tol:
            return sigma, it + 1, move
    return sigma, max_iter, move


def closest_separable_numeric(rho: DensityOperator, max_iter: int = 400, tol: float = 1e-11,
                              step: float = 1.0, base="e") -> SeparableApproximation:
    """Minimize S(rho || sigma) over two-qubit PPT density operators.

    Projected gradient with Barzilai-Borwein steps and Armijo backtracking,
    projecting each trial onto the feasible set with Dykstra sweeps.  A
    rejected trial shrinks the step to the minimizer of the quadratic through
    the objective, its slope along the projected step and the trial's value,
    kept within 0.1 to 0.5 of the old step; the search gives up, leaving
    sigma where it is, once a trial moves sigma by less than the level's
    tolerance.  The operator log is smoothed by flooring eigenvalues at delta,
    and delta is driven from 1e-2 down to 1e-12 with warm starts; the
    smoothing removes the unbounded gradients that otherwise stall the line
    search when the minimizer is rank deficient.

    ``max_iter``/``tol`` apply per smoothing level; a level stops once a step
    moves sigma by less than ``max(delta * 1e-3, tol)``.  The reported value
    is the support-checked relative entropy at the final iterate.
    """
    d_a, d_b = rho.split()
    if d_a != 2 or d_b != 2:
        raise DomainError("the numeric solver handles two qubits only")
    r = rho.matrix
    sigma = project_separable(0.999 * np.diag(np.diag(r)) + 0.001 * _I4 / 4.0)
    iterations = 0
    move = 0.0
    trace: list = []
    for delta in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
        sigma, used, move = _descend_at_delta(rho=r, sigma=sigma, delta=delta,
                                              max_iter=max_iter, tol=max(delta * 1e-3, tol),
                                              step0=step, trace=trace)
        iterations += used
    sigma_star = DensityOperator(sigma, d_a=2, d_b=2)
    value = relative_entropy(rho, sigma_star, base)
    converged = math.isfinite(value) and move < 1e-6
    return SeparableApproximation(sigma_star, value, iterations, move, "numeric-ppt",
                                  converged, tuple(trace))


def capacity_mixed(rho: DensityOperator, sigma_star: DensityOperator, base="e") -> float:
    """Variance of log(rho) - log(sigma*) in rho: the mixed-state capacity.

    Both logs are taken on their own supports; supp(rho) must lie inside
    supp(sigma*).  Reduces to the pure-state capacity when rho is pure and
    sigma* is its Schmidt dephasing.
    """
    if rho.dim != sigma_star.dim:
        raise DomainError("state and separable reference dimensions differ")
    if _leaves_support(rho, sigma_star):
        raise DomainError("supp(rho) is not contained in supp(sigma*)")
    shift = log_on_support(rho, base) - log_on_support(sigma_star, base)
    mean = np.trace(rho.matrix @ shift).real
    second = np.trace(rho.matrix @ shift @ shift).real
    return max(float(second - mean**2), 0.0)
