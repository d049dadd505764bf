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

    ``objective_trace`` holds (barrier_weight, objective) pairs for every
    accepted solver step; analytic constructions leave it empty.
    """

    sigma_star: DensityOperator
    relative_entropy: float
    iterations: int
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
    return SeparableApproximation(sigma_star, e_r, 0, "analytic-pure")


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
    return SeparableApproximation(sigma, relative_entropy(rho, sigma, base), 0, "analytic-family-1")


def closest_separable_family2(lam: float, base="e") -> SeparableApproximation:
    """Analytic closest separable state for the Bell/|00> mixture."""
    rho = family2_state(lam)
    sigma = family2_closest(lam)
    return SeparableApproximation(sigma, relative_entropy(rho, sigma, base), 0, "analytic-family-2")


# ---------------------------------------------------------------------------
# Projection onto the PPT ∩ density set (Dykstra)
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
    The REE solver does not use it.
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


# ---------------------------------------------------------------------------
# Numeric solver: log-barrier Newton over the PPT ∩ density set
# ---------------------------------------------------------------------------

# sigma = I/4 + sum_a x_a B_a with B_a = s_i ⊗ s_j / 2 over the 15 Pauli pairs
# (i, j) != (0, 0): an orthonormal basis of the traceless Hermitian matrices, so
# every x has tr sigma = 1.  Transposing the second factor flips the sign of s_y only,
# so sigma^Γ is the same sum with the x_a of the pairs (i, y) negated.
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_BASIS = (_PAULI[:, None, :, None, :, None] * _PAULI[None, :, None, :, None, :]).reshape(16, 4, 4)[1:] / 2.0
_PT_SIGN = np.tile([1.0, 1.0, -1.0, 1.0], 4)[1:]
_BASES = np.stack([_BASIS, _PT_SIGN[:, None, None] * _BASIS])  # for sigma and for sigma^Γ
_COORDS = _BASES.transpose(1, 0, 2, 3).reshape(15, 32)
_LO, _MID, _HI = np.sort(np.indices((4, 4, 4)), axis=0)
_MU_LEVELS = 10.0 ** -np.arange(14.0)  # barrier weights 1, 0.1, ..., 1e-13
_DECREMENT_TOL = 1e-12
_LEVEL_STEPS = 50
_RIDGE = 1e-10 * np.eye(15)


def _barrier_objective(rho: np.ndarray, x: np.ndarray, mu: float):
    """F_mu(x) = -tr rho log sigma - mu (log det sigma + log det sigma^Γ).

    Returns the value with the eigensystems of sigma and sigma^Γ (stacked), or
    inf and None when either is not positive definite.
    """
    w, v = np.linalg.eigh((x @ _COORDS).reshape(2, 4, 4) + _I4 / 4.0)
    if w[:, 0].min() <= 0.0:
        return math.inf, None
    a = np.einsum("ji,jk,ki->i", v[0].conj(), rho, v[0]).real
    lw = np.log(w)
    return float(-a @ lw[0] - mu * lw.sum()), (w, v)


def _log_divided_differences(w: np.ndarray):
    """First and second divided differences of log at ascending positive w."""
    hi = np.maximum.outer(w, w)
    lo = np.minimum.outer(w, w)
    d = lo - hi
    safe = np.where(d == 0.0, 1.0, d)
    # within a factor 2, d is exact (Sterbenz) and log1p keeps the quotient exact
    f1 = np.where(lo >= 0.5 * hi, np.log1p(d / hi), np.log(lo) - np.log(hi)) / safe
    f1 = np.where(d == 0.0, 1.0 / hi, f1)
    # f[a, b, c] is symmetric: divide across the widest pair of the sorted triple,
    # or take f''/2 at the mean when the three agree to 1e-5
    a, b, c = w[_LO], w[_MID], w[_HI]
    spread = c - a
    wide = spread > 1e-5 * c
    f2 = np.where(wide, (f1[_MID, _HI] - f1[_LO, _MID]) / np.where(wide, spread, 1.0),
                  -4.5 / (a + b + c) ** 2)
    return f1, f2


def _newton_system(rho: np.ndarray, mu: float, w: np.ndarray, v: np.ndarray):
    """Gradient, barrier part of the gradient, and a factor j (h = j^T j) of F_mu's Hessian.

    The Hessian is never formed: where sigma^Γ nears the PPT boundary its
    barrier curvature reaches 1/mu, and rounding of h at that scale would
    swamp curvatures near mu elsewhere; a QR of j does not.
    """
    # each B_a in the eigenbases of sigma and sigma^Γ: row-major vec(V^† B V) = (V^† ⊗ V^T) vec(B)
    kv = (v.conj()[:, :, None, :, None] * v[:, None, :, None, :]).reshape(2, 16, 16)
    bt = (_BASES.reshape(2, 15, 16) @ kv).reshape(2, 15, 4, 4)
    # -mu log det s: gradient -mu tr(s^-1 B_a), Hessian mu tr(s^-1 B_a s^-1 B_b) = mu Re(p p^†)
    g_bar = -mu * np.einsum("sai,si->a", np.diagonal(bt, axis1=2, axis2=3).real, 1.0 / w)
    p = (bt / np.sqrt(w[:, None, :, None] * w[:, None, None, :])).transpose(1, 0, 2, 3).reshape(15, 32)
    # -tr rho log sigma through the Daleckii-Krein formulas: the gradient is
    # -tr(B_a Dlog[rho]), the Hessian -sum_ikj rho_ji f2_ikj (B_a,ik B_b,kj + B_b,ik B_a,kj)
    f1, f2 = _log_divided_differences(w[0])
    b = bt[0]
    r = v[0].conj().T @ rho @ v[0]
    g = g_bar - (b.reshape(15, 16).conj() @ (f1 * r).reshape(16)).real
    z = (r.T[:, None, :] * f2).transpose(1, 0, 2) @ b.transpose(1, 2, 0)
    k = b.transpose(0, 2, 1).reshape(15, 16) @ z.reshape(16, 15)
    lam, u = np.linalg.eigh(-(k + k.T).real)  # convex term: PSD up to rounding
    j = np.vstack([(u * np.sqrt(np.clip(lam, 0.0, None))).T, math.sqrt(mu) * p.real.T,
                   math.sqrt(mu) * p.imag.T])
    return g, g_bar, j


def _newton_factor(j: np.ndarray):
    """Triangular r and column scale s with r^T r = (j s)^T (j s) + 1e-20.

    The ridge keeps steps finite where the minimizer is not unique (the Bell
    state) and h is singular to rounding.
    """
    s = 1.0 / np.linalg.norm(j, axis=0)
    return np.linalg.qr(np.vstack([j * s, _RIDGE]), mode="r"), s


def _newton_solve(factor, rhs: np.ndarray) -> np.ndarray:
    """h^-1 rhs from the factor of _newton_factor."""
    r, s = factor
    return np.linalg.solve(r, np.linalg.solve(r.T, rhs * s)) * s


def closest_separable_numeric(rho: DensityOperator, base="e") -> SeparableApproximation:
    """Minimize S(rho || sigma) over two-qubit PPT density operators.

    A PPT input is separable (Peres-Horodecki), so it is returned as its own
    closest state with E_R = 0.  Otherwise a log-barrier interior-point method
    minimizes F_mu = -tr rho log sigma - mu (log det sigma + log det sigma^Γ)
    over the 15 Pauli coordinates of sigma, lowering mu from 1 to 1e-13 by
    factors of 10.  Each level runs damped Newton steps with exact gradient
    and Hessian from sigma's eigensystem, backtracking to keep sigma and
    sigma^Γ positive definite and to pass an Armijo test, until the squared
    Newton decrement is at most 1e-12; each step is solved from a QR of a
    Hessian factor (``_newton_system``).  The next level starts from the
    central path's tangent step, halved until it lowers the new objective.
    Every iterate is strictly feasible and the barrier's duality gap is
    8 mu, so the result overshoots E_R by about 1e-12 at most.

    ``iterations`` counts accepted steps and ``converged`` is False when a
    level runs out of steps or backtracking before its decrement test
    passes.  The reported value is the support-checked relative entropy at
    the final iterate.
    """
    d_a, d_b = rho.split()
    if d_a != 2 or d_b != 2:
        raise DomainError("the numeric solver handles two qubits only")
    r = rho.matrix
    if np.linalg.eigvalsh(partial_transpose(r)).min() >= 0.0:
        return SeparableApproximation(rho, 0.0, 0, "numeric-ppt")
    x = np.zeros(15)
    steps = 0
    converged = True
    trace: list = []
    tangent = None
    for mu in _MU_LEVELS:
        f, eig = _barrier_objective(r, x, mu)
        if tangent is not None:
            # first-order prediction of the new centre, halved until it beats x
            for _ in range(10):
                fp, ep = _barrier_objective(r, x + tangent, mu)
                if fp < f:
                    x, f, eig = x + tangent, fp, ep
                    steps += 1
                    trace.append((float(mu), f))
                    break
                tangent = tangent / 2.0
        centred = False
        for _ in range(_LEVEL_STEPS):
            g, g_bar, j = _newton_system(r, mu, *eig)
            factor = _newton_factor(j)
            dx = _newton_solve(factor, -g)
            slope = float(g @ dx)
            if -slope <= _DECREMENT_TOL:
                centred = True
                break
            t = 1.0
            for _ in range(60):
                fc, ec = _barrier_objective(r, x + t * dx, mu)
                if fc <= f + 0.25 * t * slope:
                    break
                t /= 2.0
            else:
                break
            x, f, eig = x + t * dx, fc, ec
            steps += 1
            trace.append((float(mu), f))
        converged = converged and centred
        # the centre x*(mu) has dx*/dmu = h^-1 g_bar / mu, and the next level
        # lowers mu by 0.9 mu
        tangent = 0.9 * _newton_solve(factor, g_bar) if centred else None
    sigma_star = DensityOperator((x @ _COORDS[:, :16]).reshape(4, 4) + _I4 / 4.0, d_a=2, d_b=2)
    value = relative_entropy(rho, sigma_star, base)
    return SeparableApproximation(sigma_star, value, steps, "numeric-ppt",
                                  converged and math.isfinite(value), tuple(trace))


def capacity_mixed(rho: DensityOperator, sigma_star: DensityOperator, base="e") -> float:
    """Variance of log(rho) - log(sigma*) in rho: the mixed-state capacity.

    Both logs are taken on their own supports; supp(rho) must lie inside
    supp(sigma*).  Reduces to the pure-state capacity when rho is pure and
    sigma* is its Schmidt dephasing.
    """
    if rho.dim != sigma_star.dim:
        raise DomainError("state and separable reference dimensions differ")
    if _leaves_support(rho.matrix, sigma_star.matrix):
        raise DomainError("supp(rho) is not contained in supp(sigma*)")
    shift = log_on_support(rho, base) - log_on_support(sigma_star, base)
    mean = np.trace(rho.matrix @ shift).real
    second = np.trace(rho.matrix @ shift @ shift).real
    return max(float(second - mean**2), 0.0)
