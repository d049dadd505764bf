"""Relative entropy of entanglement, closest separable states, and mixed-state capacity."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    _PAULI_PAIRS,
    SUPPORT_CUTOFF,
    BipartitePureState,
    ConfigurationError,
    DensityOperator,
    DomainError,
    _checked_real,
    _entropy_terms,
    _leaves_support,
    _support_log,
    density_from_pure,
    hermitize,
    log_scale,
    relative_entropy,
    schmidt_decompose,
)
from .measures import _variance

PPT_TOL = 1e-8

_BELL_PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
_BELL = np.outer(_BELL_PHI_PLUS, _BELL_PHI_PLUS.conj())


def partial_transpose(rho) -> np.ndarray:
    """Transpose the B tensor factor; exact involution."""
    if isinstance(rho, DensityOperator):
        d_a, d_b = rho.split()
        m = rho.matrix
    else:
        m = np.asarray(rho, dtype=complex)
        d = int(round(math.sqrt(m.shape[0])))
        if d * d != m.shape[0]:
            raise ConfigurationError("partial transpose of a raw matrix needs a square split")
        d_a = d_b = d
    return m.reshape(d_a, d_b, d_a, d_b).transpose(0, 3, 2, 1).reshape(d_a * d_b, d_a * d_b)


def is_ppt(rho: DensityOperator) -> bool:
    """Peres-Horodecki test: partial transpose PSD within ``PPT_TOL``.  ``closest_separable_numeric``'s
    PPT shortcut is stricter (lambda_min >= 0), as E_R near the boundary can reach |lambda_min|."""
    w = np.linalg.eigvalsh(partial_transpose(rho))
    return bool(w.min() >= -PPT_TOL)


# (mu, squared Newton decrement at which the level counts as centred); the first two
# levels only seed the central path's tangent, so they are centred roughly.  The
# level at 1e-3 keeps most full Newton steps at 1e-4 inside the cone
_MU_LEVELS = ((1e-2, 1e-2), (1e-3, 1e-4), (1e-4, 1e-12), (1e-6, 1e-12), (1e-9, 1e-12), (1e-13, 1e-12))


@dataclass(frozen=True)
class SeparableApproximation:
    """Candidate closest separable state with its achieved relative entropy.

    ``method`` names the path taken.  ``work`` has one row per ``_MU_LEVELS`` level of the barrier solve:
    Newton systems, accepted steps, barrier points tried (the start point in the first level) and points
    outside the cone, all zero on the other paths; ``iterations`` is the sum of the accepted steps.
    """

    sigma_star: DensityOperator
    relative_entropy: float
    iterations: int
    method: str
    converged: bool = True
    work: tuple = ((0, 0, 0, 0),) * len(_MU_LEVELS)


def _schmidt_dephasing(weights: np.ndarray, basis_a: np.ndarray, basis_b: np.ndarray) -> DensityOperator:
    """sum_n weights[n] |a_n b_n><a_n b_n| over the paired columns of the two local bases."""
    d_a, d_b = len(basis_a), len(basis_b)
    v = (basis_a[:, None] * basis_b).reshape(d_a * d_b, -1)  # columns a_n ⊗ b_n
    return DensityOperator(hermitize((v * weights) @ v.conj().T), d_a=d_a, d_b=d_b)


def closest_separable_pure(state: BipartitePureState, base="e") -> SeparableApproximation:
    """Dephasing in the Schmidt basis: the known minimizer for pure states."""
    sigma = _schmidt_dephasing(*schmidt_decompose(state))
    return SeparableApproximation(sigma, relative_entropy(density_from_pure(state), sigma, base), 0, "analytic-pure")


def _family_lambda(family: int, lam) -> np.ndarray:
    """lam as a float array; DomainError unless family is 1 or 2 and every lam lies in [0, 1]."""
    if family not in (1, 2):
        raise DomainError(f"family must be 1 or 2, got {family!r}")
    return _checked_real(lam, "lam must lie in [0, 1]", 0.0, 1.0)


def _family_matrices(family: int, lam) -> tuple[np.ndarray, np.ndarray]:
    """(rho, sigma*) of a Bell-mixture family, unchecked, stacked over lam's shape.

    rho = lam |Phi+><Phi+| + (1-lam)|01><01| (family 1) or + (1-lam)|00><00| (family 2).
    sigma* (Vedral & Plenio, PRA 57, 1619 (1998)): family 1 has (lam/2)(1 - lam/2) on all
    four |00>, |11> entries, (1 - lam/2)^2 at |01> and lam^2/4 at |10>; family 2 is
    (1 - lam/2)|00><00| + (lam/2)|11><11|.
    """
    lam = _family_lambda(family, lam)
    rho = lam[..., None, None] * _BELL
    rho[..., 2 - family, 2 - family] += 1.0 - lam  # at |01> or |00>
    sigma = np.zeros(rho.shape, dtype=complex)
    half = lam / 2.0
    if family == 1:
        a = half * (1.0 - half)
        sigma[..., 0, 0] = sigma[..., 0, 3] = sigma[..., 3, 0] = sigma[..., 3, 3] = a
        sigma[..., 1, 1] = (1.0 - half) ** 2
        sigma[..., 2, 2] = lam**2 / 4.0
    else:
        sigma[..., 0, 0] = 1.0 - half
        sigma[..., 3, 3] = half
    return rho, sigma


def family_state(family: int, lam: float) -> DensityOperator:
    """lam |Phi+><Phi+| + (1-lam)|01><01| (family 1) or + (1-lam)|00><00| (family 2)."""
    return DensityOperator(_family_matrices(family, lam)[0], d_a=2, d_b=2)


def family_relative_entropy(family: int, lam, base="e"):
    """Closed-form E_R of a Bell-mixture family, stacked over lam's shape; a scalar lam gives a float.

    Family 1: (lam-2) ln(1 - lam/2) + (1-lam) ln(1-lam).  Family 2: the entropy of sigma*'s
    weights (1 - lam/2, lam/2) minus that of rho's eigenvalues (1 ± sqrt(1 - 2 lam (1-lam)))/2.
    """
    lam = _family_lambda(family, lam)
    half = lam / 2.0
    if family == 1:
        val = (lam - 2.0) * np.log(1.0 - half) - _entropy_terms((1.0 - lam)[..., None])[0]
    else:
        disc = np.sqrt(np.maximum(1.0 - 2.0 * lam * (1.0 - lam), 0.0))
        val = (_entropy_terms(np.stack([1.0 - half, half], axis=-1))[0]
               - _entropy_terms(np.stack([1.0 + disc, 1.0 - disc], axis=-1) / 2.0)[0])
    val = val / log_scale(base)
    return float(val) if val.ndim == 0 else val


def closest_separable_family(family: int, lam: float, base="e") -> SeparableApproximation:
    """Analytic closest separable state of a Bell-mixture family, method ``analytic-family-<family>``."""
    sigma = DensityOperator(_family_matrices(family, lam)[1], d_a=2, d_b=2)
    value = relative_entropy(family_state(family, lam), sigma, base)
    return SeparableApproximation(sigma, value, 0, f"analytic-family-{family}")


# Projection onto the PPT ∩ density set (Dykstra)

_I4 = np.eye(4)
_CENTRE = _I4 / 4.0


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

    The input is first moved onto tr = 1, which holds the whole set, so the
    sweeps cannot stall at zero.  The result is exactly PSD and unit trace; its
    PPT defect is at the tolerance, or larger when ``iters`` sweeps run out.
    A PSD projection already in the PPT set is returned directly.
    """
    x = _proj_trace(np.asarray(m, dtype=complex))
    y = _proj_psd(x)
    ty = np.trace(y).real
    if ty > 0.0 and abs(ty - 1.0) < 1e-8:
        cand = y / ty
        if np.linalg.eigvalsh(partial_transpose(cand)).min() >= -1e-13:
            return cand
    p = q = np.zeros_like(x)
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


# Numeric solver: log-barrier Newton over the PPT ∩ density set

# sigma = I/4 + sum_a x_a B_a, B_a = s_i ⊗ s_j / 2 over the Pauli pairs (i, j) != (0, 0):
# an orthonormal basis of the traceless Hermitian matrices, so tr sigma = 1.  sigma^Γ
# is the same sum with the x_a of the pairs (i, y) negated: s_y^T = -s_y.
_BASIS = _PAULI_PAIRS[1:] / 2.0
_PT_SIGN = np.tile([1.0, 1.0, -1.0, 1.0], 4)[1:]
_BASES = np.stack([_BASIS, _PT_SIGN[:, None, None] * _BASIS])  # for sigma and for sigma^Γ
_BASES_VEC = _BASES.reshape(2, 15, 16)
_COORDS = _BASES.transpose(1, 0, 2, 3).reshape(15, 32)
_LEVEL_STEPS = 50
_RIDGE = 1e-10 * np.eye(15)
_UPPER = np.triu(np.ones((15, 15)))
_PAIR = np.sort(np.indices((4, 4)), axis=0)  # (min, max) of each index pair
_TRIPLE = np.sort(np.indices((4, 4, 4)), axis=0)
_F1_PAIRS = 4 * _TRIPLE[:2] + _TRIPLE[1:]  # flat (lo, mid) and (mid, hi)


def _barrier_point(rho: np.ndarray, x: np.ndarray):
    """(w, v) of sigma and sigma^Γ (stacked) at x, log w, V^† rho V, -tr rho log sigma and
    log det sigma + log det sigma^Γ; None unless w > 0."""
    w, v = np.linalg.eigh((x @ _COORDS).reshape(2, 4, 4) + _CENTRE)
    if min(w[0, 0], w[1, 0]) <= 0.0:
        return None
    lw = np.log(w)
    r = v[0].conj().T @ rho @ v[0]
    return w, v, lw, r, float(-r.diagonal().real @ lw[0]), float(lw.sum())


def _backtrack(rho: np.ndarray, x: np.ndarray, step: np.ndarray, f: float, mu: float, slope: float, tries: int,
               tally: list):
    """(trial, F_mu, point) at the first trial = x + t step, t = 1, 1/2, 1/4, ... (at most ``tries``), where
    sigma and sigma^Γ are positive definite and F_mu = -tr rho log sigma - mu (log det sigma + log det sigma^Γ)
    is at most f - slope t; None when every trial fails.  Adds the trials and those outside the cone to
    tally[2] and tally[3]."""
    t = 1.0
    for _ in range(tries):
        trial = x + t * step
        point = _barrier_point(rho, trial)
        tally[2] += 1
        tally[3] += point is None
        if point is not None and (f_mu := point[4] - mu * point[5]) <= f - slope * t:
            return trial, f_mu, point
        t /= 2.0
    return None


def _log_divided_differences(w: np.ndarray, lw: np.ndarray):
    """First divided differences of log at ascending w > 0, lw = log w, and minus the second."""
    lo, hi = w[_PAIR]
    d = lo - hi
    same = d == 0.0
    # within a factor 2, d is exact (Sterbenz) and log1p keeps the quotient exact; d = 0 gives 1/hi
    f1 = np.where(lo >= 0.5 * hi, np.log1p(d / hi), lw[_PAIR[0]] - lw[_PAIR[1]]) / (d + same) + same / hi
    # f[a, b, c] is symmetric: divide across the widest pair of the sorted triple,
    # or take f''/2 at the mean when the three agree to 1e-5
    a, b, c = w[_TRIPLE]
    lo_mid, mid_hi = f1.reshape(16)[_F1_PAIRS]
    spread, close = c - a, 1e-5 * c
    return f1, np.where(spread > close, (lo_mid - mid_hi) / np.maximum(spread, close),
                        4.5 / (a + b + c) ** 2)


def _entropy_factor(nf2: np.ndarray, r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """c (16, n) with Re(c^† c) the Hessian of -tr rho log sigma; r = V^† rho V, b[a] = V^† B_a V.

    The Hessian is 2 Re sum_k A_k^T M_k conj(A_k), A_k[i, a] = b[a, i, k] and
    M_k[i, j] = -f2[i, k, j] r[j, i]: the Hadamard product of r^T and
    [-f2(w_i, w_k, w_j)]_ij, PSD as log is operator concave (Kraus, Math. Z. 41,
    18 (1936); Bhatia, Matrix Analysis, ch. V).  So M_k = L_k L_k^† and
    c_k = sqrt(2) L_k^T A_k.
    """
    lam, u = np.linalg.eigh(nf2 * r.T)  # M_k on the first axis (f2 is symmetric)
    c = u.transpose(0, 2, 1) @ b.reshape(-1, 4, 4).transpose(2, 1, 0)
    return (np.sqrt(2.0 * np.maximum(lam, 0.0))[:, :, None] * c).reshape(16, -1)


def _newton_system(mu: float, w: np.ndarray, v: np.ndarray, lw: np.ndarray, r: np.ndarray):
    """R, s, Q^T c, Q^T e from the QR of [j s, c, e]; F_mu's Hessian is h = j^T j.

    j has 32 rows for -tr rho log sigma (_entropy_factor) and 32 per log det,
    the real and imaginary parts of 16 complex entries each, and 15 ridge rows:
    111 in all.  R^T R = (j s)^T (j s) + 1e-20.  h is never formed: near the PPT
    boundary its curvature reaches 1/mu, and rounding there would swamp
    curvatures near mu.  The ridge keeps steps finite where h is near singular.
    c = -j vec(sigma) and e is its log det rows; as D^2 log_s[X, s] = -Dlog_s[X],
    j^T c = g, the gradient, j^T e = g_bar, its barrier part, h^-1 g = s R^-1 Q^T c.
    """
    # each B_a in the eigenbases of sigma and sigma^Γ: row-major vec(V^† B V) = (V^† ⊗ V^T) vec(B)
    kv = (v.conj()[:, :, None, :, None] * v[:, None, :, None, :]).reshape(2, 16, 16)
    bt = _BASES_VEC @ kv
    j = np.zeros((111, 17))
    rows = j[:96].reshape(3, 2, 16, 17)  # real, imaginary parts: -tr rho log sigma, log det sigma, sigma^Γ
    # -mu log det s: Hessian mu tr(P_a P_b) = mu sum_ij Re(conj(P_a)_ij (P_b)_ij),
    # P_a = s^-1/2 B_a s^-1/2; P_sigma = I
    p = bt.transpose(0, 2, 1) * (math.sqrt(mu) / np.sqrt(w[:, :, None] * w[:, None, :])).reshape(2, 16, 1)
    rows[1:, 0, :, :15], rows[1:, 1, :, :15] = p.real, p.imag
    rows[1:, 0, ::5, 15:] = -math.sqrt(mu)
    # -tr rho log sigma (Daleckii-Krein); sigma = diag(w) in its eigenbasis
    nf2 = _log_divided_differences(w[0], lw[0])[1]
    b = np.zeros((16, 16), dtype=complex)  # the 15 B_a, then -sigma as its last row
    b[:15] = bt[0]
    b[15, ::5] = -w[0]
    c = _entropy_factor(nf2, r, b)
    rows[0, 0, :, :16], rows[0, 1, :, :16] = c.real, c.imag
    s = 1.0 / np.sqrt(np.einsum("ij,ij->j", j[:96, :15], j[:96, :15]))
    j[:96, :15] *= s
    j[96:, :15] = _RIDGE
    h = np.linalg.qr(j, mode="raw")[0]
    return _UPPER * h[:15, :15].T, s, h[15, :15], h[16, :15]


# r.reshape(16) @ _REDUCE is the stack (r_A, r_B) of a two-qubit r, flattened, in one call: row i holds the
# two reduced states of the matrix unit |ab><cd|, i = 8a + 4b + 2c + d
_UNITS = np.eye(16, dtype=complex).reshape(16, 2, 2, 2, 2)  # complex, as r is, so the product casts nothing
_REDUCE = np.stack([np.einsum("iabcb->iac", _UNITS), np.einsum("iabad->ibd", _UNITS)], axis=1).reshape(16, 8)


def _correlated_dephasing(r: np.ndarray, w_max: float) -> DensityOperator | None:
    """sum_k <e_k f_k|r|e_k f_k> |e_k f_k><e_k f_k| when r puts weight at most SUPPORT_CUTOFF w_max outside
    span{e_k ⊗ f_k}, else None.  e_k and f_k are the eigenvectors of r_A and r_B, paired by eigenvalue order."""
    _, (e, f) = np.linalg.eigh((r.reshape(16) @ _REDUCE).reshape(2, 2, 2))
    weights = np.einsum("aj,bk,abcd,cj,dk->jk", e.conj(), f.conj(), r.reshape(2, 2, 2, 2), e, f).real
    if weights[0, 1] + weights[1, 0] > SUPPORT_CUTOFF * w_max:
        return None
    return _schmidt_dephasing(weights.diagonal(), e, f)


def closest_separable_numeric(rho: DensityOperator, base="e") -> SeparableApproximation:
    """Minimize S(rho || sigma) over two-qubit PPT density operators.

    ``method`` names the path, tried in this order.  ``exact-ppt``: a PPT input is separable
    (Peres-Horodecki) and its own closest state; PPT means lambda_min(rho^Γ) >= 0, not ``is_ppt``'s
    -``PPT_TOL``, since family 1 at lam = 2e-4 has lambda_min = -1.0e-8 and E_R = 1.0e-8.  ``exact-pure``: a pure input
    (one eigenvalue above the support cutoff) gets its Schmidt dephasing
    (Vedral & Plenio, PRA 57, 1619 (1998)).  ``exact-correlated``: an input of rank 2 (two eigenvalues above
    the support cutoff) that is maximally correlated, supported on span{e_0 ⊗ f_0, e_1 ⊗ f_1} for local
    bases {e_k} and {f_k}, gets its dephasing in that basis, with E_R = S(rho_A) - S(rho) (Rains, PRA 60,
    179 (1999); the hashing bound of Devetak & Winter, Proc. R. Soc. A 461, 207 (2005), closes it from below).
    The bases are the eigenvectors of rho_A and rho_B paired by eigenvalue order, and the input passes when
    its weight outside their span is at most ``SUPPORT_CUTOFF`` times its largest eigenvalue; any bases that
    pass make rho maximally correlated, so the test alone makes the result exact.  A degenerate rho_A or a
    state only near that form fails it.  ``numeric-ppt``: every other input goes to the log-barrier
    method of ``_barrier_solve``.

    ``work`` tallies each barrier level's Newton systems, accepted steps, barrier points tried and
    points outside the cone, all zero on the exact paths; ``iterations`` sums the accepted steps;
    ``converged`` is False when a barrier level runs out of steps or backtracking, or an exact path's
    E_R is not finite.
    """
    if rho.split() != (2, 2):
        raise DomainError("the numeric solver handles two qubits only")
    pt_min = np.linalg.eigvalsh(partial_transpose(rho))[0]
    if pt_min >= 0.0:
        return SeparableApproximation(rho, 0.0, 0, "exact-ppt")
    r = rho.matrix
    w, v = np.linalg.eigh(r)
    if w[2] <= SUPPORT_CUTOFF * w[3]:
        sigma = _schmidt_dephasing(*schmidt_decompose(BipartitePureState(v[:, 3], 2, 2)))
        method = "exact-pure"
    elif w[1] <= SUPPORT_CUTOFF * w[3] and (sigma := _correlated_dephasing(r, w[3])) is not None:
        method = "exact-correlated"
    else:
        return _barrier_solve(r, w, pt_min, base)
    value = relative_entropy(rho, sigma, base)
    return SeparableApproximation(sigma, value, 0, method, math.isfinite(value))


def _barrier_solve(r: np.ndarray, w: np.ndarray, pt_min: float, base="e") -> SeparableApproximation:
    """The ``numeric-ppt`` path of ``closest_separable_numeric`` for rho = r with eigenvalues w (ascending)
    and lambda_min(rho^Γ) = pt_min < 0.

    A log-barrier method minimizes F_mu = -tr rho log sigma - mu (log det sigma + log det
    sigma^Γ) over sigma's 15 Pauli coordinates, with long steps in mu (Boyd &
    Vandenberghe, Convex Optimization, 11.3-11.4) over 6 levels: 1e-2, 1e-3,
    1e-4, 1e-6, 1e-9 and 1e-13.  It starts at (rho + alpha I)/(1 + 4 alpha),
    alpha = 0.02 - lambda_min(rho^Γ): rho mixed with I/4 just inside the PPT
    cone, so sigma and sigma^Γ are positive definite and local unitaries act
    on the start as on rho.  Each level takes damped Newton steps
    (``_newton_system``) until the squared Newton decrement is at most 1e-12;
    the first two levels, which only seed the tangent, stop at 1e-2 and 1e-4.
    The next level starts from the central path's tangent, scaled by
    1 - mu_next/mu.
    One backtracking routine (``_backtrack``) damps both steps: it halves the
    step until sigma and sigma^Γ are positive definite and F_mu falls by at
    least slope x t: slope 0.25 x decrement over at most 60 trials for a Newton
    step (Armijo), 0 over at most 10 for the tangent.  The duality gap is 8 mu,
    so E_R overshoots by 1e-12 at most.

    ``work`` tallies each level's Newton systems, accepted steps, barrier points tried and
    points outside the cone; ``converged`` is False when a level runs out of steps or
    backtracking.  E_R is S(rho || sigma*), from rho's spectrum and the last point's
    -tr rho log sigma*; sigma* is positive definite.
    """
    # (rho + alpha I)/(1 + 4 alpha): rho^Γ's least eigenvalue becomes 0.02/(1 + 4 alpha)
    alpha = 0.02 - pt_min
    x = (_COORDS[:, :16].conj() @ r.reshape(16)).real / (1.0 + 4.0 * alpha)
    point = _barrier_point(r, x)
    converged = True
    work = [[0, 0, 1, 0]] + [[0, 0, 0, 0] for _ in _MU_LEVELS[1:]]  # the start point is level 0's
    tangent = None
    for tally, (mu, decrement_tol), (mu_next, _) in zip(work, _MU_LEVELS, _MU_LEVELS[1:] + ((0.0, 0.0),)):
        f = point[4] - mu * point[5]
        if tangent is not None and (accepted := _backtrack(r, x, tangent, f, mu, 0.0, 10, tally)):
            x, f, point = accepted
            tally[1] += 1
        centred = False
        for _ in range(_LEVEL_STEPS):
            upper, s, qc, qe = _newton_system(mu, *point[:4])
            tally[0] += 1
            decrement = float(qc @ qc)
            if decrement <= decrement_tol:
                centred = True
                break
            accepted = _backtrack(r, x, -s * np.linalg.solve(upper, qc), f, mu, 0.25 * decrement, 60, tally)
            if accepted is None:
                break
            x, f, point = accepted
            tally[1] += 1
        converged = converged and centred
        # the centre x*(mu) has dx*/dmu = h^-1 g_bar / mu; mu falls by mu - mu_next
        tangent = (1.0 - mu_next / mu) * s * np.linalg.solve(upper, qe) if centred and mu_next else None
    sigma_star = DensityOperator((x @ _COORDS[:, :16]).reshape(4, 4) + _CENTRE, d_a=2, d_b=2)
    # sigma* is positive definite, so S(rho || sigma*) = tr rho log rho - tr rho log sigma*
    support = w[w > SUPPORT_CUTOFF * w[3]]
    value = max(point[4] + float(support @ np.log(support)), 0.0) / log_scale(base)
    return SeparableApproximation(sigma_star, value, sum(row[1] for row in work), "numeric-ppt", converged,
                                  tuple(map(tuple, work)))


def _capacity_mixed(r: np.ndarray, s: np.ndarray, base="e") -> np.ndarray:
    """Var_r(log r - log s) of density matrices (..., d, d), logs on their supports;
    DomainError where supp(r) is not inside supp(s)."""
    log_sigma, kernel = _support_log(s, base)
    if _leaves_support(r, kernel).any():
        raise DomainError("supp(rho) is not contained in supp(sigma*)")
    return _variance(_support_log(r, base)[0] - log_sigma, r)


def capacity_mixed(rho: DensityOperator, sigma_star: DensityOperator, base="e") -> float:
    """Variance of log(rho) - log(sigma*) in rho: the mixed-state capacity.

    Both logs are taken on their own supports; supp(rho) must lie inside
    supp(sigma*).  Reduces to the pure-state capacity when rho is pure and
    sigma* is its Schmidt dephasing.
    """
    if rho.dim != sigma_star.dim:
        raise DomainError("state and separable reference dimensions differ")
    return float(_capacity_mixed(rho.matrix, sigma_star.matrix, base))
