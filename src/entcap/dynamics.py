"""Two-qubit non-local Hamiltonians: canonical form, exact dynamics, and rate factors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (MAX_ENTRY, NORM_TOL, _PAULI, _PAULI_PAIRS, BipartitePureState, DomainError, _checked_count,
                   _checked_real, _hamiltonian_matrix, _row_products, log_scale)
from .scalar import _rate_factor, capacity_rate_factor_maximum


@dataclass(frozen=True, eq=False)
class NonlocalHamiltonian:
    """Canonical two-qubit interaction sum_k mu_k sigma_k ⊗ sigma_k.

    ``sign`` selects the branch with -mu_2 on the sigma_y ⊗ sigma_y term
    (sign of det of the raw coupling matrix).  ``mu`` is one triple or an
    (N, 3) stack of them, which ``matrix()`` turns into (N, 4, 4) and
    ``simulate_trajectory`` evolves as N Hamiltonians.  Every one is
    diagonal in the Bell basis Phi+, Phi-, Psi+, Psi- with the eigenvalues

        mu1 - s mu2 + mu3,  -mu1 + s mu2 + mu3,  mu1 + s mu2 - mu3,  -mu1 - s mu2 - mu3

    (s = ``sign``).  ``mu`` is checked once and kept as a read-only float
    copy, so changing the caller's array later cannot reach the evolution
    unchecked.  The raw local fields and coupling matrix are kept when the
    canonical form was derived from them; local terms never enter the
    canonical matrix.
    """

    mu: tuple[float, float, float] | np.ndarray
    sign: int = 1
    alpha: np.ndarray | None = None
    beta: np.ndarray | None = None
    gamma: np.ndarray | None = None

    def __post_init__(self):
        mu = _check_couplings(np.array(self.mu, dtype=float))
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        if self.sign not in (1, -1):
            raise DomainError("sign must be +1 or -1")

    def matrix(self) -> np.ndarray:
        return _canonical_matrices(self.mu, self.sign)

    def raw_matrix(self) -> np.ndarray:
        """Full Hamiltonian including local fields; requires the raw form."""
        if self.gamma is None:
            raise DomainError("no raw (alpha, beta, gamma) form recorded")
        coef = np.zeros((4, 4))  # coefficient of s_a ⊗ s_b
        coef[1:, 0], coef[0, 1:], coef[1:, 1:] = self.alpha, self.beta, self.gamma
        return np.tensordot(coef.ravel(), _PAULI_PAIRS, 1)


def _check_couplings(mu) -> np.ndarray:
    """Canonical couplings (..., 3) as a float array; DomainError unless every row has MAX_ENTRY >= mu1 >= mu2 >= mu3 >= 0."""
    mu = np.asarray(mu, dtype=float)
    if mu.shape[-1:] != (3,):
        raise DomainError(f"canonical couplings need 3 entries, got shape {mu.shape}")
    rows = mu.reshape(-1, 3)
    bad = ~((MAX_ENTRY >= rows[:, 0]) & (rows[:, 0] >= rows[:, 1]) & (rows[:, 1] >= rows[:, 2]) & (rows[:, 2] >= 0.0))
    if bad.any():
        got = tuple(rows[bad][0].tolist())
        raise DomainError(f"canonical couplings must be finite with {MAX_ENTRY:g} >= mu1 >= mu2 >= mu3 >= 0, got {got}")
    return mu


def _canonical_matrices(mu, sign: int = 1) -> np.ndarray:
    """mu1 XX + sign mu2 YY + mu3 ZZ for couplings mu (..., 3), each row checked by ``_check_couplings``,
    as (..., 4, 4) matrices: the Pauli sum of ``NonlocalHamiltonian.raw_matrix``."""
    mu = _check_couplings(mu)
    coef = np.zeros(mu.shape[:-1] + (16,))  # coefficient of s_a ⊗ s_b at 4a + b
    coef[..., [5, 10, 15]] = mu * (1, sign, 1)
    return np.tensordot(coef, _PAULI_PAIRS, 1)


# columns Phi+, Phi-, Psi+, Psi- = (|00> +- |11>)/sqrt2, (|01> +- |10>)/sqrt2: the common
# eigenbasis of every canonical interaction; complex, so products with states need no cast
_BELL = np.sqrt(0.5) * np.array([[1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1], [1, -1, 0, 0]], dtype=complex)


def _eigensystem(hamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """(w, V) with H = V diag(w) V^dagger, for one Hamiltonian or a stack of them.

    A ``NonlocalHamiltonian`` (its mu a triple or an (N, 3) stack) gets its
    eigenvalues (..., 4) in closed form and the one Bell basis (4, 4) shared
    by the whole stack, with no LAPACK call.  Any other Hamiltonian type, or
    a matrix or a stack of them, gets one batched ``eigh``: w (..., d) and
    V (..., d, d).
    """
    if isinstance(hamiltonian, NonlocalHamiltonian):
        mu = np.asarray(hamiltonian.mu, dtype=float)
        m1, m2, m3 = mu[..., 0], hamiltonian.sign * mu[..., 1], mu[..., 2]
        return np.stack([m1 - m2 + m3, -m1 + m2 + m3, m1 + m2 - m3, -m1 - m2 - m3], axis=-1), _BELL
    return np.linalg.eigh(_hamiltonian_matrix(hamiltonian))


def canonical_form(alpha, beta, gamma) -> NonlocalHamiltonian:
    """Canonical parameters of a general two-qubit Hamiltonian from local fields alpha and beta of shape (3,)
    and a coupling matrix gamma of shape (3, 3).

    mu are the descending singular values of the 3x3 coupling matrix; the sign
    is sign(det gamma), with det 0 treated as +.  Local fields are recorded but
    excluded from the canonical interaction.
    """
    field_message = f"local fields must be finite, of modulus at most {MAX_ENTRY:g}"
    alpha = _checked_real(alpha, field_message, -MAX_ENTRY, MAX_ENTRY)
    beta = _checked_real(beta, field_message, -MAX_ENTRY, MAX_ENTRY)
    gamma = _checked_real(gamma, f"coupling matrix must be finite, of modulus at most {MAX_ENTRY:g}",
                          -MAX_ENTRY, MAX_ENTRY)
    for name, x, shape in (("alpha", alpha, (3,)), ("beta", beta, (3,)), ("gamma", gamma, (3, 3))):
        if x.shape != shape:
            raise DomainError(f"{name} must have shape {shape}, got {x.shape}")
    mu = np.linalg.svd(gamma, compute_uv=False)
    sign = 1 if np.linalg.slogdet(gamma).sign >= 0.0 else -1  # det itself overflows above entries of about 1e102
    return NonlocalHamiltonian(
        mu=(float(mu[0]), float(mu[1]), float(mu[2])),
        sign=sign,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
    )


def evolve_matrix(h_matrix: np.ndarray, amplitudes: np.ndarray, t: float) -> np.ndarray:
    """exp(-iHt)|psi> through the eigendecomposition of Hermitian H."""
    w, v = np.linalg.eigh(h_matrix)
    return v @ (np.exp(-1j * w * t) * (v.conj().T @ amplitudes))


def evolved_schmidt_weights(p: float, theta: float, t: float):
    """Closed-form Schmidt pair under the canonical interaction from sqrt(p)|00>+sqrt(1-p)|11>."""
    _checked_real(p, "p must lie in [0, 1]", 0.0, 1.0)
    _checked_real(theta, f"theta must be finite, of modulus at most {MAX_ENTRY:g}", -MAX_ENTRY, MAX_ENTRY)
    _checked_real(t, f"t must be finite, of modulus at most {MAX_ENTRY:g}", -MAX_ENTRY, MAX_ENTRY)
    lam1 = 0.5 * (1.0 - (1.0 - 2.0 * p) * np.cos(2.0 * theta * t))
    return lam1, 1.0 - lam1


def qubit_orthocomplement(v: np.ndarray) -> np.ndarray:
    """Canonical state orthogonal to a qubit vector (a, b) -> (-conj(b), conj(a))."""
    v = np.asarray(v, dtype=complex).reshape(2)
    return np.array([-v[1].conjugate(), v[0].conjugate()])


def max_entangling_element(hamiltonian: NonlocalHamiltonian) -> float:
    """mu1 + mu2: the largest |<phi,chi|H|phi_perp,chi_perp>| over product states."""
    return float(hamiltonian.mu[0] + hamiltonian.mu[1])


def max_entangling_element_ancilla(hamiltonian: NonlocalHamiltonian) -> float:
    """mu1 + mu2 + mu3, attainable with maximally entangled qubit-ancilla pairs."""
    return float(sum(hamiltonian.mu))


def _max_over_chi(h4: np.ndarray, phi: np.ndarray) -> float:
    """max over chi of |<phi,chi|H|phi_perp,chi_perp>| for H given as h4[a, b, a', b'].

    The partial element <phi|H|phi_perp> is an operator m0 I + (x + iy).sigma
    on B, and <chi|I|chi_perp> = 0.  With n the Bloch vector of chi,
    |<chi|(x + iy).sigma|chi_perp>|^2 is |x|^2 + |y|^2 minus the squares of
    x.n and y.n, plus 2 n.(x cross y).  Each term is largest for n along
    x cross y, which gives the maximum sqrt(|x|^2 + |y|^2 + 2|x cross y|).
    Local terms only add to m0, so this holds for any 4x4 H.
    """
    partial = np.einsum("i,ijkl,k->jl", phi.conj(), h4, qubit_orthocomplement(phi))
    xy = 0.5 * np.einsum("jl,clj->c", partial, _PAULI[1:])
    x, y = xy.real, xy.imag
    return float(np.sqrt(x @ x + y @ y + 2.0 * np.linalg.norm(np.cross(x, y))))


def max_entangling_element_numeric(hamiltonian) -> float:
    """max |<phi,chi|H|phi_perp,chi_perp>| over product states, evaluated at an explicit maximizer.

    For phi with Bloch frame (n, m, m'), ``_max_over_chi`` has x = gamma^T m
    and y = gamma^T m', with gamma_ab = tr(H sigma_a ⊗ sigma_b)/4 the real 3x3
    coupling block (local fields drop out).  Its value
    sqrt(|x|^2 + |y|^2 + 2|x cross y|) is the sum of the two singular values of
    gamma^T [m m'], which by Ky Fan's maximum principle is at most s1 + s2 of
    gamma (mu1 + mu2), with equality when n is the singular vector of gamma's
    smallest singular value.  So phi is put there, with no search, and the
    closed form over chi is evaluated at it.  Accepts a NonlocalHamiltonian,
    a SelfInverseHamiltonian or any Hermitian 4x4 matrix; a stack is a DomainError.
    """
    h = _hamiltonian_matrix(hamiltonian)
    if h.shape != (4, 4):
        raise DomainError(f"max_entangling_element_numeric takes one 4x4 Hamiltonian; "
                          f"got shape {h.shape}, of dimension {h.shape[-1]}")
    h4 = h.reshape(2, 2, 2, 2)
    gamma = 0.25 * np.einsum("ijkl,aki,blj->ab", h4, _PAULI[1:], _PAULI[1:]).real
    n = np.linalg.svd(gamma)[0][:, 2]
    n = n if n[2] >= 0.0 else -n  # -n is as good; this sign keeps 1 + n_z away from 0
    phi = np.array([1.0 + n[2], n[0] + 1j * n[1]]) / np.sqrt(2.0 * (1.0 + n[2]))
    return _max_over_chi(h4, phi)


def capacity_rate_factor(p, base="e", k=1):
    """State factor of the capacity rate for the spectrum (p, (1-p)/k, ..., (1-p)/k).

    2 sqrt(p(1-p)/k) [(1-2p) ln^2 r + 2 ln r] / ln^2(base) with r = k p/(1-p):
    the rate is formed in nats and scaled as the capacity is.  k = 1 is a
    bare qubit pair, k = 3 a qubit with maximally entangled qubit ancillas.
    Vanishes by continuity at p = 0, 1/(k+1), 1.  Accepts scalars or arrays;
    each entry is the one scalar formula of ``capacity_rate_factor_maximum``.
    """
    p_arr = _checked_real(p, "p must lie in [0, 1]", 0.0, 1.0)
    k, scale = _checked_count(k, "k"), log_scale(base)
    out = np.array([_rate_factor(x, k, scale) for x in p_arr.ravel().tolist()]).reshape(p_arr.shape)
    return float(out) if out.ndim == 0 else out


def max_capacity_rate(p: float, mu1: float, mu2: float, base="e") -> float:
    """Largest capacity rate at Schmidt weight p: (mu1 + mu2) times the rate factor.

    Attained from sqrt(p)|01> + i sqrt(1-p)|10> under the canonical interaction.
    """
    _checked_real((mu1, mu2), f"couplings must be finite, non-negative and at most {MAX_ENTRY:g}", 0.0, MAX_ENTRY)
    return float((mu1 + mu2) * capacity_rate_factor(p, base))


@dataclass(frozen=True)
class Trajectory:
    """Time-sampled evolution record with entanglement diagnostics per sample.

    One trajectory has fields of shape (T,) (``amplitudes`` (T, 4),
    ``schmidt_weights`` (T, 2), descending); a stack of N trajectories puts N
    in front: (N, T).  ``gamma`` and ``gamma_capacity`` are the exact rates
    dS/dt and dC/dt.
    """

    times: np.ndarray
    amplitudes: np.ndarray
    schmidt_weights: np.ndarray
    entropy: np.ndarray
    capacity: np.ndarray
    gamma: np.ndarray
    gamma_capacity: np.ndarray
    delta_h: np.ndarray


def _apply(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product M v, stacked over the leading axes of both."""
    return (m @ v[..., None])[..., 0]


def _rows_times(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x @ m for row vectors x (N, T, d).

    A shared m (d, d) takes one (N*T, d) @ (d, d) product when T >= 2; a stack
    m (N, d, d), or T = 1, takes one (T, d) @ (d, d) product per leading index.
    Each is the same BLAS product on T rows, so a stack's row keeps the bits of
    its one-sample call: one row alone is rounded as a matrix-vector product,
    which an (N, d) product would not reproduce.
    """
    if m.ndim == 2 and x.shape[-2] >= 2:
        return (x.reshape(-1, x.shape[-1]) @ m).reshape(x.shape)
    return x @ m


def _fluctuation(amplitudes: np.ndarray, h_amplitudes: np.ndarray) -> np.ndarray:
    """sqrt(<H^2> - <H>^2) from unit amplitudes psi and H psi, both (..., d).

    Taken as the norm of the residual (H - <H>) psi, which is exact to
    round-off where the difference of moments would leave sqrt(eps) ~ 1e-8
    at an eigenstate.
    """
    mean = (amplitudes.conj() * h_amplitudes).sum(axis=-1).real
    return np.linalg.norm(h_amplitudes - mean[..., None] * amplitudes, axis=-1)


def _two_qubit_schmidt(amplitudes):
    """Closed-form Schmidt data of two-qubit amplitudes (..., 4), no SVD.

    The weights are lam_+- = (1 +- s)/2, with s the length of the Bloch vector
    of rho_A = C C^dagger (C the 2x2 coefficient matrix), summed as squares so
    that it is exact to round-off even at s = 0, where sqrt(1 - 4|D|^2),
    D = det C, would carry sqrt(eps) error.  Near s = 1, where (1 - s)/2
    cancels, lam_- = 2|D|^2 / (1 + s) instead.  Returns ``(det, s, lam_minus,
    log_ratio)`` with log_ratio from ``_two_qubit_log_ratio``.
    """
    c = np.asarray(amplitudes, dtype=complex)
    det = c[..., 0] * c[..., 3] - c[..., 1] * c[..., 2]
    row_gap = np.abs(c[..., 0]) ** 2 + np.abs(c[..., 1]) ** 2 - np.abs(c[..., 2]) ** 2 - np.abs(c[..., 3]) ** 2
    off = c[..., 0] * c[..., 2].conj() + c[..., 1] * c[..., 3].conj()
    s = np.sqrt(row_gap**2 + 4.0 * np.abs(off) ** 2)
    lam_minus = np.where(s > 0.5, 2.0 * np.abs(det) ** 2 / (1.0 + s), 0.5 * (1.0 - s))
    return det, s, lam_minus, _two_qubit_log_ratio(lam_minus, s)


def _two_qubit_log_ratio(lam_minus, s):
    """ln(lam_+/lam_-) = log1p(s/lam_-) = 2 artanh(s) for the Schmidt pair (1 - lam_-, lam_-).

    ``s`` = lam_+ - lam_-; with both carrying full relative precision (no
    cancellation) so does the result.  Set to 0 where lam_- = 0 (every
    quantity it multiplies vanishes there).  A subnormal lam_- would overflow
    s/lam_-; there lam_+ = s to rounding, so the ratio is ln s - ln lam_-.
    """
    normal = lam_minus >= np.finfo(float).tiny
    log_ratio = np.where(normal, np.log1p(s / np.where(normal, lam_minus, 1.0)), 0.0)
    if not normal.all():
        subnormal = (lam_minus > 0.0) & ~normal
        log_ratio += np.log(np.where(subnormal, s, 1.0)) - np.log(np.where(subnormal, lam_minus, 1.0))
    return log_ratio


def _two_qubit_entropy(lam_minus, log_ratio, base="e"):
    """S = lam_- ln(lam_+/lam_-) - ln(lam_+) of the Schmidt pair (1 - lam_-, lam_-); 0 at lam_- = 0."""
    return (lam_minus * log_ratio - np.log1p(-lam_minus)) / log_scale(base)


def _two_qubit_capacity(lam_minus, log_ratio, base="e"):
    """C = lam_+ lam_- ln^2(lam_+/lam_-) of the Schmidt pair (1 - lam_-, lam_-); 0 at lam_- = 0."""
    return (1.0 - lam_minus) * lam_minus * log_ratio**2 / log_scale(base) ** 2


def _trajectory_fields(psi: np.ndarray, h_psi: np.ndarray, base="e") -> dict:
    """The ``Trajectory`` fields but ``times`` from two-qubit amplitudes psi and H psi, both (..., 4).

    Schmidt weights come in closed form from D = det C (``_two_qubit_schmidt``).  Rates are
    exact: with dD/dt taken along dC/dt = -i (H psi) and r = Re(conj(D) dD/dt),

        dlam_-/dt = 2 r / s,    Gamma = dS/dt = 4 r artanh(s) / s,
        dC/dt = sum_n (dC/dlam_n)(dlam_n/dt) = -Gamma (2 - 2 s artanh(s)),

    finite as s -> 0 (artanh(s)/s -> 1) and exactly 0 at lam_- = 0.
    """
    det, s, lam_minus, log_ratio = _two_qubit_schmidt(psi)
    dpsi = -1j * h_psi
    det_rate = (dpsi[..., 0] * psi[..., 3] + psi[..., 0] * dpsi[..., 3]
                - dpsi[..., 1] * psi[..., 2] - psi[..., 1] * dpsi[..., 2])
    r = (det.conj() * det_rate).real
    # ln(lam_+/lam_-)/s = 2 artanh(s)/s, with its limit 2 at s = 0
    ratio_over_s = np.where(s > 0.0, log_ratio / np.where(s > 0.0, s, 1.0), 2.0)
    gamma_nats = 2.0 * r * ratio_over_s
    scale = log_scale(base)
    return dict(
        amplitudes=psi,
        schmidt_weights=np.stack([1.0 - lam_minus, lam_minus], axis=-1),
        entropy=_two_qubit_entropy(lam_minus, log_ratio, base),
        capacity=_two_qubit_capacity(lam_minus, log_ratio, base),
        gamma=gamma_nats / scale,
        gamma_capacity=-gamma_nats * (2.0 - s * log_ratio) / scale**2,
        delta_h=_fluctuation(psi, h_psi),
    )


def simulate_trajectory(hamiltonian, psi0, times, base="e") -> Trajectory:
    """Evolve exactly and record weights, entropies, capacities, and their exact rates.

    ``hamiltonian`` is a Hamiltonian type, a 4x4 matrix or a stack of N 4x4
    Hermitian matrices; a ``NonlocalHamiltonian`` with an (N, 3) mu or a
    ``SelfInverseHamiltonian`` with stacked factors stands for N of them.  ``psi0`` is
    a two-qubit BipartitePureState or unit-norm amplitudes, (4,) or stacked (N, 4) to
    match.  A ``SelfInverseHamiltonian`` takes e^{-iHt} = cos t - i sin t H; any other
    H its eigensystem V diag(w) V^dagger (``_eigensystem``, closed form for a
    ``NonlocalHamiltonian``): psi(t) = psi0 + V ((e^{-iwt} - 1) * V^dagger psi0), exact
    at t = 0, then renormalized, and H psi = V (w * V^dagger psi).  Weights,
    entropies, capacities and their exact rates come from ``_trajectory_fields``.
    """
    from .self_inverse import SelfInverseHamiltonian, _evolve_involution

    if isinstance(hamiltonian, SelfInverseHamiltonian):
        h = hamiltonian.matrix()
    else:
        h, (w, v) = None, _eigensystem(hamiltonian)
    shape = w.shape if h is None else h.shape[:-1]
    if isinstance(psi0, BipartitePureState):
        if psi0.d_a != 2 or psi0.d_b != 2:
            raise DomainError("simulate_trajectory handles two-qubit states")
        amps0 = psi0.amplitudes
    else:
        amps0 = np.asarray(psi0, dtype=complex)
        if not np.abs(np.linalg.norm(amps0, axis=-1) - 1.0).max(initial=0.0) <= NORM_TOL:
            raise DomainError("initial amplitudes must have unit norm")
    if len(shape) > 2 or shape[-1] != 4 or amps0.shape != shape:
        raise DomainError("need 4x4 Hamiltonians and length-4 amplitudes with matching leading axes")
    single = len(shape) == 1
    amps0 = amps0.reshape(-1, 4)
    times = _checked_real(times, f"times must be a finite 1-D array, of modulus at most {MAX_ENTRY:g}",
                          -MAX_ENTRY, MAX_ENTRY)
    if times.ndim != 1:
        raise DomainError("times must be a finite 1-D array")
    if h is not None:
        psi, h_psi = _evolve_involution(h.reshape(-1, 4, 4), amps0, times)
    else:
        # row-vector products: V^dagger x is x @ conj(V), V c is c @ V^T
        w, v_dag, v_t = w.reshape(-1, 4), v.conj(), np.swapaxes(v, -1, -2)
        coeffs = _row_products(amps0, v_dag)[:, None, :]
        wt = w[:, None, :] * times[:, None]
        phase_minus_one = -2.0 * np.sin(0.5 * wt) ** 2 - 1j * np.sin(wt)  # e^{-iwt} - 1
        psi = amps0[:, None, :] + _rows_times(phase_minus_one * coeffs, v_t)
        psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
        h_psi = _rows_times(w[:, None, :] * _rows_times(psi, v_dag), v_t)

    fields = _trajectory_fields(psi, h_psi, base)
    if single:
        fields = {k: a[0] for k, a in fields.items()}
    return Trajectory(times=times, **fields)
