"""Two-qubit non-local Hamiltonians: canonical form, exact dynamics, and rate factors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BipartitePureState,
    DomainError,
    log_scale,
    schmidt_decompose,
    spectrum_entropy,
)
from .measures import capacity_from_spectrum

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class NonlocalHamiltonian:
    """Canonical two-qubit interaction sum_k mu_k sigma_k ⊗ sigma_k.

    ``sign`` selects the branch with -mu_2 on the sigma_y ⊗ sigma_y term
    (sign of det of the raw coupling matrix).  The raw local fields and
    coupling matrix are kept when the canonical form was derived from them;
    local terms never enter the canonical matrix.
    """

    mu: tuple[float, float, float]
    sign: int = 1
    alpha: np.ndarray | None = None
    beta: np.ndarray | None = None
    gamma: np.ndarray | None = None

    def __post_init__(self):
        m1, m2, m3 = self.mu
        if not (m1 >= m2 >= m3 >= 0.0):
            raise DomainError(f"canonical couplings must satisfy mu1 >= mu2 >= mu3 >= 0, got {self.mu}")
        if self.sign not in (1, -1):
            raise DomainError("sign must be +1 or -1")

    @property
    def theta(self) -> float:
        """Difference mu1 - mu2 setting the two-qubit oscillation rate."""
        return self.mu[0] - self.mu[1]

    def canonical_matrix(self) -> np.ndarray:
        signs = (1.0, float(self.sign), 1.0)
        out = np.zeros((4, 4), dtype=complex)
        for mu_k, s_k, sig in zip(self.mu, signs, PAULIS):
            out += mu_k * s_k * np.kron(sig, sig)
        return out

    def raw_matrix(self) -> np.ndarray:
        """Full Hamiltonian including local fields; requires the raw form."""
        if self.gamma is None:
            raise DomainError("no raw (alpha, beta, gamma) form recorded")
        out = np.zeros((4, 4), dtype=complex)
        eye = np.eye(2)
        for k in range(3):
            out += self.alpha[k] * np.kron(PAULIS[k], eye)
            out += self.beta[k] * np.kron(eye, PAULIS[k])
            for j in range(3):
                out += self.gamma[k, j] * np.kron(PAULIS[k], PAULIS[j])
        return out


def canonical_form(alpha, beta, gamma) -> NonlocalHamiltonian:
    """Canonical parameters of a general two-qubit Hamiltonian.

    mu are the descending singular values of the 3x3 coupling matrix; the sign
    is sign(det gamma), with det 0 treated as +.  Local fields are recorded but
    excluded from the canonical interaction.
    """
    alpha = np.asarray(alpha, dtype=float).reshape(3)
    beta = np.asarray(beta, dtype=float).reshape(3)
    gamma = np.asarray(gamma, dtype=float).reshape(3, 3)
    if not np.isfinite(gamma).all():
        raise DomainError("coupling matrix must be finite")
    mu = np.linalg.svd(gamma, compute_uv=False)
    sign = 1 if np.linalg.det(gamma) >= 0.0 else -1
    return NonlocalHamiltonian(
        mu=(float(mu[0]), float(mu[1]), float(mu[2])),
        sign=sign,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
    )


def _as_matrix(hamiltonian) -> np.ndarray:
    if isinstance(hamiltonian, NonlocalHamiltonian):
        return hamiltonian.canonical_matrix()
    m = np.asarray(hamiltonian, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError("Hamiltonian must be a square matrix")
    return m


def evolve_matrix(h_matrix: np.ndarray, amplitudes: np.ndarray, t: float) -> np.ndarray:
    """exp(-iHt)|psi> through the eigendecomposition of Hermitian H."""
    w, v = np.linalg.eigh(h_matrix)
    return v @ (np.exp(-1j * w * t) * (v.conj().T @ amplitudes))


def evolve_exact(hamiltonian, psi0: BipartitePureState, t: float) -> BipartitePureState:
    """Two-qubit unitary evolution; hbar = 1."""
    h = _as_matrix(hamiltonian)
    if psi0.d_a != 2 or psi0.d_b != 2 or h.shape != (4, 4):
        raise DomainError("evolve_exact handles the 4x4 two-qubit case")
    amps = evolve_matrix(h, psi0.amplitudes, t)
    amps = amps / np.linalg.norm(amps)
    return BipartitePureState(amps, 2, 2)


def evolved_schmidt_weights(p: float, theta: float, t: float):
    """Closed-form Schmidt pair under the canonical interaction from sqrt(p)|00>+sqrt(1-p)|11>."""
    if np.any(np.asarray(p) < 0.0) or np.any(np.asarray(p) > 1.0):
        raise DomainError("p must lie in [0, 1]")
    lam1 = 0.5 * (1.0 - (1.0 - 2.0 * p) * np.cos(2.0 * theta * t))
    return lam1, 1.0 - lam1


def qubit_orthocomplement(v: np.ndarray) -> np.ndarray:
    """Canonical state orthogonal to a qubit vector (a, b) -> (-conj(b), conj(a))."""
    v = np.asarray(v, dtype=complex).reshape(2)
    return np.array([-v[1].conjugate(), v[0].conjugate()])


def entangling_element(hamiltonian, phi: np.ndarray, chi: np.ndarray) -> complex:
    """Matrix element <phi,chi|H|phi_perp,chi_perp> with canonical orthocomplements.

    This is the quantity whose magnitude, together with the Schmidt-weight rate
    factor, sets the entanglement and capacity rates.
    """
    h = _as_matrix(hamiltonian)
    phi = np.asarray(phi, dtype=complex).reshape(2)
    chi = np.asarray(chi, dtype=complex).reshape(2)
    bra = np.outer(phi, chi).ravel().conj()
    ket = np.outer(qubit_orthocomplement(phi), qubit_orthocomplement(chi)).ravel()
    return complex(bra @ h @ ket)


def schmidt_weight_rate(hamiltonian, phi, chi, phi_perp, chi_perp, p: float) -> float:
    """dp/dt = 2 sqrt(p(1-p)) Im <phi,chi|H|phi_perp,chi_perp>."""
    h = _as_matrix(hamiltonian)
    phi = np.asarray(phi, dtype=complex).reshape(2)
    chi = np.asarray(chi, dtype=complex).reshape(2)
    phi_perp = np.asarray(phi_perp, dtype=complex).reshape(2)
    chi_perp = np.asarray(chi_perp, dtype=complex).reshape(2)
    if abs(np.vdot(phi, phi_perp)) > 1e-10 or abs(np.vdot(chi, chi_perp)) > 1e-10:
        raise DomainError("phi_perp/chi_perp must be orthogonal to phi/chi")
    if p < 0.0 or p > 1.0:
        raise DomainError("p must lie in [0, 1]")
    bra = np.kron(phi, chi).conj()
    ket = np.kron(phi_perp, chi_perp)
    return float(2.0 * np.sqrt(p * (1.0 - p)) * (bra @ h @ ket).imag)


def max_entangling_element(hamiltonian: NonlocalHamiltonian) -> float:
    """mu1 + mu2: the largest |<phi,chi|H|phi_perp,chi_perp>| over product states."""
    return float(hamiltonian.mu[0] + hamiltonian.mu[1])


def max_entangling_element_ancilla(hamiltonian: NonlocalHamiltonian) -> float:
    """mu1 + mu2 + mu3, attainable with maximally entangled qubit-ancilla pairs."""
    return float(sum(hamiltonian.mu))


def _bloch(theta: float, phi: float) -> np.ndarray:
    return np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])


def max_entangling_element_numeric(hamiltonian, grid: int = 24) -> float:
    """Numeric maximum of |<phi,chi|H|phi_perp,chi_perp>| over the two Bloch spheres.

    Coarse grid over the four angles, then golden-section line searches
    (bracket +-2 pi/grid) along Powell's conjugate directions, starting from
    the angle axes; it stops once a sweep along the axes gains less than
    1e-15.  The relative phases of the orthocomplements do not affect the
    magnitude.
    """
    h = _as_matrix(hamiltonian)
    h4 = h.reshape(2, 2, 2, 2)
    thetas = np.linspace(0.0, np.pi, grid)
    phis = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    states = np.array([_bloch(t, p) for t in thetas for p in phis])
    perps = np.stack([-states[:, 1].conj(), states[:, 0].conj()], axis=1)
    half = np.einsum("bj,ijkl,bl->bik", states.conj(), h4, perps)
    vals = np.abs(np.einsum("ai,bik,ak->ab", states.conj(), half, perps))
    ia, ib = np.unravel_index(np.argmax(vals), vals.shape)
    x = np.array([thetas[ia // grid], phis[ia % grid], thetas[ib // grid], phis[ib % grid]])
    best = float(vals[ia, ib])
    span = 2.0 * np.pi / grid

    def value_at(angles):
        return abs(entangling_element(h, _bloch(*angles[:2]), _bloch(*angles[2:])))

    def line_max(x, u, best):
        t, v = maximize_scalar(lambda t: value_at(x + t * u), -span, span, tol=1e-12)
        return (x + t * u, v) if v > best else (x, best)

    directions = axes = list(np.eye(4))
    while True:
        start, x_start = best, x
        for u in directions:
            x, best = line_max(x, u, best)
        if best - start >= 1e-15:
            # Powell's update: the sweep's net move replaces the oldest direction,
            # which follows the ridges that rotated couplings leave between angles.
            step = x - x_start
            directions = directions[1:] + [step / np.linalg.norm(step)]
            x, best = line_max(x, directions[-1], best)
        elif directions is axes:
            return best
        else:
            directions = axes


def capacity_rate_factor(p, base="e", k=1):
    """State factor of the capacity rate for the spectrum (p, (1-p)/k, ..., (1-p)/k).

    2 sqrt(p(1-p)/k) [(1-2p) log^2 r + 2 log r] with r = k p/(1-p); k = 1 is a
    bare qubit pair, k = 3 a qubit with maximally entangled qubit ancillas.
    Vanishes by continuity at p = 0, 1/(k+1), 1.  Accepts scalars or arrays.
    """
    scale = log_scale(base)
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr < 0.0) or np.any(p_arr > 1.0):
        raise DomainError("p must lie in [0, 1]")
    inner = (p_arr > 0.0) & (p_arr < 1.0)
    safe = np.where(inner, p_arr, 0.5)
    log_r = np.log(k * safe / (1.0 - safe)) / scale
    val = 2.0 * np.sqrt(safe * (1.0 - safe) / k) * ((1.0 - 2.0 * safe) * log_r**2 + 2.0 * log_r)
    out = np.where(inner, val, 0.0)
    return float(out) if np.isscalar(p) else out


def max_capacity_rate(p: float, mu1: float, mu2: float, base="e") -> float:
    """Largest capacity rate at Schmidt weight p: (mu1 + mu2) times the rate factor.

    Attained from sqrt(p)|01> + i sqrt(1-p)|10> under the canonical interaction.
    """
    return float((mu1 + mu2) * capacity_rate_factor(p, base))


def capacity_gradient(weights, base="e") -> np.ndarray:
    """Partial derivatives of the capacity with respect to each weight."""
    scale = log_scale(base)
    w = np.clip(np.asarray(weights, dtype=float), 1e-300, None)
    lw = np.log(w)
    entropy = -np.sum(w * lw)
    return (lw**2 + 2.0 * lw + 2.0 * entropy * (lw + 1.0)) / scale**2


def spectrum_capacity_rate(weights, weight_rates, base="e") -> float:
    """Capacity rate sum_n (dC/d lambda_n)(d lambda_n/dt) for a multilevel spectrum.

    The pairwise-difference rewriting (1/N) sum_{n,m} [dC/dl_n - dC/dl_m] dl_n/dt
    coincides with this form exactly when the weight rates sum to zero.
    """
    grad = capacity_gradient(weights, base)
    rates = np.asarray(weight_rates, dtype=float)
    if rates.shape != grad.shape:
        raise DomainError("weights and weight rates must have equal length")
    return float(np.dot(grad, rates))


def maximizing_rate_state(p: float) -> BipartitePureState:
    """The two-qubit state sqrt(p)|01> + i sqrt(1-p)|10> achieving the maximal capacity rate."""
    amps = np.array([0.0, np.sqrt(p), 1j * np.sqrt(1.0 - p), 0.0])
    return BipartitePureState(amps, 2, 2)


def grid_argmax(f, lo: float, hi: float, n: int) -> tuple[float, float]:
    """Argmax of f over n uniformly spaced points; f may be array-vectorized."""
    xs = np.linspace(lo, hi, n)
    try:
        ys = np.asarray(f(xs), dtype=float)
        if ys.shape != xs.shape:
            raise TypeError
    except Exception:
        ys = np.array([float(f(x)) for x in xs])
    if not np.isfinite(ys).all():
        raise DomainError("objective produced non-finite values on the grid")
    k = int(np.argmax(ys))
    return float(xs[k]), float(ys[k])


def maximize_scalar(f, lo: float, hi: float, tol: float = 1e-10) -> tuple[float, float]:
    """Golden-section maximization of a continuous scalar function on [lo, hi]."""
    if not lo < hi:
        raise DomainError("need lo < hi")
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = float(f(c)), float(f(d))
    if not (np.isfinite(fc) and np.isfinite(fd)):
        raise DomainError("objective returned a non-finite value")
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = float(f(c))
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = float(f(d))
        if not (np.isfinite(fc) and np.isfinite(fd)):
            raise DomainError("objective returned a non-finite value")
    x = 0.5 * (a + b)
    return x, float(f(x))


@dataclass(frozen=True)
class Trajectory:
    """Time-sampled evolution record with entanglement diagnostics per sample."""

    times: np.ndarray
    states: tuple
    schmidt_weights: np.ndarray
    entropy: np.ndarray
    capacity: np.ndarray
    gamma: np.ndarray
    gamma_capacity: np.ndarray
    delta_h: np.ndarray
    base: object = "e"


def state_fluctuation(h_matrix: np.ndarray, amplitudes: np.ndarray) -> float:
    """sqrt(<H^2> - <H>^2) in a pure state given as an amplitude vector."""
    hv = h_matrix @ amplitudes
    mean = np.vdot(amplitudes, hv).real
    second = np.vdot(hv, hv).real
    return float(np.sqrt(max(second - mean**2, 0.0)))


def _entropy_capacity_at(h_matrix, amplitudes, t, base):
    amps = evolve_matrix(h_matrix, amplitudes, t)
    state = BipartitePureState(amps / np.linalg.norm(amps), 2, 2)
    w, _, _ = schmidt_decompose(state)
    return spectrum_entropy(w, base), capacity_from_spectrum(w, base).capacity, w, state


def simulate_trajectory(hamiltonian, psi0: BipartitePureState, times, base="e") -> Trajectory:
    """Evolve exactly and record weights, entropies, capacities, and rates.

    Rates are centered finite differences with step max(1e-6, 1e-8/theta),
    theta estimated from the canonical couplings (or the spectral spread for a
    raw matrix).
    """
    h = _as_matrix(hamiltonian)
    if isinstance(hamiltonian, NonlocalHamiltonian):
        theta_scale = max(hamiltonian.theta, 1e-2)
    else:
        w = np.linalg.eigvalsh(h)
        theta_scale = max(float(w.max() - w.min()) / 2.0, 1e-2)
    step = max(1e-6, 1e-8 / theta_scale)

    times = np.asarray(times, dtype=float)
    states = []
    weights = []
    entropy = np.empty_like(times)
    capacity = np.empty_like(times)
    gamma = np.empty_like(times)
    gamma_cap = np.empty_like(times)
    delta_h = np.empty_like(times)
    for i, t in enumerate(times):
        s, c, w, state = _entropy_capacity_at(h, psi0.amplitudes, t, base)
        s_m, c_m, _, _ = _entropy_capacity_at(h, psi0.amplitudes, t - step, base)
        s_p, c_p, _, _ = _entropy_capacity_at(h, psi0.amplitudes, t + step, base)
        states.append(state)
        weights.append(w)
        entropy[i] = s
        capacity[i] = c
        gamma[i] = (s_p - s_m) / (2.0 * step)
        gamma_cap[i] = (c_p - c_m) / (2.0 * step)
        delta_h[i] = state_fluctuation(h, state.amplitudes)
    return Trajectory(
        times=times,
        states=tuple(states),
        schmidt_weights=np.array(weights),
        entropy=entropy,
        capacity=capacity,
        gamma=gamma,
        gamma_capacity=gamma_cap,
        delta_h=delta_h,
        base=base,
    )
