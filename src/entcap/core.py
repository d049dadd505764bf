"""Core state types and matrix-analytic primitives for small bipartite systems.

Everything here is dense numpy linear algebra; dimensions are expected to stay
small (two qubits up to d ~ 64).  All values are immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
EIG_CLAMP = 1e-10          # negatives in [-EIG_CLAMP, 0] are round-off, clamped to 0
SUPPORT_CUTOFF = 1e-12     # relative to the largest eigenvalue


class ConfigurationError(ValueError):
    """Missing or inconsistent metadata (e.g. no bipartite split recorded)."""


class DomainError(ValueError):
    """Input outside an operation's mathematical domain."""


def log_scale(base) -> float:
    """Natural-log divisor for a log base: ln(2) for base 2, 1.0 for base e."""
    if base in (2, "2", 2.0):
        return math.log(2.0)
    if base in ("e", math.e):
        return 1.0
    raise ConfigurationError(f"log base must be 2 or 'e', got {base!r}")


def _bisect(g, lo: float, hi: float) -> float:
    """Root of a continuous scalar g on a bracket [lo, hi] where g changes sign.

    Halves the bracket until its midpoint rounds to one of its ends, so the
    result is the root to the last bit that g's sign can resolve.
    """
    lo_positive = g(lo) > 0.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if (g(mid) > 0.0) == lo_positive:
            lo = mid
        else:
            hi = mid
    return mid


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A†)/2."""
    return 0.5 * (a + a.conj().T)


@dataclass(frozen=True)
class BipartitePureState:
    """Unit-norm pure state of an A⊗B system with explicit subsystem dimensions."""

    amplitudes: np.ndarray
    d_a: int
    d_b: int

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "amplitudes", amps)
        if self.d_a < 1 or self.d_b < 1:
            raise DomainError("subsystem dimensions must be positive")
        if amps.size != self.d_a * self.d_b:
            raise DomainError(
                f"amplitude vector has length {amps.size}, expected {self.d_a * self.d_b}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise DomainError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")
        amps.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.d_a * self.d_b

    def as_matrix(self) -> np.ndarray:
        """Amplitudes reshaped to a (d_a, d_b) coefficient matrix."""
        return self.amplitudes.reshape(self.d_a, self.d_b)


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, PSD, unit-trace operator, optionally carrying a bipartite split."""

    matrix: np.ndarray
    d_a: int | None = None
    d_b: int | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError("density matrix must be square")
        d = m.shape[0]
        if (self.d_a is None) != (self.d_b is None):
            raise ConfigurationError("d_a and d_b must be given together")
        if self.d_a is not None and self.d_a * self.d_b != d:
            raise ConfigurationError(f"split {self.d_a}x{self.d_b} does not match size {d}")
        dev = np.abs(m - m.conj().T).max()
        if dev > HERMITIAN_TOL:
            raise DomainError(f"matrix deviates from Hermitian by {dev:.3e}")
        m = hermitize(m)
        tr = np.trace(m).real
        if abs(tr - 1.0) > TRACE_TOL:
            raise DomainError(f"trace {tr!r} deviates from 1 beyond {TRACE_TOL}")
        w = np.linalg.eigvalsh(m)
        if w.min() < -EIG_CLAMP:
            raise DomainError(f"negative eigenvalue {w.min():.3e} below clamp threshold")
        if w.min() < 0.0:
            # round-off negatives: clamp to zero and renormalize
            w2, v = np.linalg.eigh(m)
            w2 = np.clip(w2, 0.0, None)
            m = (v * (w2 / w2.sum())) @ v.conj().T
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def split(self) -> tuple[int, int]:
        if self.d_a is None:
            raise ConfigurationError("density operator carries no bipartite split")
        return self.d_a, self.d_b


@dataclass(frozen=True)
class Spectrum:
    """Descending eigenvalues with the matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.eigenvalues, dtype=float)
        v = np.asarray(self.eigenvectors, dtype=complex)
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", v)


def spectrum_of(rho: DensityOperator) -> Spectrum:
    """Eigendecomposition of a density operator, sorted descending."""
    w, v = np.linalg.eigh(rho.matrix)
    order = np.argsort(w)[::-1]
    return Spectrum(w[order], v[:, order])


def density_from_pure(state: BipartitePureState) -> DensityOperator:
    """Outer product |Ψ⟩⟨Ψ| carrying the state's bipartite split."""
    v = state.amplitudes
    return DensityOperator(np.outer(v, v.conj()), d_a=state.d_a, d_b=state.d_b)


def _partial_trace_matrix(m: np.ndarray, d_a: int, d_b: int, keep: str) -> np.ndarray:
    """Trace of an operator on A⊗B over the subsystem other than ``keep``."""
    r = m.reshape(d_a, d_b, d_a, d_b)
    if keep == "A":
        return np.einsum("abcb->ac", r)
    if keep == "B":
        return np.einsum("abad->bd", r)
    raise ConfigurationError(f"keep must be 'A' or 'B', got {keep!r}")


def partial_trace(rho: DensityOperator, keep: str) -> DensityOperator:
    """Reduced operator on subsystem ``keep`` ("A" or "B")."""
    return DensityOperator(hermitize(_partial_trace_matrix(rho.matrix, *rho.split(), keep)))


def schmidt_decompose(
    state: BipartitePureState,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schmidt weights (descending, summing to 1) and the two Schmidt bases.

    Returns ``(weights, basis_a, basis_b)`` of length min(d_a, d_b); the state
    equals sum_n sqrt(weights[n]) basis_a[:, n] ⊗ basis_b[:, n].
    """
    u, s, vh = np.linalg.svd(state.as_matrix(), full_matrices=False)
    weights = s**2
    weights = weights / weights.sum()
    return weights, u, vh.T.copy()


def log_on_support(rho: DensityOperator, base="e") -> np.ndarray:
    """Operator log restricted to the support; null directions map to 0."""
    scale = log_scale(base)
    w, v = np.linalg.eigh(rho.matrix)
    cutoff = SUPPORT_CUTOFF * w.max()
    lw = np.where(w > cutoff, np.log(np.where(w > cutoff, w, 1.0)) / scale, 0.0)
    return hermitize((v * lw) @ v.conj().T)


def support_projector(rho: DensityOperator) -> np.ndarray:
    """Projector onto the eigenspaces above the relative support cutoff."""
    w, v = np.linalg.eigh(rho.matrix)
    keep = w > SUPPORT_CUTOFF * w.max()
    vs = v[:, keep]
    return hermitize(vs @ vs.conj().T)


def matrix_log_integral(rho: DensityOperator, s_max: float, n_points: int) -> np.ndarray:
    """Approximate ln(rho) from its resolvent integral representation.

    Composite trapezoid on a log-spaced grid over [0, s_max] (the s=0 node is
    included explicitly), plus the first-order analytic tail (rho - I)/s_max
    for the truncated [s_max, ∞) part.  Requires full rank.
    """
    if s_max <= 0:
        raise DomainError("s_max must be positive")
    if n_points < 10:
        raise DomainError("n_points must be at least 10")
    w = np.linalg.eigvalsh(rho.matrix)
    if w.min() <= 1e-8:
        raise DomainError(f"matrix_log_integral requires full rank; min eigenvalue {w.min():.3e}")
    d = rho.dim
    eye = np.eye(d)
    s_lo = max(w.min() * 1e-4, 1e-12)
    grid = np.concatenate([[0.0], np.logspace(np.log10(s_lo), np.log10(s_max), n_points - 1)])
    resolvents = np.linalg.inv(grid[:, None, None] * eye + rho.matrix)
    integrand = (1.0 / (grid + 1.0))[:, None, None] * eye - resolvents
    val = np.trapezoid(integrand, grid, axis=0)
    return hermitize(val + (rho.matrix - eye) / s_max)


def spectrum_entropy(weights: np.ndarray, base="e") -> float:
    """Shannon entropy of a probability vector with the 0·log 0 = 0 convention."""
    scale = log_scale(base)
    w = np.asarray(weights, dtype=float)
    nz = w[w > 0.0]
    return float(-np.sum(nz * np.log(nz)) / scale)


def von_neumann_entropy(rho: DensityOperator, base="e") -> float:
    """-tr(rho log rho); lies in [0, log d]."""
    w = np.linalg.eigvalsh(rho.matrix)
    return max(spectrum_entropy(np.clip(w, 0.0, None), base), 0.0)


def _leaves_support(rho: DensityOperator, sigma: DensityOperator) -> bool:
    """True when rho puts weight above 1e-10 on the null space of sigma."""
    ws, vs = np.linalg.eigh(sigma.matrix)
    null = ws <= SUPPORT_CUTOFF * ws.max()
    if not null.any():
        return False
    vn = vs[:, null]
    return np.einsum("ij,jk,ki->", vn.conj().T, rho.matrix, vn).real > 1e-10


def relative_entropy(rho: DensityOperator, sigma: DensityOperator, base="e") -> float:
    """Umegaki relative entropy; returns math.inf when supp(rho) ⊄ supp(sigma)."""
    if rho.dim != sigma.dim:
        raise DomainError("relative_entropy requires equal dimensions")
    if _leaves_support(rho, sigma):
        return math.inf
    val = np.trace(rho.matrix @ (log_on_support(rho, base) - log_on_support(sigma, base))).real
    return max(float(val), 0.0)


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Half the trace norm of rho - sigma; lies in [0, 1]."""
    if rho.dim != sigma.dim:
        raise DomainError("trace_distance requires equal dimensions")
    w = np.linalg.eigvalsh(rho.matrix - sigma.matrix)
    return float(0.5 * np.abs(w).sum())


def _haar_amplitudes(rng: np.random.Generator, d: int, count: int | None = None) -> np.ndarray:
    """Haar-random unit amplitude vectors of length d.

    Without ``count``: one vector from two standard_normal(d) draws (real,
    then imaginary), divided by ``np.linalg.norm``.  With ``count``: a
    (count, d) stack from one standard_normal((count, 2, d)) draw (each row's
    real part, then its imaginary part), each row divided by
    sqrt(sum |z|^2).  That stacked norm differs from the 1-D
    ``np.linalg.norm`` in the last bit on some rows, so the single-vector path
    keeps its own expression and its bits.
    """
    if count is None:
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return z / np.linalg.norm(z)
    g = rng.standard_normal((count, 2, d))
    z = g[:, 0] + 1j * g[:, 1]
    return z / np.sqrt((z.real**2 + z.imag**2).sum(axis=-1, keepdims=True))


def haar_random_pure(d_a: int, d_b: int, seed) -> BipartitePureState:
    """Haar-random pure state on A⊗B; deterministic for a fixed integer seed."""
    if d_a < 2 or d_b < 2:
        raise DomainError("haar_random_pure requires d_a, d_b >= 2")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return BipartitePureState(_haar_amplitudes(rng, d_a * d_b), d_a, d_b)
