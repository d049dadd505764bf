"""Core state types and matrix-analytic primitives for small bipartite systems.

Everything here is dense numpy linear algebra; dimensions are expected to stay
small (two qubits up to d ~ 64).  All values are immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# defined in scalar, which needs no numpy; other modules import them from here too
from .scalar import ConfigurationError, DomainError, _bisect, _checked_count, log_scale

NORM_TOL = 1e-12
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
EIG_CLAMP = 1e-10          # negatives in [-EIG_CLAMP, 0] are round-off, clamped to 0
SUPPORT_CUTOFF = 1e-12     # relative to the largest eigenvalue
MAX_ENTRY = 1e150          # largest operator entry or coupling: squares and products over d <= 64 stay finite


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker products a ⊗ b of matrices (..., p, p) and (..., q, q), stacked over their broadcast leading axes."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (out.shape[-4] * out.shape[-3],) * 2)


# the Pauli matrices (I, X, Y, Z) and their 16 products s_a ⊗ s_b, at index 4a + b
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_PAULI_PAIRS = _kron(_PAULI[:, None], _PAULI[None, :]).reshape(16, 4, 4)


def _checked_real(x, message: str, lo: float = -math.inf, hi: float = math.inf, positive: bool = False) -> np.ndarray:
    """x as a float array; DomainError(message) unless every entry is finite, in [lo, hi] and, if ``positive``,
    above 0.  The one range test of a real input: it passes only values that satisfy it, so NaN fails it."""
    x = np.asarray(x, dtype=float)
    if x.size:  # one NaN makes the min and the max NaN, which fails every comparison
        low, high = x.min(), x.max()
        if not (lo <= low and high <= hi and math.isfinite(low) and math.isfinite(high) and (low > 0.0 or not positive)):
            raise DomainError(message)
    return x


def _checked_operator(m, tol: float, name: str = "operator") -> np.ndarray:
    """m as a complex array; DomainError unless it is square (one matrix or a stack (..., d, d)), no entry
    exceeds MAX_ENTRY in modulus, and it is Hermitian to tol times its largest entry modulus floored at 1, so to
    tol exactly where no entry exceeds 1."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DomainError(f"{name} must be a square matrix")
    size = np.abs(m).max(initial=0.0)
    if not size <= MAX_ENTRY:  # NaN and inf fail too
        raise DomainError(f"{name} entries must be finite, of modulus at most {MAX_ENTRY:g}")
    dev = np.abs(m - m.conj().swapaxes(-1, -2)).max(initial=0.0)
    if not dev <= tol * max(size, 1.0):
        raise DomainError(f"{name} is not Hermitian (deviation {dev:.3e})")
    return m


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A†)/2 of a matrix or of each matrix in a stack (..., d, d)."""
    return 0.5 * (a + np.swapaxes(a.conj(), -1, -2))


def _row_products(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x @ m, x (..., d), m (d, d) or (..., d, d), as the sum of x_j m_j in index order: a stack row keeps its bits."""
    return sum((x[..., j, None] * m[..., j, :] for j in range(1, x.shape[-1])), x[..., 0, None] * m[..., 0, :])


def _hamiltonian_matrix(hamiltonian, dim: int | None = None) -> np.ndarray:
    """``hamiltonian.matrix()`` of a Hamiltonian type, else raw matrices (..., d, d) checked by ``_checked_operator``.

    DomainError unless, with a state's dimension ``dim``, d == dim: the one check that a Hamiltonian
    or an observable, or each of a stack, acts on the state.
    """
    typed = callable(getattr(hamiltonian, "matrix", None))  # Hermitian and finite by construction
    h = hamiltonian.matrix() if typed else _checked_operator(hamiltonian, HERMITIAN_TOL)
    if dim is not None and h.shape[-1] != dim:
        raise DomainError(f"operator acts on dimension {h.shape[-1]}, the state has dimension {dim}")
    return h


@dataclass(frozen=True)
class BipartitePureState:
    """Unit-norm pure state of an A⊗B system with explicit subsystem dimensions."""

    amplitudes: np.ndarray
    d_a: int
    d_b: int

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "d_a", _checked_count(self.d_a, "d_a"))
        object.__setattr__(self, "d_b", _checked_count(self.d_b, "d_b"))
        if amps.size != self.d_a * self.d_b:
            raise DomainError(
                f"amplitude vector has length {amps.size}, expected {self.d_a * self.d_b}"
            )
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= NORM_TOL:
            raise DomainError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")
        amps.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.d_a * self.d_b

    def as_matrix(self) -> np.ndarray:
        """Amplitudes reshaped to a (d_a, d_b) coefficient matrix."""
        return self.amplitudes.reshape(self.d_a, self.d_b)


def _checked_density(m) -> np.ndarray:
    """Hermitian parts of matrices (..., d, d); DomainError unless they pass ``_checked_operator``
    and each has unit trace and is PSD to the tolerances.  Round-off negatives are clamped and the
    matrix renormalized, which moves last bits: check a matrix once, on its raw form."""
    m = hermitize(_checked_operator(m, HERMITIAN_TOL, "density matrix"))
    tr = m.trace(axis1=-2, axis2=-1).real
    off = abs(tr - 1.0)
    if not off.max() <= TRACE_TOL:
        raise DomainError(f"trace {tr.flat[off.argmax()]!r} deviates from 1 beyond {TRACE_TOL}")
    least = np.linalg.eigvalsh(m)[..., 0]
    low = least.min()
    if not low >= -EIG_CLAMP:
        raise DomainError(f"negative eigenvalue {low:.3e} below clamp threshold")
    if low < 0.0:
        # round-off negatives: clamp to zero and renormalize, where there are any
        w, v = np.linalg.eigh(m)
        w = np.clip(w, 0.0, None)
        clamped = (v * (w / w.sum(axis=-1, keepdims=True))[..., None, :]) @ v.conj().swapaxes(-1, -2)
        np.copyto(m, clamped, where=(least < 0.0)[..., None, None])
    return m


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, PSD, unit-trace operator, optionally carrying a bipartite split."""

    matrix: np.ndarray
    d_a: int | None = None
    d_b: int | None = None

    def __post_init__(self):
        m = _checked_density(self.matrix)
        if m.ndim != 2:
            raise DomainError("density matrix must be one matrix, not a stack")
        d = m.shape[0]
        if (self.d_a is None) != (self.d_b is None):
            raise ConfigurationError("d_a and d_b must be given together")
        if self.d_a is not None:
            object.__setattr__(self, "d_a", _checked_count(self.d_a, "d_a"))
            object.__setattr__(self, "d_b", _checked_count(self.d_b, "d_b"))
            if self.d_a * self.d_b != d:
                raise ConfigurationError(f"split {self.d_a}x{self.d_b} does not match size {d}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def split(self) -> tuple[int, int]:
        if self.d_a is None:
            raise ConfigurationError("density operator carries no bipartite split")
        return self.d_a, self.d_b


def _pure_density(amps: np.ndarray) -> np.ndarray:
    """Outer products |psi><psi| of amplitude vectors (..., d), as (..., d, d)."""
    return amps[..., :, None] * amps[..., None, :].conj()


def density_from_pure(state: BipartitePureState) -> DensityOperator:
    """Outer product |Ψ⟩⟨Ψ| carrying the state's bipartite split."""
    return DensityOperator(_pure_density(state.amplitudes), d_a=state.d_a, d_b=state.d_b)


def _partial_trace_matrix(m: np.ndarray, d_a: int, d_b: int, keep: str) -> np.ndarray:
    """Hermitian part of the trace of operators on A⊗B (..., d, d) over the subsystem other than ``keep``."""
    r = m.reshape(m.shape[:-2] + (d_a, d_b, d_a, d_b))
    if keep == "A":
        return hermitize(np.einsum("...abcb->...ac", r))
    if keep == "B":
        return hermitize(np.einsum("...abad->...bd", r))
    raise ConfigurationError(f"keep must be 'A' or 'B', got {keep!r}")


def partial_trace(rho: DensityOperator, keep: str) -> DensityOperator:
    """Reduced operator on subsystem ``keep`` ("A" or "B")."""
    return DensityOperator(_partial_trace_matrix(rho.matrix, *rho.split(), keep))


def _schmidt(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schmidt weights and bases of coefficient matrices (..., d_a, d_b), as ``schmidt_decompose``."""
    u, s, vh = np.linalg.svd(c, full_matrices=False)
    weights = s**2
    weights = weights / weights.sum(axis=-1, keepdims=True)
    return weights, u, np.swapaxes(vh, -1, -2).copy()


def schmidt_decompose(
    state: BipartitePureState,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schmidt weights (descending, summing to 1) and the two Schmidt bases.

    Returns ``(weights, basis_a, basis_b)`` of length min(d_a, d_b); the state
    equals sum_n sqrt(weights[n]) basis_a[:, n] ⊗ basis_b[:, n].
    """
    return _schmidt(state.as_matrix())


def _support_log(m: np.ndarray, base="e") -> tuple[np.ndarray, np.ndarray]:
    """(log, kernel) of PSD matrices (..., d, d) from one eigh: the operator log on the
    support, null directions mapped to 0, and the eigenvectors with the support's columns zeroed."""
    w, v = np.linalg.eigh(m)
    support = w > SUPPORT_CUTOFF * w.max(axis=-1, keepdims=True)
    lw = np.where(support, np.log(np.where(support, w, 1.0)) / log_scale(base), 0.0)
    return hermitize((v * lw[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)), v * ~support[..., None, :]


def _entropy_terms(w: np.ndarray, base="e") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S, p, log p) for probability vectors w along the last axis, with 0·log 0 = 0.

    S = -sum p log p.  Entries <= 0 give p = log p = 0, so they add nothing to
    any sum of p log^k p; positive entries are floored at 1e-300.  Each log is
    divided by ln(base) before it is summed.
    """
    pos = w > 0.0
    nz = np.maximum(w, 1e-300)
    p, logs = np.where(pos, nz, 0.0), np.where(pos, np.log(nz) / log_scale(base), 0.0)
    return -np.sum(p * logs, axis=-1), p, logs


def spectrum_entropy(weights, base="e"):
    """Shannon entropy of probability vectors along the last axis, with 0·log 0 = 0.

    Entries <= 0 add nothing, a non-finite one is a DomainError.  One vector gives a float, a stack (..., d) an array.
    """
    out = _entropy_terms(_checked_real(weights, "weights must be finite"), base)[0]
    return float(out) if out.ndim == 0 else out


def _density_weights(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of density matrices (..., d, d), clipped at 0 and renormalized."""
    w = np.clip(np.linalg.eigvalsh(m), 0.0, None)
    return w / w.sum(axis=-1, keepdims=True)


def _von_neumann_entropy(m: np.ndarray, base="e") -> np.ndarray:
    """-tr(m log m) of density matrices (..., d, d), from ``_density_weights``; lies in [0, log d]."""
    return np.maximum(spectrum_entropy(_density_weights(m), base), 0.0)


def von_neumann_entropy(rho: DensityOperator, base="e") -> float:
    """-tr(rho log rho); lies in [0, log d]."""
    return float(_von_neumann_entropy(rho.matrix, base))


def _leaves_support(r: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """True where r puts weight above 1e-10 on the columns of a ``_support_log`` kernel,
    for matrices (..., d, d)."""
    return np.einsum("...ji,...jk,...ki->...", kernel.conj(), r, kernel).real > 1e-10


def _relative_entropy(r: np.ndarray, s: np.ndarray, base="e") -> np.ndarray:
    """Umegaki D(r||s) of density matrices (..., d, d); inf where supp(r) ⊄ supp(s)."""
    log_s, kernel = _support_log(s, base)
    val = np.trace(r @ (_support_log(r, base)[0] - log_s), axis1=-2, axis2=-1).real
    return np.where(_leaves_support(r, kernel), np.inf, np.maximum(val, 0.0))


def relative_entropy(rho: DensityOperator, sigma: DensityOperator, base="e") -> float:
    """Umegaki relative entropy; returns math.inf when supp(rho) ⊄ supp(sigma)."""
    if rho.dim != sigma.dim:
        raise DomainError("relative_entropy requires equal dimensions")
    return float(_relative_entropy(rho.matrix, sigma.matrix, base))


def _trace_distance(r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Half the trace norm of r - s for matrices (..., d, d)."""
    return 0.5 * np.abs(np.linalg.eigvalsh(r - s)).sum(axis=-1)


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Half the trace norm of rho - sigma; lies in [0, 1]."""
    if rho.dim != sigma.dim:
        raise DomainError("trace_distance requires equal dimensions")
    return float(_trace_distance(rho.matrix, sigma.matrix))


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
    d_a, d_b = _checked_count(d_a, "d_a", 2), _checked_count(d_b, "d_b", 2)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return BipartitePureState(_haar_amplitudes(rng, d_a * d_b), d_a, d_b)
