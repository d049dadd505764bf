"""Rate bounds and quantum-speed-limit times for entanglement change."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MAX_ENTRY, BipartitePureState, DomainError, _checked_count, _checked_real, _hamiltonian_matrix
from .dynamics import (
    Trajectory,
    _apply,
    _fluctuation,
    _two_qubit_capacity,
    _two_qubit_entropy,
    _two_qubit_log_ratio,
    _trajectory_fields,
)


def hamiltonian_fluctuation(hamiltonian, psi: BipartitePureState) -> float:
    """Energy standard deviation sqrt(<H^2> - <H>^2) in a pure state; a stack of N Hamiltonians gives N values."""
    h = _hamiltonian_matrix(hamiltonian, psi.dim)
    out = _fluctuation(psi.amplitudes, _apply(h, psi.amplitudes))
    return float(out) if out.ndim == 0 else out


def fubini_study_speed(hamiltonian, psi: BipartitePureState) -> float:
    """Projective-space speed 2 ΔH (hbar = 1)."""
    return 2.0 * hamiltonian_fluctuation(hamiltonian, psi)


def _family_schmidt(p, theta, t):
    """(lam_-, ln(lam_+/lam_-)) along the family, from its smaller Schmidt weight without cancellation.

    The weights are p cos^2(theta t) + (1-p) sin^2(theta t) and the same with
    p and 1-p swapped; the smaller is min(p, 1-p) + |1-2p| min(sin^2, cos^2)
    of theta t, a sum of non-negative terms, and their gap is
    s = |1-2p| |cos(2 theta t)|.  So both keep full relative precision as
    2 theta t -> 0, where the forms through 1 - (1-2p) cos(2 theta t) cancel,
    and p = 1/2 gives the weight 1/2 exactly.
    """
    p = _checked_real(p, "p must lie in [0, 1]", 0.0, 1.0)
    _checked_real(theta, f"theta must be finite, of modulus at most {MAX_ENTRY:g}", -MAX_ENTRY, MAX_ENTRY)
    x = theta * _checked_real(t, f"t must be finite, of modulus at most {MAX_ENTRY:g}", -MAX_ENTRY, MAX_ENTRY)
    a = np.abs(1.0 - 2.0 * p)
    lam_minus = np.minimum(p, 1.0 - p) + a * np.minimum(np.sin(x) ** 2, np.cos(x) ** 2)
    return lam_minus, _two_qubit_log_ratio(lam_minus, a * np.abs(np.cos(2.0 * x)))


def family_sqrt_capacity(p, theta, t, base="2"):
    """sqrt of the closed-form capacity along the family; 0 at the product endpoints."""
    return np.sqrt(_two_qubit_capacity(*_family_schmidt(p, theta, t), base))


def family_entropy(p, theta, t, base="2"):
    """Closed-form entanglement entropy along the family (binary entropy of its Schmidt pair)."""
    return _two_qubit_entropy(*_family_schmidt(p, theta, t), base)


@dataclass(frozen=True)
class QSLReport:
    """Speed-limit evaluation for one evolution window [0, T]."""

    duration: float
    t_qsl: float
    entropy_change: float
    mean_sqrt_capacity: float
    mean_fluctuation: float
    samples: int


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on the three-term recurrence for P_n, from the usual
    cosine guesses; it calls no LAPACK routine, so importing entcap touches
    none (the first eigh call costs about 0.6 MB of resident memory).
    """
    x = np.cos(np.pi * (np.arange(1.0, n + 1.0) - 0.25) / (n + 0.5))
    for _ in range(8):
        p_prev, p = np.ones_like(x), x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        x = x - p / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


# 12 nodes per panel; toward each breakpoint the panels shrink 4x per level
# for 32 levels, from pi/4 down to 2e-19
_GL_NODES, _GL_WEIGHTS = _gauss_legendre(12)
_GRADED_OFFSETS = (np.pi / 4.0) * 0.25 ** np.arange(32.0)
# panel edges of one period [0, pi]: 0, pi/2, pi and the graded levels toward each, repeats kept
_PERIOD_EDGES = np.sort(np.concatenate([[0.0, np.pi / 2.0, np.pi], _GRADED_OFFSETS, np.pi / 2.0 - _GRADED_OFFSETS,
                                        np.pi / 2.0 + _GRADED_OFFSETS, np.pi - _GRADED_OFFSETS]))


def _family_qsl(p, theta, durations, base):
    """(T_qsl, ΔS, time-averaged sqrt(C), nodes evaluated) for one scalar theta and every p and duration.

    In x = 2 theta t the integrand is g(a cos x) with a = |1 - 2p|, of period pi; it has a log singularity
    (|eta| = 1 when a = 1) or a kink (eta = 0) only at x = k pi/2.  Panels over one period are graded
    geometrically toward 0, pi/2 and pi, and every window's rest 2 theta T mod pi is a panel edge, so one
    composite Gauss-Legendre pass, evaluated at theta t = x/2, gives the integral up to every duration exactly
    (no snapping) as whole periods times the integral over [0, pi] plus the integral up to the rest.  Durations
    may come in any order; the panels stop at pi and do not depend on p, so an array of p shares them:
    the first three results have shape p.shape + durations.shape.
    """
    p = np.asarray(p, dtype=float)
    theta = _checked_real(theta, f"theta must be a positive, finite scalar, at most {MAX_ENTRY:g}",
                          hi=MAX_ENTRY, positive=True)
    if theta.ndim:
        raise DomainError("theta must be a positive, finite scalar")
    durations = _checked_real(durations, f"durations must be positive and finite, at most {MAX_ENTRY:g}",
                              hi=MAX_ENTRY, positive=True)
    ends = 2.0 * theta * durations
    periods, rests = np.divmod(ends, np.pi)
    # np.unique's own sort-and-compare, without the numpy.ma import of its first call
    edges = np.sort(np.concatenate([_PERIOD_EDGES, rests.ravel()]))
    edges = edges[np.append(True, edges[1:] != edges[:-1]) & (edges <= min(float(ends.max(initial=0.0)), np.pi))]
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    x = mid[:, None] + half[:, None] * _GL_NODES
    # theta = 1/2 at time x is the phase x/2 exactly
    sqrt_cap = family_sqrt_capacity(p[..., None, None], 0.5, x, base)
    panel_sums = half * (sqrt_cap @ _GL_WEIGHTS)
    cum = np.concatenate([np.zeros(panel_sums.shape[:-1] + (1,)), np.cumsum(panel_sums, axis=-1)], axis=-1)
    integral = np.multiply.outer(cum[..., -1], periods) + cum[..., np.searchsorted(edges, rests)]
    p = p.reshape(p.shape + (1,) * durations.ndim)
    start = _family_schmidt(p, theta, 0.0)
    # below the least normal float, 2 theta T is no scale to divide by, and sin^2(theta t) underflows to 0
    # on the window: the mean is its T -> 0 limit, sqrt(C) at t = 0
    normal = ends >= np.finfo(float).tiny
    mean_sqrt = np.where(normal, integral / np.where(normal, ends, 1.0), np.sqrt(_two_qubit_capacity(*start, base)))
    ds = family_entropy(p, theta, durations, base) - _two_qubit_entropy(*start, base)
    dh = theta * np.abs(1.0 - 2.0 * p)
    moving = ds != 0.0
    t_qsl = np.zeros_like(ds)
    t_qsl[moving] = np.abs(ds[moving]) / (2.0 * dh * mean_sqrt)[moving]
    return t_qsl, ds, mean_sqrt, sqrt_cap.size


def family_qsl_curve(p, theta, durations, base="2") -> np.ndarray:
    """T_qsl of the closed-form family at every duration, in the order given.

    theta is a positive scalar and each duration positive, both at most 1e150.  The quadrature covers
    one period of sqrt(C) in 2 theta t, so its cost does not grow with the durations.  A scalar p gives
    durations.shape; a 1-D array of P values gives one row per p, shape (P, T) for T durations, each
    row equal to the scalar call.
    At p in {0, 1} the rate bound is saturated while S is monotone
    (2 theta T <= pi/2), so T_qsl equals T there to rounding.
    """
    return _family_qsl(p, theta, durations, base)[0]


def family_qsl_report(p: float, theta: float, duration: float, base="2") -> QSLReport:
    """Speed-limit report for one duration of the closed-form family."""
    t_qsl, ds, mean_sqrt, nodes = _family_qsl(p, theta, [duration], base)
    return QSLReport(float(duration), float(t_qsl[0]), float(ds[0]), float(mean_sqrt[0]),
                     theta * abs(1.0 - 2.0 * p), nodes)


@dataclass(frozen=True)
class RateBoundCheck:
    """Per-sample outcome of |Gamma| <= 2 sqrt(C) ΔH."""

    satisfied: np.ndarray
    margins: np.ndarray

    @property
    def violations(self) -> int:
        return int((~self.satisfied).sum())


def rate_bound_check(trajectory: Trajectory, margin: float = 1e-12) -> RateBoundCheck:
    """Check the entanglement-rate bound along a sampled unitary trajectory.

    The rates are exact, so ``margin`` only absorbs rounding: it must be finite and non-negative.
    """
    margin = _checked_real(margin, "margin must be finite and non-negative", 0.0)
    bound = 2.0 * np.sqrt(np.clip(trajectory.capacity, 0.0, None)) * trajectory.delta_h
    margins = bound - np.abs(trajectory.gamma)
    return RateBoundCheck(satisfied=margins >= -margin, margins=margins)


def _step_time_dependent(h_of_t, amps0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Amplitudes (T, d) at each of T times by piecewise-constant stepping from ``amps0``.

    One batched ``eigh`` of the checked midpoint Hamiltonians; each step as ``evolve_matrix``, renormalized.
    """
    mids = 0.5 * (times[:-1] + times[1:])
    w, v = np.linalg.eigh(_hamiltonian_matrix(np.array([h_of_t(t) for t in mids], dtype=complex), amps0.size))
    out = np.empty((len(times), amps0.size), dtype=complex)
    out[0] = amps0
    for k, (wk, vk, dt) in enumerate(zip(w, v, np.diff(times)), start=1):
        amps = vk @ (np.exp(-1j * wk * dt) * (vk.conj().T @ out[k - 1]))
        out[k] = amps / np.linalg.norm(amps)
    return out


def qsl_time_dependent(h_of_t, psi0: BipartitePureState, duration: float,
                       samples: int = 2001, base="2") -> QSLReport:
    """Speed limit for a time-dependent Hamiltonian, as printed:

        T_qsl = |ΔS| / (2 ΔH_bar sqrt((1/T) ∫ sqrt(C) dt)),

    with ΔH_bar the time-averaged fluctuation.  It is not a lower bound on T:
    H(t) = 10 σx⊗σx on [0.95, 1] only, from |00>, gives T_qsl = 3.92 T in bits
    and 3.27 T in nats.  The window needs a positive ``duration`` of at most 1e150,
    an integer ``samples >= 2`` (both ends) and an h_of_t that acts on psi0.
    """
    _checked_real(duration, f"duration must be positive and finite, at most {MAX_ENTRY:g}", hi=MAX_ENTRY, positive=True)
    samples = _checked_count(samples, "samples", 2)
    ts = np.linspace(0.0, duration, samples)
    hs = _hamiltonian_matrix(np.array([h_of_t(t) for t in ts], dtype=complex), psi0.dim)
    amps = _step_time_dependent(h_of_t, psi0.amplitudes, ts)
    fields = _trajectory_fields(amps, _apply(hs, amps), base)
    mean_sqrt = float(np.trapezoid(np.sqrt(fields["capacity"]), ts) / duration)
    mean_fluct = float(np.trapezoid(fields["delta_h"], ts) / duration)
    ds = float(fields["entropy"][-1] - fields["entropy"][0])
    if ds == 0.0:
        t_qsl = 0.0
    else:
        denom = 2.0 * mean_fluct * np.sqrt(mean_sqrt)
        if denom <= 0.0:
            raise DomainError("entropy changed but fluctuation or capacity average is zero")
        t_qsl = float(abs(ds) / denom)
    return QSLReport(duration, t_qsl, ds, mean_sqrt, mean_fluct, samples)
