"""Seeded ensemble checks behind the verify command.

Hard checks gate the exit code; soft checks only report numbers (empirical
constants, violation counts for the derivational capacity-rate bounds).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import (
    _PAULI,
    _checked_count,
    _haar_amplitudes,
    _kron,
    _partial_trace_matrix,
    _pure_density,
    _relative_entropy,
    _row_products,
    _schmidt,
    _support_log,
    _von_neumann_entropy,
    hermitize,
)
from .dynamics import NonlocalHamiltonian, evolved_schmidt_weights, simulate_trajectory
from .measures import (
    _density_capacity,
    _spectrum_capacity,
    _variance,
    capacity_from_spectrum,
    is_flat,
    smallest_continuity_constant,
    smallest_subadditivity_constant,
    solve_max_variance_spectrum,
)
from .mixed import closest_separable_family, is_ppt
from .self_inverse import SelfInverseHamiltonian, capacity_rate_bounds, max_entropy_rate_constant
from .speed_limits import (
    family_entropy,
    family_qsl_curve,
    family_sqrt_capacity,
    rate_bound_check,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    hard: bool
    passed: bool
    detail: str


def _random_density(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    """n random density matrices (n, d, d): G G^dagger / tr, G complex Gaussian.

    One standard_normal((n, 2, d, d)) call gives each G's real part, then its
    imaginary part.
    """
    g = rng.standard_normal((n, 2, d, d))
    z = g[:, 0] + 1j * g[:, 1]
    m = z @ np.swapaxes(z.conj(), -1, -2)
    return hermitize(m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None])


def run_properties(n_samples: int, seed: int, base="e") -> list[CheckResult]:
    """Measure and state-space properties on seeded ensembles.

    Each ensemble is drawn whole, with one generator call per quantity, and
    each check is one stacked evaluation of the same private kernels the
    public one-state functions call.
    """
    rng = np.random.default_rng(seed)
    n, m = n_samples, max(n_samples // 10, 10)
    results: list[CheckResult] = []

    # tensor-factor recovery of the partial trace
    rho_a, rho_b = _random_density(rng, 2, m), _random_density(rng, 3, m)
    dev = np.abs(_partial_trace_matrix(_kron(rho_a, rho_b), 2, 3, "A") - rho_a).max()
    results.append(CheckResult("partial-trace-factor-recovery", True, dev <= 1e-12, f"max_dev={dev:.3e}"))

    # Schmidt weights equal the reduced spectrum
    psis = _haar_amplitudes(rng, 4, m)
    reduced = _partial_trace_matrix(_pure_density(psis), 2, 2, "A")
    dev = np.abs(_schmidt(psis.reshape(m, 2, 2))[0] - np.linalg.eigvalsh(reduced)[:, ::-1]).max()
    results.append(CheckResult("schmidt-equals-reduced-spectrum", True, dev <= 1e-10, f"max_dev={dev:.3e}"))

    # base conversion by ln 2
    rho = _random_density(rng, 4, m)
    dev = np.abs(_von_neumann_entropy(rho, 2) - _von_neumann_entropy(rho, "e") / np.log(2.0)).max()
    results.append(CheckResult("entropy-base-conversion", True, dev <= 1e-12, f"max_dev={dev:.3e}"))

    # relative entropy non-negative, zero only at equality
    worst = _relative_entropy(_random_density(rng, 3, n), _random_density(rng, 3, n), base).min()
    results.append(CheckResult("relative-entropy-nonnegative", True, worst >= 0.0, f"min_value={worst:.3e}"))

    # additivity of the capacity under tensor products
    rho_a, rho_b = _random_density(rng, 2, m), _random_density(rng, 3, m)
    lhs = _density_capacity(_kron(rho_a, rho_b), base)
    dev = np.abs(lhs - (_density_capacity(rho_a, base) + _density_capacity(rho_b, base))).max()
    results.append(CheckResult("capacity-additivity", True, dev <= 1e-9, f"max_dev={dev:.3e}"))

    # positivity and flat-state zero
    min_cap = _density_capacity(_random_density(rng, 4, n), base).min()
    results.append(CheckResult("capacity-positivity", True, min_cap >= 0.0, f"min_value={min_cap:.3e}"))
    flat_dev = max(
        capacity_from_spectrum([0.5, 0.5, 0.0, 0.0], base).capacity,
        capacity_from_spectrum([1.0], base).capacity,
        capacity_from_spectrum(np.full(8, 1.0 / 8.0), base).capacity,
    )
    flat_ok = flat_dev <= 1e-10 and is_flat([0.5, 0.5, 0.0, 0.0]) and not is_flat([0.6, 0.4])
    results.append(CheckResult("flat-state-zero-capacity", True, flat_ok, f"max_dev={flat_dev:.3e}"))

    # convexity of the standard deviation and the linear-perturbation bound, in a fixed state
    tau = _random_density(rng, 3, m)
    k1 = -_support_log(_random_density(rng, 3, m), base)[0]
    k2 = -_support_log(_random_density(rng, 3, m), base)[0]
    p, x = rng.uniform(0.0, 1.0, m), rng.uniform(0.0, 2.0, m)
    u1, u2 = np.sqrt(_variance(k1, tau)), np.sqrt(_variance(k2, tau))
    pm, xm = p[:, None, None], x[:, None, None]
    conv_dev = (np.sqrt(_variance(pm * k1 + (1.0 - pm) * k2, tau)) - (p * u1 + (1.0 - p) * u2)).max()
    pert_dev = (np.sqrt(_variance(k1 + xm * k2, tau)) - (u1 + x * u2)).max()
    results.append(CheckResult("uncertainty-convexity", True, conv_dev <= 1e-10, f"max_excess={conv_dev:.3e}"))
    results.append(CheckResult("uncertainty-perturbation", True, pert_dev <= 1e-10, f"max_excess={pert_dev:.3e}"))

    # capacity through either subsystem of a pure state
    pure = _pure_density(_haar_amplitudes(rng, 4, m))
    dev = np.abs(_density_capacity(_partial_trace_matrix(pure, 2, 2, "A"), base)
                 - _density_capacity(_partial_trace_matrix(pure, 2, 2, "B"), base)).max()
    results.append(CheckResult("capacity-subsystem-symmetry", True, dev <= 1e-10, f"max_dev={dev:.3e}"))

    # maximal-variance spectrum bracket (printed with base-2 logs)
    ok = True
    details = []
    for d in (3, 4, 8, 16):
        _, weights = solve_max_variance_spectrum(d)
        cap = capacity_from_spectrum(weights, 2).capacity
        lo = 0.25 * np.log2(d - 1) ** 2
        hi = lo + 1.0 / np.log(2.0) ** 2
        ok &= lo < cap < hi
        details.append(f"d{d}={cap:.4f}")
    results.append(CheckResult("max-variance-bracket", True, ok, ",".join(details)))

    # analytic family references stay PPT
    ppt_ok = all(is_ppt(closest_separable_family(f, lam).sigma_star) for f in (1, 2) for lam in (0.0, 0.3, 0.7, 1.0))
    results.append(CheckResult("family-closest-states-ppt", True, ppt_ok, "lam in {0,0.3,0.7,1}"))

    # empirical constants (reporters, not gates)
    xi = smallest_continuity_constant(_random_density(rng, 4, m), _random_density(rng, 4, m), base)
    chi = smallest_subadditivity_constant(_random_density(rng, 4, m), 2, 2, base)
    results.append(CheckResult("continuity-constant-estimate", False, True, f"xi_hat={xi:.6f}"))
    results.append(CheckResult("subadditivity-constant-estimate", False, True, f"chi_hat={chi:.6f}"))
    return results


def _rate_bound(rng: np.random.Generator, n_samples: int, base) -> CheckResult:
    """Heisenberg-Robertson rate bound along random canonical evolutions.

    The ensemble is drawn whole: all couplings in one uniform((N, 3)) call,
    then all initial states in one standard_normal((N, 2, 4)) call.  The N
    canonical Hamiltonians are one stacked ``NonlocalHamiltonian``, evolved
    in their closed-form Bell-basis eigensystem.
    """
    mu = rng.uniform(0.0, 2.0, (n_samples, 3))
    psis = _haar_amplitudes(rng, 4, n_samples)
    hams = NonlocalHamiltonian(mu=np.sort(mu, axis=-1)[:, ::-1])
    traj = simulate_trajectory(hams, psis, np.linspace(0.05, 0.5, 4), base)
    check = rate_bound_check(traj)
    worst_margin = float(check.margins.min(initial=np.inf))
    return CheckResult("entanglement-rate-bound", True, check.violations == 0,
                       f"violations={check.violations},min_margin={worst_margin:.3e}")


def _capacity_rate_chain(rng: np.random.Generator, n_samples: int, base) -> CheckResult:
    """Derivational capacity-rate bounds along self-inverse evolutions: violation counts, not gated.

    The ensemble is drawn whole, one generator call per quantity: the normal
    3-vectors of every X_A and X_B (sample, factor, 3), then the initial
    states.  Each factor is X = n.sigma, n the normal vector over
    sqrt(sum(n**2)): a traceless involution with spectrum +-1, never the
    identity, so every H = X_A (x) X_B is non-local.  X is summed as
    ``_row_products`` of n with the Pauli matrices, so a stack row keeps the
    bits of its one-sample construction.  The N Hamiltonians are one stacked
    ``SelfInverseHamiltonian`` of checked involutions, evolved as cos t - i sin t H
    and with spectra +-1, so ||H|| = 1: the check makes no eigensolve.
    """
    n = max(n_samples // 5, 20)
    normals = rng.standard_normal((n, 2, 3))
    psis = _haar_amplitudes(rng, 4, n)
    unit = normals / np.sqrt(np.sum(normals**2, axis=-1, keepdims=True))
    x = _row_products(unit, _PAULI[1:].reshape(3, 4)).reshape(n, 2, 2, 2)
    hams = SelfInverseHamiltonian(x[:, 0], x[:, 1])
    traj = simulate_trajectory(hams, psis, np.array([0.1, 0.3, 0.7]), base)
    bounds = capacity_rate_bounds(
        2, gamma=np.abs(traj.gamma), capacity=traj.capacity, speed=2.0 * traj.delta_h,
        op_norm=1.0, d=2, base=base,
    )
    vals = (bounds.entanglement_rate_bound, bounds.speed_bound,
            bounds.norm_bound, bounds.self_inverse_bound)
    counts = [int((np.abs(traj.gamma_capacity) > b + 1e-7).sum()) for b in vals]
    return CheckResult(
        "capacity-rate-bound-chain", False, True,
        f"samples={traj.gamma.size},violations=rate:{counts[0]},speed:{counts[1]},norm:{counts[2]},selfinv:{counts[3]}",
    )


@functools.cache
def _reference_checks() -> tuple[CheckResult, ...]:
    """qsl-validity, qsl-tightness and closed-form-consistency on fixed base-2 grids.

    They read neither the seed, the ensemble size nor the base, so a process
    computes them once, as ``max_entropy_rate_constant`` does its constants.
    """
    # speed-limit validity on the closed-form family grid: one quadrature per theta, all p at once
    ps = np.linspace(0.0, 1.0, 20)
    t_grid = np.linspace(0.45 / 45.0, 0.45, 45)
    tqsl = np.stack([family_qsl_curve(ps, theta, t_grid) for theta in (0.5, 1.0)])
    worst = float((tqsl - t_grid).max())
    min_ratio = float((tqsl[:, [0, -1]] / t_grid).min())  # rows p = 0 and p = 1
    validity = CheckResult("qsl-validity", True, worst <= 1e-9, f"max_excess={worst:.3e}")
    tightness = CheckResult("qsl-tightness", False, min_ratio >= 0.95, f"min_ratio={min_ratio:.6f}")

    # closed forms match the generic spectrum code on a (p, theta, t) grid
    p, theta, t = np.ix_(np.linspace(0.0, 1.0, 11), [0.5, 1.0], np.linspace(0.0, 1.5, 11))
    capacity, entropy = _spectrum_capacity(np.stack(evolved_schmidt_weights(p, theta, t), axis=-1), 2)
    dev = float(max(np.abs(capacity - family_sqrt_capacity(p, theta, t) ** 2).max(),
                    np.abs(entropy - family_entropy(p, theta, t)).max()))
    consistency = CheckResult("closed-form-consistency", True, dev <= 1e-10, f"max_dev={dev:.3e}")
    return validity, tightness, consistency


def run_bounds(n_samples: int, seed: int, base="e") -> list[CheckResult]:
    """Rate-bound, speed-limit and capacity-rate checks on seeded ensembles.

    Each ensemble is drawn whole, with a fixed number of generator calls
    whatever its size, and each check is one array evaluation over the whole
    ensemble or grid.
    """
    rng = np.random.default_rng(seed)
    # each ensemble's stacked trajectories are freed before the next check runs
    results = [_rate_bound(rng, n_samples, base), *_reference_checks(),
               _capacity_rate_chain(rng, n_samples, base)]

    beta2 = max_entropy_rate_constant(2)
    betae = max_entropy_rate_constant("e")
    ok = abs(beta2 - betae / np.log(2.0)) <= 1e-10
    results.append(CheckResult("rate-constant-base-ratio", True, ok,
                               f"base2={beta2:.6f},base_e={betae:.6f}"))
    return results


def run_suite(suite: str, n_samples: int, seed: int, base="e") -> list[CheckResult]:
    n_samples = _checked_count(n_samples, "n_samples")
    if suite == "properties":
        return run_properties(n_samples, seed, base)
    if suite == "bounds":
        return run_bounds(n_samples, seed, base)
    if suite == "all":
        return run_properties(n_samples, seed, base) + run_bounds(n_samples, seed, base)
    raise ValueError(f"unknown suite {suite!r}")


def format_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        kind = "hard" if r.hard else "soft"
        lines.append(f"{status} {kind} {r.name} {r.detail}")
    lines.append(f"SUMMARY checks={len(results)} hard_failures={hard_failures(results)}")
    return "\n".join(lines) + "\n"


def hard_failures(results: list[CheckResult]) -> int:
    return sum(1 for r in results if r.hard and not r.passed)
