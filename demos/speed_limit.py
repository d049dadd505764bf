#!/usr/bin/env python3
"""Entanglement rate bounds and the speed limit they imply.

Along any unitary trajectory, |dS/dt| <= 2 sqrt(C_E) * dH, so the time to
move the entanglement entropy by a given amount is bounded below.  For the
diagonal two-qubit family starting from a product state the bound is exactly
saturated, which is visible as T_qsl/T = 1 across the sweep.
"""

import numpy as np

from entcap import (
    BipartitePureState,
    NonlocalHamiltonian,
    family_qsl_curve,
    family_qsl_report,
    fubini_study_speed,
    haar_random_pure,
    hamiltonian_fluctuation,
    qsl_time_dependent,
    rate_bound_check,
    simulate_trajectory,
)

print("Pointwise rate bound on random evolutions")
rng = np.random.default_rng(5)
times = np.linspace(0.05, 0.5, 4)
total = violations = 0
worst = np.inf
for _ in range(200):
    mu = np.sort(rng.uniform(0, 2, 3))[::-1]
    ham = NonlocalHamiltonian(mu=tuple(mu))
    psi = haar_random_pure(2, 2, rng)
    check = rate_bound_check(simulate_trajectory(ham, psi, times, base="e"))
    violations += check.violations
    worst = min(worst, check.margins.min())
    total += len(times)
print(f"  {total} samples, {violations} violations, smallest margin {worst:.3e}")

print()
print("Speed of state transport (projective-space metric)")
ham = NonlocalHamiltonian(mu=(1.0, 0.3, 0.1))
psi = BipartitePureState(np.array([1.0, 0, 0, 0]), 2, 2)
print(f"  dH = {hamiltonian_fluctuation(ham, psi):.6f},"
      f"  V = 2 dH = {fubini_study_speed(ham, psi):.6f}")

print()
print("Speed-limit sweep for the product-state family (p = 1)")
durations = np.linspace(0.05, 0.45, 9)
for theta in (0.5, 1.0):
    ratios = family_qsl_curve(1.0, theta, durations) / durations
    print(f"  theta = {theta}: T_qsl/T ranges over [{ratios.min():.9f}, {ratios.max():.9f}]")

report = family_qsl_report(1.0, 1.0, 0.2)
print(f"  at T = 0.2, theta = 1: T_qsl = {report.t_qsl:.9f} "
      f"(dS = {report.entropy_change:.6f} bits, mean sqrt(C) = {report.mean_sqrt_capacity:.6f})")

print()
print("Time-dependent drive g(t) = sin(t) on the same interaction")
h = ham.matrix()
psi = haar_random_pure(2, 2, 7)
report = qsl_time_dependent(lambda t: np.sin(t) * h, psi, 0.8, samples=2001)
print(f"  duration 0.8 -> T_qsl = {report.t_qsl:.6f}, T_qsl/T = {report.t_qsl / 0.8:.6f} "
      f"(mean fluctuation {report.mean_fluctuation:.6f}; the printed formula, not a lower bound)")
