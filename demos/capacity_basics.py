#!/usr/bin/env python3
"""Walkthrough of the core objects: states, Schmidt weights, entropy, capacity.

The capacity of entanglement is the variance of the modular Hamiltonian
K = -log(rho) in the reduced state; flat spectra (pure or maximally mixed)
have zero capacity, and for fixed dimension the maximum sits on a one-spike
spectrum found by a scalar root solve.
"""

import numpy as np

from entcap import (
    BipartitePureState,
    capacity_from_spectrum,
    capacity_pure,
    capacity_two_qubit_closed,
    density_from_pure,
    haar_random_pure,
    is_flat,
    modular_hamiltonian,
    observable_variance,
    partial_trace,
    schmidt_decompose,
    solve_max_variance_spectrum,
    von_neumann_entropy,
)


def banner(title):
    print()
    print("=" * 64)
    print(" ", title)
    print("=" * 64)


banner("Schmidt structure of two-qubit states")
bell = BipartitePureState(np.array([1, 0, 0, 1]) / np.sqrt(2), 2, 2)
lopsided = BipartitePureState(np.array([np.sqrt(0.95), 0, 0, np.sqrt(0.05)]), 2, 2)
for name, psi in [("Bell", bell), ("sqrt(.95)|00> + sqrt(.05)|11>", lopsided)]:
    weights, _, _ = schmidt_decompose(psi)
    print(f"{name:32s} weights = {np.round(weights, 6)}")

banner("Entropy is the mean of K, capacity its variance")
for name, psi in [("Bell", bell), ("lopsided", lopsided)]:
    rho_a = partial_trace(density_from_pure(psi), "A")
    k = modular_hamiltonian(rho_a, "e")
    s = von_neumann_entropy(rho_a, "e")
    result = capacity_pure(psi, "e")
    print(f"{name:10s} S = {s:.6f}  <K> = {np.trace(rho_a.matrix @ k).real:.6f}  "
          f"C_E = {result.capacity:.6f}  Var(K) = {observable_variance(k, rho_a):.6f}")

banner("Flat spectra have zero capacity")
for spec in ([0.5, 0.5], [0.25] * 4, [0.7, 0.3]):
    cap = capacity_from_spectrum(spec, "e").capacity
    print(f"spectrum {spec}: flat={is_flat(spec)}  C_E={cap:.3e}")

banner("Two-qubit closed form p(1-p) ln^2(p/(1-p))")
for p in (0.0045, 0.1, 0.25, 0.5):
    print(f"p = {p:<7} C_E = {capacity_two_qubit_closed(p, 'e'):.6f}")

banner("Maximal-capacity spectrum per dimension")
for d in (2, 4, 16):
    r, weights = solve_max_variance_spectrum(d)
    cap = capacity_from_spectrum(weights, 2).capacity
    print(f"d = {d:<3} r = {r:.6f}  C_E = {cap:.4f} (base 2), "
          f"window ({0.25 * np.log2(d - 1) ** 2:.4f}, {0.25 * np.log2(d - 1) ** 2 + 1 / np.log(2) ** 2:.4f})")

banner("Random states: capacity through either subsystem")
rng = np.random.default_rng(1)
for k in range(3):
    psi = haar_random_pure(2, 2, rng)
    rho = density_from_pure(psi)
    ca = capacity_from_spectrum(
        np.clip(np.linalg.eigvalsh(partial_trace(rho, "A").matrix), 0, None), "e").capacity
    cb = capacity_from_spectrum(
        np.clip(np.linalg.eigvalsh(partial_trace(rho, "B").matrix), 0, None), "e").capacity
    print(f"sample {k}: C_E via A = {ca:.8f}, via B = {cb:.8f}")
