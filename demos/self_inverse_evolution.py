#!/usr/bin/env python3
"""Self-inverse interactions H = X_A (x) X_B and their capacity-rate ceiling.

Because H squares to the identity, U(t) = cos(t) I - i sin(t) H in closed
form, and the entanglement rate obeys a state-independent cap.  The chain of
capacity-rate bounds is evaluated on random evolutions with their exact
rates, loosest bound last.
"""

import math

import numpy as np

from entcap import (
    BipartitePureState,
    SelfInverseHamiltonian,
    capacity_rate_bounds,
    density_from_pure,
    evolve_self_inverse,
    haar_random_pure,
    liouville_rhs,
    max_entropy_rate_constant,
    operator_norm,
    schmidt_decompose,
    simulate_trajectory,
    spectrum_entropy,
)

SZ = np.diag([1.0, -1.0])
SX = np.array([[0.0, 1.0], [1.0, 0.0]])

print("Closed-form evolution under the Ising coupling")
ham = SelfInverseHamiltonian(SZ, SZ)
plus = np.array([1.0, 1.0]) / math.sqrt(2)
psi = BipartitePureState(np.kron(plus, plus), 2, 2)
for t in (0.0, math.pi / 8, math.pi / 4):
    state = evolve_self_inverse(ham, psi, t)
    w, _, _ = schmidt_decompose(state)
    print(f"  t = {t:.4f}: weights = {np.round(w, 6)}, S = {spectrum_entropy(w, 2):.6f} bits")

print()
print("Generator of the density-matrix flow")
rho = density_from_pure(psi)
rhs = liouville_rhs(ham, rho)
print(f"  -i[H, rho]: trace = {abs(np.trace(rhs)):.2e}, norm = {np.linalg.norm(rhs):.4f}")

print()
be = max_entropy_rate_constant("e")
b2 = max_entropy_rate_constant(2)
print(f"Rate constant: {be:.6f} (nats) = {b2:.6f} (bits)")

print()
print("Capacity-rate bound chain on random self-inverse evolutions")
rng = np.random.default_rng(3)
for k in range(3):
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, _ = np.linalg.qr(g)
    x_a = q @ np.diag([1.0, -1.0]) @ q.conj().T
    ham = SelfInverseHamiltonian(0.5 * (x_a + x_a.conj().T), SX)
    psi = haar_random_pure(2, 2, rng)
    # the exact rates dS/dt and dC/dt, C and the fluctuation, all at t = 0.4
    traj = simulate_trajectory(ham, psi, [0.4], base="e")
    bounds = capacity_rate_bounds(2, gamma=abs(traj.gamma[0]), capacity=traj.capacity[0],
                                  speed=2 * traj.delta_h[0], op_norm=operator_norm(ham), d=2, base="e")
    print(f"  sample {k}: |dC/dt| = {abs(traj.gamma_capacity[0]):.4f}  <=  "
          f"{bounds.entanglement_rate_bound:.4f} / {bounds.speed_bound:.4f} / "
          f"{bounds.norm_bound:.4f} / {bounds.self_inverse_bound:.4f}")
