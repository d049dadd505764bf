#!/usr/bin/env python3
"""How fast can a two-qubit interaction change the capacity of entanglement?

Any two-qubit coupling reduces, under local unitaries, to canonical strengths
mu1 >= mu2 >= mu3 >= 0.  The capacity rate factorizes into a state factor
(depending only on the Schmidt weight) and an interaction factor bounded by
mu1 + mu2 without ancillas, mu1 + mu2 + mu3 with them.
"""

import numpy as np

from entcap import (
    canonical_form,
    capacity_from_spectrum,
    capacity_rate_factor_maximum,
    capacity_two_qubit_closed,
    max_capacity_rate,
    max_entangling_element,
    max_entangling_element_ancilla,
    max_entangling_element_numeric,
)

print("Canonical form of a randomly oriented coupling")
rng = np.random.default_rng(0)
q1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
gamma = q1 @ np.diag([1.0, 0.5, 0.2]) @ q2.T
ham = canonical_form(rng.standard_normal(3), rng.standard_normal(3), gamma)
print(f"  singular values -> mu = {np.round(ham.mu, 10)}, branch sign = {ham.sign:+d}")
print(f"  interaction ceiling:          mu1+mu2     = {max_entangling_element(ham):.6f}")
print(f"  product-state maximum of the raw H:         {max_entangling_element_numeric(ham.raw_matrix()):.6f}")
print(f"  with qubit ancillas:          mu1+mu2+mu3 = {max_entangling_element_ancilla(ham):.6f}")

print()
print("State factor of the capacity rate (natural log)")
p0, f0 = capacity_rate_factor_maximum("e")
print(f"  best Schmidt weight p0 = {p0:.6f}")
print(f"  factor value           = {f0:.6f}")
print(f"  capacity there         = {capacity_two_qubit_closed(p0, 'e'):.6f}")
print(f"  peak total rate for mu = (1, 0.5, 0.2): {max_capacity_rate(p0, 1.0, 0.5, 'e'):.6f}")

print()
print("Ancilla-assisted spectrum (p, (1-p)/3 x3)")
pt, ft = capacity_rate_factor_maximum("e", k=3)
cap = capacity_from_spectrum([pt] + [(1 - pt) / 3] * 3, "e").capacity
print(f"  best weight p~0 = {pt:.6f},  |factor| = {abs(ft):.6f},  C_E = {cap:.6f}")
print()
print("With mu3 > 0, ancillas raise both the interaction ceiling and the")
print("attainable state factor, so the peak capacity rate strictly improves.")
