import math

import numpy as np
import pytest

from entcap.core import _PAULI, BipartitePureState, DomainError, haar_random_pure, spectrum_entropy
from entcap.dynamics import (
    NonlocalHamiltonian,
    _canonical_matrices,
    _eigensystem,
    canonical_form,
    capacity_rate_factor,
    capacity_rate_factor_maximum,
    evolve_matrix,
    evolved_schmidt_weights,
    max_capacity_rate,
    max_entangling_element,
    max_entangling_element_ancilla,
    max_entangling_element_numeric,
    qubit_orthocomplement,
    simulate_trajectory,
)
from entcap.measures import capacity_from_spectrum

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
BELL = BipartitePureState(np.array([1.0, 0, 0, 1.0]) / np.sqrt(2), 2, 2)


def two_term_state(p):
    return BipartitePureState(np.array([np.sqrt(p), 0, 0, np.sqrt(1 - p)]), 2, 2)


def max_rate_amplitudes(p):
    """sqrt(p)|01> + i sqrt(1-p)|10>, which attains the largest rates at Schmidt weight p."""
    return np.array([0.0, np.sqrt(p), 1j * np.sqrt(1.0 - p), 0.0])


def random_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


class TestCanonicalForm:
    def test_diagonal_coupling(self):
        ham = canonical_form(np.zeros(3), np.zeros(3), np.diag([1.0, 0.5, 0.2]))
        assert ham.mu == pytest.approx((1.0, 0.5, 0.2))
        assert ham.sign == 1

    def test_svd_invariance(self):
        rng = np.random.default_rng(0)
        base = np.diag([1.0, 0.5, 0.2])
        for _ in range(20):
            gamma = random_rotation(rng) @ base @ random_rotation(rng).T
            ham = canonical_form(np.zeros(3), np.zeros(3), gamma)
            assert np.allclose(ham.mu, (1.0, 0.5, 0.2), atol=1e-10)

    def test_zero_coupling(self):
        ham = canonical_form(np.ones(3), np.ones(3), np.zeros((3, 3)))
        assert np.array_equal(ham.mu, (0.0, 0.0, 0.0))
        assert ham.sign == 1

    def test_negative_determinant(self):
        ham = canonical_form(np.zeros(3), np.zeros(3), np.diag([1.0, 0.5, -0.2]))
        assert ham.sign == -1
        assert ham.mu == pytest.approx((1.0, 0.5, 0.2))

    def test_mu_ordering_enforced(self):
        with pytest.raises(DomainError):
            NonlocalHamiltonian(mu=(0.5, 1.0, 0.2))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_stacked_matrices_match_each_hamiltonian(self, sign):
        rng = np.random.default_rng(2)
        mu = np.sort(rng.uniform(0.0, 2.0, (7, 3)), axis=-1)[:, ::-1]
        mu[3] = (1.0, 1.0, 0.0)
        stack = _canonical_matrices(mu, sign)
        assert stack.shape == (7, 4, 4)
        for m, h in zip(mu, stack):
            assert np.array_equal(h, NonlocalHamiltonian(mu=tuple(m.tolist()), sign=sign).matrix())

    @pytest.mark.parametrize("sign", [1, -1])
    def test_pauli_sum_equals_explicit_entries(self, sign):
        # the Pauli sum adds only exact zeros and exact ±1 products to each entry,
        # so it keeps the written-out bits: ZZ on the diagonal, XX and YY on the anti-diagonal
        rng = np.random.default_rng(11)
        n = 4000
        mu = np.sort(rng.uniform(0.0, 2.0, (n, 3)), axis=-1)[:, ::-1] * 10.0 ** rng.integers(-8, 9, (n, 1))
        mu[::5, 2] = 0.0
        mu[::7, 1] = mu[::7, 2]
        m1, m2, m3 = mu.T
        ref = np.zeros((n, 4, 4), dtype=complex)
        ref[:, 0, 0] = ref[:, 3, 3] = m3
        ref[:, 1, 1] = ref[:, 2, 2] = -m3
        ref[:, 0, 3] = ref[:, 3, 0] = m1 - sign * m2
        ref[:, 1, 2] = ref[:, 2, 1] = m1 + sign * m2
        assert np.array_equal(_canonical_matrices(mu, sign), ref)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_bell_eigensystem_rebuilds_the_matrix(self, sign):
        # closed-form eigenvalues in the one shared Bell basis, for one triple
        # and for a stack, at degenerate and near-degenerate couplings too
        rng = np.random.default_rng(4)
        mu = np.sort(rng.uniform(0.0, 2.0, (9, 3)), axis=-1)[:, ::-1]
        mu[:3] = [(1.0, 1.0, 1.0), (1.0, 0.0, 0.0), (2.0, 1e-9, 0.0)]
        w, v = _eigensystem(NonlocalHamiltonian(mu=mu, sign=sign))
        assert w.shape == (9, 4) and v.shape == (4, 4)
        assert np.abs(v.conj().T @ v - np.eye(4)).max() <= 1e-15
        assert np.abs((v * w[:, None, :]) @ v.conj().T - _canonical_matrices(mu, sign)).max() <= 1e-15
        for m, w_row in zip(mu, w):
            w_one, v_one = _eigensystem(NonlocalHamiltonian(mu=tuple(m.tolist()), sign=sign))
            assert np.array_equal(w_one, w_row) and v_one is v
            assert np.abs((v * w_one) @ v.conj().T - _canonical_matrices(m, sign)).max() <= 1e-15

    def test_stack_with_one_unordered_row_rejected(self):
        mu = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.2], [1.0, 0.5, 0.2]])
        with pytest.raises(DomainError, match=r"got \(0.5, 1.0, 0.2\)"):
            _canonical_matrices(mu)
        with pytest.raises(DomainError):
            _canonical_matrices(np.array([[1.0, 0.5, -1e-300]]))

    def test_couplings_are_a_frozen_copy(self):
        # the caller's array is checked once and copied: changing it later, or
        # writing to the kept stack, cannot reach the evolution unchecked
        mu = np.array([[1.0, 0.5, 0.2], [2.0, 1.0, 0.0]])
        ham = NonlocalHamiltonian(mu=mu)
        mu[0] = (-3.0, 2.0, 5.0)
        assert np.array_equal(ham.mu, [[1.0, 0.5, 0.2], [2.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="read-only"):
            ham.mu[0, 0] = -3.0
        triple = np.array([1.0, 0.5, 0.2])
        single = NonlocalHamiltonian(mu=triple)
        triple[0] = -3.0
        assert np.array_equal(single.mu, (1.0, 0.5, 0.2))
        with pytest.raises(ValueError, match="read-only"):
            single.mu[0] = -3.0

    def test_raw_matrix_matches_canonical_for_diagonal(self):
        ham = canonical_form(np.zeros(3), np.zeros(3), np.diag([1.0, 0.5, 0.2]))
        assert np.allclose(ham.raw_matrix(), ham.matrix(), atol=1e-12)

    def test_raw_matrix_is_the_pauli_sum(self):
        rng = np.random.default_rng(3)
        alpha, beta, gamma = rng.standard_normal(3), rng.standard_normal(3), rng.standard_normal((3, 3))
        paulis, eye = _PAULI[1:], np.eye(2)
        expected = sum(alpha[k] * np.kron(paulis[k], eye) + beta[k] * np.kron(eye, paulis[k])
                       + sum(gamma[k, j] * np.kron(paulis[k], paulis[j]) for j in range(3))
                       for k in range(3))
        # summed in another order: a few ulps of the largest entry
        dev = np.abs(canonical_form(alpha, beta, gamma).raw_matrix() - expected).max()
        assert dev <= 8 * np.finfo(float).eps * np.abs(expected).max()

    def test_negative_branch_matrix(self):
        ham = NonlocalHamiltonian(mu=(1.0, 0.5, 0.2), sign=-1)
        x, y, z = _PAULI[1:]
        expected = np.kron(x, x) - 0.5 * np.kron(y, y) + 0.2 * np.kron(z, z)
        assert np.allclose(ham.matrix(), expected, atol=1e-14)
        # the negative branch still evolves unitarily
        psi = haar_random_pure(2, 2, 8)
        evolved = evolve_matrix(ham.matrix(), psi.amplitudes, 0.7)
        assert abs(np.linalg.norm(evolved) - 1.0) < 1e-12
        assert np.abs(simulate_trajectory(ham, psi, [0.7]).amplitudes[0] - evolved).max() < 1e-12


class TestEvolution:
    def test_identity_at_zero(self):
        ham = NonlocalHamiltonian(mu=(1.0, 0.5, 0.2))
        psi = haar_random_pure(2, 2, 3)
        assert np.allclose(simulate_trajectory(ham, psi, [0.0]).amplitudes[0], psi.amplitudes, atol=1e-14)

    def test_closed_form_weights(self):
        ham = NonlocalHamiltonian(mu=(1.0, 0.45, 0.3))
        p = 0.3
        traj = simulate_trajectory(ham, two_term_state(p), [0.2, 0.7, 1.9])
        for t, spec in zip(traj.times, traj.schmidt_weights):
            l1, l2 = evolved_schmidt_weights(p, ham.mu[0] - ham.mu[1], t)
            assert np.abs(np.sort(spec) - np.sort([l1, l2])).max() < 1e-10

    def test_heisenberg_point_fixes_bell(self):
        ham = NonlocalHamiltonian(mu=(1.0, 1.0, 1.0))
        traj = simulate_trajectory(ham, BELL, [0.3, 1.1, 2.5])
        assert np.allclose(traj.schmidt_weights, 0.5, atol=1e-10)

    def test_norm_preserved(self):
        ham = NonlocalHamiltonian(mu=(1.7, 0.6, 0.1))
        psi = haar_random_pure(2, 2, 4)
        evolved = evolve_matrix(ham.matrix(), psi.amplitudes, 2.3)
        assert abs(np.linalg.norm(evolved) - 1.0) < 1e-12
        assert np.abs(simulate_trajectory(ham, psi, [2.3]).amplitudes[0] - evolved).max() < 1e-12

    def test_dimension_guard(self):
        ham = NonlocalHamiltonian(mu=(1.0, 0.5, 0.2))
        with pytest.raises(DomainError):
            simulate_trajectory(ham, haar_random_pure(2, 3, 0), [0.1])


class TestEvolvedWeights:
    def test_time_zero(self):
        l1, l2 = evolved_schmidt_weights(0.3, 0.7, 0.0)
        assert (l1, l2) == pytest.approx((0.3, 0.7))

    def test_quarter_period(self):
        l1, l2 = evolved_schmidt_weights(1.0, 0.5, math.pi / 2)
        assert (l1, l2) == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_balanced_frozen(self):
        for t in (0.0, 0.4, 2.0):
            assert evolved_schmidt_weights(0.5, 1.3, t) == pytest.approx((0.5, 0.5))


class TestSchmidtWeightRate:
    # the trajectory's exact entropy rate Gamma = (dlam/dt) ln(lam_+/lam_-)
    def test_diagonal_hamiltonian_zero(self):
        h = np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))
        traj = simulate_trajectory(h, two_term_state(0.3), np.linspace(0.0, 2.0, 5))
        assert np.abs(traj.gamma).max() <= 1e-15 and np.abs(traj.gamma_capacity).max() <= 1e-15

    def test_pauli_arithmetic_value(self):
        # from sqrt(p)|01> + i sqrt(1-p)|10>, dp/dt = 2 sqrt(p(1-p)) (mu1 + mu2)
        ham = NonlocalHamiltonian(mu=(1.0, 0.5, 0.2))
        for p in (0.1, 0.3, 0.45):
            gamma = simulate_trajectory(ham, max_rate_amplitudes(p), [0.0]).gamma[0]
            assert gamma / math.log((1 - p) / p) == pytest.approx(1.5 * 2 * math.sqrt(p * (1 - p)), abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_extreme_weights_zero(self, p):
        ham = NonlocalHamiltonian(mu=(1.0, 0.5, 0.2))
        traj = simulate_trajectory(ham, max_rate_amplitudes(p), [0.0])
        assert traj.gamma[0] == traj.gamma_capacity[0] == 0.0

    def test_matches_finite_difference(self):
        # the diagonal family's entropy rate against a central difference of
        # the closed-form weights
        ham = NonlocalHamiltonian(mu=(1.2, 0.4, 0.15))
        p0, step = 0.3, 1e-6
        traj = simulate_trajectory(ham, two_term_state(p0), [0.15, 0.6, 1.4])
        for t, gamma in zip(traj.times, traj.gamma):
            sp = spectrum_entropy(evolved_schmidt_weights(p0, ham.mu[0] - ham.mu[1], t + step))
            sm = spectrum_entropy(evolved_schmidt_weights(p0, ham.mu[0] - ham.mu[1], t - step))
            assert gamma == pytest.approx((sp - sm) / (2 * step), abs=1e-6)


class TestEntanglingElement:
    def test_canonical_orthocomplement(self):
        v = np.array([0.6, 0.8j])
        perp = qubit_orthocomplement(v)
        assert abs(np.vdot(v, perp)) < 1e-15
        assert abs(np.linalg.norm(perp) - 1.0) < 1e-15

    def test_magnitude_reaches_mu_sum(self):
        ham = NonlocalHamiltonian(mu=(1.0, 0.5, 0.2))
        h4 = ham.matrix().reshape(2, 2, 2, 2)
        val = np.einsum("i,j,ijkl,k,l->", KET0, KET1, h4, qubit_orthocomplement(KET0), qubit_orthocomplement(KET1))
        # canonical orthocomplement of |1> is -|0>, flipping the element's sign
        assert val == pytest.approx(-1.5, abs=1e-12)

    def test_zero_hamiltonian(self):
        assert max_entangling_element_numeric(np.zeros((4, 4))) == 0.0

    def test_local_terms_do_not_contribute(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            ham = canonical_form(rng.standard_normal(3), rng.standard_normal(3), np.zeros((3, 3)))
            assert max_entangling_element_numeric(ham.raw_matrix()) < 1e-12

    def test_bounded_by_max(self):
        rng = np.random.default_rng(6)
        for _ in range(3):
            mu = np.sort(rng.uniform(0, 2, 3))[::-1]
            ham = NonlocalHamiltonian(mu=tuple(mu))
            h4 = ham.matrix().reshape(2, 2, 2, 2)
            bound = max_entangling_element(ham)
            phis = rng.standard_normal((10000, 2)) + 1j * rng.standard_normal((10000, 2))
            chis = rng.standard_normal((10000, 2)) + 1j * rng.standard_normal((10000, 2))
            phis /= np.linalg.norm(phis, axis=1)[:, None]
            chis /= np.linalg.norm(chis, axis=1)[:, None]
            phi_perp = np.stack([-phis[:, 1].conj(), phis[:, 0].conj()], axis=1)
            chi_perp = np.stack([-chis[:, 1].conj(), chis[:, 0].conj()], axis=1)
            vals = np.abs(np.einsum("ni,nj,ijkl,nk,nl->n",
                                    phis.conj(), chis.conj(), h4, phi_perp, chi_perp))
            assert vals.max() <= bound + 1e-9


class TestMaxEntanglingElement:
    def test_values(self):
        ham = NonlocalHamiltonian(mu=(1.0, 0.5, 0.2))
        assert max_entangling_element(ham) == 1.5
        assert max_entangling_element_ancilla(ham) == 1.7
        assert max_entangling_element(NonlocalHamiltonian(mu=(0.0, 0.0, 0.0))) == 0.0
        assert max_entangling_element_ancilla(NonlocalHamiltonian(mu=(1.0, 1.0, 1.0))) == 3.0

    def test_ancilla_reduces_without_mu3(self):
        ham = NonlocalHamiltonian(mu=(1.3, 0.7, 0.0))
        assert max_entangling_element_ancilla(ham) == max_entangling_element(ham)

    def test_numeric_maximization_agrees(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            mu = np.sort(rng.uniform(0, 2, 3))[::-1]
            ham = NonlocalHamiltonian(mu=tuple(mu))
            assert max_entangling_element_numeric(ham) == pytest.approx(
                max_entangling_element(ham), abs=1e-12
            )

    def test_numeric_maximization_off_grid(self):
        # local fields and a rotated coupling matrix
        rng = np.random.default_rng(5)
        for _ in range(4):
            ham = canonical_form(rng.standard_normal(3), rng.standard_normal(3), rng.standard_normal((3, 3)))
            assert max_entangling_element_numeric(ham.raw_matrix()) == pytest.approx(
                max_entangling_element(ham), abs=1e-12
            )

    @pytest.mark.parametrize("d", [2, 6])
    def test_numeric_rejects_other_dimensions(self, d):
        # a Hermitian 2x2 or 6x6 matrix is no two-qubit Hamiltonian: a DomainError naming its dimension
        with pytest.raises(DomainError, match=f"dimension {d}"):
            max_entangling_element_numeric(np.diag(np.arange(float(d))))

    def test_numeric_rejects_stacks(self):
        # one Hamiltonian only: a (3, 4, 4) array or a NonlocalHamiltonian over an (N, 3) mu
        # is a DomainError naming the shape, not numpy's reshape error
        raw = np.stack([NonlocalHamiltonian(mu=(1.0, 0.5, 0.2)).matrix()] * 3)
        with pytest.raises(DomainError, match=r"one 4x4 Hamiltonian; got shape \(3, 4, 4\)"):
            max_entangling_element_numeric(raw)
        stacked = NonlocalHamiltonian(mu=[(1.0, 0.5, 0.2), (2.0, 1.0, 0.0)])
        with pytest.raises(DomainError, match=r"one 4x4 Hamiltonian; got shape \(2, 4, 4\)"):
            max_entangling_element_numeric(stacked)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_numeric_maximization_under_local_unitaries(self, seed):
        # Haar-random U_A ⊗ U_B on canonical couplings, degenerate and
        # near-degenerate ones included, then raw matrices with local fields
        rng = np.random.default_rng(seed)

        def haar_su2():
            a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v = np.array([a, b]) / math.hypot(abs(a), abs(b))
            return np.column_stack([v, qubit_orthocomplement(v)])

        for mu in [(2.0, 1e-9, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)]:
            for sign in (1, -1):
                u = np.kron(haar_su2(), haar_su2())
                h = u @ NonlocalHamiltonian(mu=mu, sign=sign).matrix() @ u.conj().T
                assert abs(max_entangling_element_numeric(h) - (mu[0] + mu[1])) <= 1e-12
        for _ in range(6):
            ham = canonical_form(rng.standard_normal(3), rng.standard_normal(3), rng.standard_normal((3, 3)))
            assert abs(max_entangling_element_numeric(ham.raw_matrix()) - max_entangling_element(ham)) <= 1e-12


class TestRateFactors:
    def test_balanced_zero(self):
        assert capacity_rate_factor(0.5, "e") == 0.0

    def test_endpoints_zero(self):
        assert capacity_rate_factor(0.0, "e") == 0.0
        assert capacity_rate_factor(1.0, "e") == 0.0

    @pytest.mark.parametrize("base", ["e", 2])
    @pytest.mark.parametrize("k", [1, 3])
    def test_maximum_matches_dense_grid(self, k, base):
        # dense-grid oracle: the stationary-point rule finds the grid's
        # maximizer and a value no grid point beats
        ps = np.linspace(0.0, 1.0, 10**6)
        vals = capacity_rate_factor(ps, base, k)
        p0, val = capacity_rate_factor_maximum(base, k)
        assert val == capacity_rate_factor(p0, base, k)
        assert val >= vals.max() - 1e-15
        assert abs(p0 - ps[np.argmax(vals)]) <= 1e-6

    def test_maximum_reported_values(self):
        p0, val = capacity_rate_factor_maximum("e")
        assert 0.003 < p0 < 0.008
        # direct evaluation of the printed rate expression is exactly twice
        # the reported 1.2108
        assert val == pytest.approx(2 * 1.2108, abs=2e-3)

    def test_extremum_structure_below_half(self):
        # grid oracle: exactly one positive maximum and one negative minimum
        # on (0, 1/2)
        ps = np.linspace(1e-6, 0.5 - 1e-6, 200001)
        vals = capacity_rate_factor(ps, "e")
        turns = np.where(np.diff(np.sign(np.diff(vals))) != 0)[0]
        assert len(turns) == 2
        assert vals[turns[0]] > 0.0 > vals[turns[1]]

    def test_ancilla_quarter_zero(self):
        assert capacity_rate_factor(0.25, "e", k=3) == pytest.approx(0.0, abs=1e-14)

    def test_ancilla_reported_values(self):
        assert abs(capacity_rate_factor(0.6036, "e", k=3)) == pytest.approx(1.4459, abs=1e-3)
        p = 0.6036
        cap = capacity_from_spectrum([p] + [(1 - p) / 3] * 3, "e").capacity
        assert cap == pytest.approx(0.5523, abs=1e-3)


class TestMaxCapacityRate:
    def test_balanced_zero(self):
        assert max_capacity_rate(0.5, 1.0, 1.0, "e") == 0.0

    def test_factorization(self):
        assert max_capacity_rate(0.0045, 1.0, 1.0, "e") == pytest.approx(
            2.0 * capacity_rate_factor(0.0045, "e"), abs=1e-12
        )

    def test_trajectory_rate_at_zero(self):
        # the exact dC/dt of simulate_trajectory from the maximizing state, in
        # both bases: the base-2 factor is the rate of the capacity in bits
        mu1, mu2, mu3 = 1.0, 0.5, 0.2
        ham = NonlocalHamiltonian(mu=(mu1, mu2, mu3))
        for base in (2, "e"):
            for p in (0.0045, 0.1, 0.35, 0.6, 0.9):
                rate = simulate_trajectory(ham, max_rate_amplitudes(p), [0.0], base).gamma_capacity[0]
                assert abs(rate - max_capacity_rate(p, mu1, mu2, base)) <= 1e-13


class TestSpectrumCapacityRate:
    def test_reproduces_ancilla_factor(self):
        # lambda = (p, q/3, q/3, q/3) with dp/dt scaled out reproduces the
        # ancilla rate factor through the capacity gradient
        # dC/dlambda_n = log^2 lambda_n + 2 log lambda_n + 2 S (log lambda_n + 1)
        for p in (0.1, 0.45, 0.6036, 0.9):
            q = 1.0 - p
            w = np.array([p, q / 3, q / 3, q / 3])
            lw = np.log(w)
            grad = lw**2 + 2.0 * lw + 2.0 * spectrum_entropy(w) * (lw + 1.0)
            rates = 2.0 * math.sqrt(p * q / 3.0) * np.array([1.0, -1 / 3, -1 / 3, -1 / 3])
            assert grad @ rates == pytest.approx(capacity_rate_factor(p, "e", k=3), abs=1e-10)


class TestClosedFormConsistency:
    def test_capacity_matches_artanh_form(self):
        from entcap.speed_limits import family_sqrt_capacity

        for p in np.linspace(0, 1, 7):
            for theta in (0.5, 1.0):
                for t in np.linspace(0.0, 1.5, 7):
                    l1, l2 = evolved_schmidt_weights(p, theta, t)
                    cap = capacity_from_spectrum([l1, l2], 2).capacity
                    assert cap == pytest.approx(
                        family_sqrt_capacity(p, theta, t) ** 2, abs=1e-10
                    )


class TestTrajectory:
    def test_diagnostics(self):
        ham = NonlocalHamiltonian(mu=(1.0, 0.4, 0.1))
        psi = two_term_state(0.85)
        times = np.linspace(0.0, 1.2, 7)
        traj = simulate_trajectory(ham, psi, times, base=2)
        assert np.abs(traj.schmidt_weights.sum(axis=1) - 1.0).max() < 1e-10
        assert np.all(traj.entropy >= -1e-12) and np.all(traj.entropy <= 1.0 + 1e-9)
        cap_max = 0.4392288398881478 / math.log(2) ** 2  # two-term maximum, base 2
        assert np.all(traj.capacity <= cap_max + 1e-9)
        # rates agree with the closed-form time derivatives
        for i, t in enumerate(times):
            step = 1e-6
            sp = capacity_from_spectrum(evolved_schmidt_weights(0.85, ham.mu[0] - ham.mu[1], t + step), 2)
            sm = capacity_from_spectrum(evolved_schmidt_weights(0.85, ham.mu[0] - ham.mu[1], t - step), 2)
            assert traj.gamma[i] == pytest.approx((sp.entropy - sm.entropy) / (2 * step), abs=1e-4)
            assert traj.gamma_capacity[i] == pytest.approx((sp.capacity - sm.capacity) / (2 * step), abs=1e-4)

    def test_entropy_capacity_recomputable(self):
        from entcap.core import spectrum_entropy

        ham = NonlocalHamiltonian(mu=(0.9, 0.2, 0.0))
        traj = simulate_trajectory(ham, haar_random_pure(2, 2, 12), np.linspace(0, 1, 5), base="e")
        for i in range(5):
            w = traj.schmidt_weights[i]
            assert traj.entropy[i] == pytest.approx(spectrum_entropy(w, "e"), abs=1e-10)
            assert traj.capacity[i] == pytest.approx(capacity_from_spectrum(w, "e").capacity, abs=1e-10)
