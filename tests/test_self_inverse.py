import math

import numpy as np
import pytest

from entcap import core, self_inverse
from entcap.core import BipartitePureState, DensityOperator, DomainError, density_from_pure, haar_random_pure, partial_trace, von_neumann_entropy
from entcap.dynamics import evolve_matrix
from entcap.self_inverse import (
    CapacityRateBounds,
    SelfInverseHamiltonian,
    _check_involution,
    capacity_rate_bounds,
    evolve_self_inverse,
    liouville_rhs,
    max_entropy_rate_constant,
    operator_norm,
)

SZ = np.diag([1.0, -1.0])
SX = np.array([[0.0, 1.0], [1.0, 0.0]])
HADAMARD_LIKE = (SX + SZ) / math.sqrt(2)


class TestConstruction:
    def test_ising(self):
        ham = SelfInverseHamiltonian(SZ, SZ)
        assert np.allclose(ham.matrix(), np.kron(SZ, SZ))
        assert np.abs(ham.matrix() @ ham.matrix() - np.eye(4)).max() < 1e-9

    def test_hadamard_like_accepted(self):
        ham = SelfInverseHamiltonian(HADAMARD_LIKE, SX)
        assert np.abs(ham.matrix() @ ham.matrix() - np.eye(4)).max() < 1e-9

    def test_non_involutory_rejected_with_name(self):
        # checked at construction: H = diag(2, 1) ⊗ I does not square to I, so
        # its closed-form evolution would be wrong
        with pytest.raises(DomainError, match="X_A is not involutory"):
            SelfInverseHamiltonian(np.diag([2.0, 1.0]), np.eye(2))
        with pytest.raises(DomainError, match="X_B is not involutory"):
            SelfInverseHamiltonian(SZ, np.diag([1.0, 2.0]))
        with pytest.raises(DomainError, match="X_B is not Hermitian"):
            SelfInverseHamiltonian(SZ, np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_scalar_factors_must_be_matrices(self):
        # a stacked factor needs a stacked partner with the same leading axes
        with pytest.raises(DomainError, match="same leading axes"):
            SelfInverseHamiltonian(np.stack([SZ, SX]), SZ)
        with pytest.raises(DomainError, match="X_B must be a square matrix"):
            SelfInverseHamiltonian(SZ, np.ones((2, 3)))

    def test_factors_are_frozen_copies(self):
        # changing the caller's array afterwards cannot undo the involution check
        x = SZ.astype(complex)
        ham = SelfInverseHamiltonian(x, SX)
        x[0, 0] = 2.0
        assert np.array_equal(ham.matrix(), np.kron(SZ, SX))
        with pytest.raises(ValueError):
            ham.x_a[0, 0] = 2.0

    def test_stacked_matrix_is_kron_per_pair(self):
        rng = np.random.default_rng(11)
        x = TestStackedInvolutionCheck.stack()
        x_a, x_b = x, x[rng.permutation(len(x))]
        h = SelfInverseHamiltonian(x_a, x_b).matrix()
        assert h.shape == (len(x), 4, 4)
        for k in range(len(x)):
            assert np.array_equal(h[k], np.kron(x_a[k], x_b[k]))
            assert np.array_equal(SelfInverseHamiltonian(x_a[k], x_b[k]).matrix(), np.kron(x_a[k], x_b[k]))
        # a 2x2 factor with a 3x3 one: the product is 6x6
        assert np.array_equal(SelfInverseHamiltonian(SX, np.eye(3)).matrix(), np.kron(SX, np.eye(3)))


class TestStackedInvolutionCheck:
    @staticmethod
    def stack():
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((6, 2, 2)) + 1j * rng.standard_normal((6, 2, 2)))
        signs = np.array([[1.0, -1.0], [1.0, 1.0]])[np.arange(6) % 2]
        return (q * signs[:, None, :]) @ np.swapaxes(q.conj(), -1, -2)

    def test_valid_stack_passes(self):
        x = self.stack()
        np.testing.assert_array_equal(_check_involution(x, "X"), x)
        np.testing.assert_array_equal(_check_involution(np.stack([SZ, SX, HADAMARD_LIKE]), "X")[2], HADAMARD_LIKE)

    def test_one_non_hermitian_matrix_rejected(self):
        x = self.stack()
        x[4] = np.array([[0.0, 1.0], [1.0 + 1e-6j, 0.0]])
        with pytest.raises(DomainError, match="not Hermitian"):
            _check_involution(x, "X")

    def test_one_non_involutory_matrix_rejected(self):
        x = self.stack()
        x[1] = np.diag([1.0, 1.0 + 1e-6])
        with pytest.raises(DomainError, match="not involutory"):
            _check_involution(x, "X")


class TestEvolution:
    def test_time_zero_identity(self):
        ham = SelfInverseHamiltonian(SZ, SX)
        psi = haar_random_pure(2, 2, 0)
        assert np.allclose(evolve_self_inverse(ham, psi, 0.0).amplitudes, psi.amplitudes)

    def test_half_period_global_phase(self):
        ham = SelfInverseHamiltonian(SZ, SX)
        psi = haar_random_pure(2, 2, 1)
        out = evolve_self_inverse(ham, psi, math.pi)
        assert np.allclose(out.amplitudes, -psi.amplitudes, atol=1e-12)

    def test_full_period(self):
        ham = SelfInverseHamiltonian(HADAMARD_LIKE, HADAMARD_LIKE)
        psi = haar_random_pure(2, 2, 2)
        out = evolve_self_inverse(ham, psi, 2 * math.pi)
        assert np.allclose(out.amplitudes, psi.amplitudes, atol=1e-12)

    def test_needs_one_self_inverse_hamiltonian(self):
        from entcap.dynamics import NonlocalHamiltonian

        psi = haar_random_pure(2, 2, 4)
        stack = TestStackedInvolutionCheck.stack()
        for ham in (NonlocalHamiltonian(mu=(1.0, 0.5, 0.2)), np.kron(SZ, SX),
                    SelfInverseHamiltonian(stack, stack)):
            with pytest.raises(DomainError, match="unstacked SelfInverseHamiltonian"):
                evolve_self_inverse(ham, psi, 0.7)

    def test_matches_eigendecomposition_path(self):
        rng = np.random.default_rng(3)
        ham = SelfInverseHamiltonian(SZ, HADAMARD_LIKE)
        for _ in range(10):
            psi = haar_random_pure(2, 2, rng)
            t = rng.uniform(0.0, 4.0)
            closed = evolve_self_inverse(ham, psi, t).amplitudes
            generic = evolve_matrix(ham.matrix(), psi.amplitudes, t)
            assert np.abs(closed - generic).max() < 1e-10

    def test_ising_plus_plus_entropy_cross_path(self):
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        psi = BipartitePureState(np.kron(plus, plus), 2, 2)
        ham = SelfInverseHamiltonian(SZ, SZ)
        t = math.pi / 4
        closed = evolve_self_inverse(ham, psi, t)
        generic = evolve_matrix(ham.matrix(), psi.amplitudes, t)
        s_closed = von_neumann_entropy(partial_trace(density_from_pure(closed), "A"), 2)
        generic_state = BipartitePureState(generic / np.linalg.norm(generic), 2, 2)
        s_generic = von_neumann_entropy(partial_trace(density_from_pure(generic_state), "A"), 2)
        assert s_closed == pytest.approx(s_generic, abs=1e-10)
        assert s_closed == pytest.approx(1.0, abs=1e-10)  # CZ-like kick entangles |++> maximally


class TestLiouville:
    def test_commuting_zero(self):
        rho = DensityOperator(np.diag([0.4, 0.1, 0.3, 0.2]), d_a=2, d_b=2)
        h = np.kron(SZ, SZ)
        assert np.abs(liouville_rhs(h, rho)).max() < 1e-14

    def test_traceless_hermitian(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = DensityOperator((g @ g.conj().T) / np.trace(g @ g.conj().T).real, d_a=2, d_b=2)
        ham = SelfInverseHamiltonian(SZ, SX)
        rhs = liouville_rhs(ham, rho)
        assert abs(np.trace(rhs)) < 1e-12
        assert np.abs(rhs - rhs.conj().T).max() < 1e-12

    def test_finite_difference_of_evolution(self):
        ham = SelfInverseHamiltonian(SZ, HADAMARD_LIKE)
        psi = haar_random_pure(2, 2, 5)
        t, h = 0.6, 1e-6
        rho_t = density_from_pure(evolve_self_inverse(ham, psi, t))
        rho_p = density_from_pure(evolve_self_inverse(ham, psi, t + h)).matrix
        rho_m = density_from_pure(evolve_self_inverse(ham, psi, t - h)).matrix
        fd = (rho_p - rho_m) / (2 * h)
        assert np.abs(fd - liouville_rhs(ham, rho_t)).max() < 1e-6


class TestHamiltonianTypes:
    # every function that takes a Hamiltonian takes either Hamiltonian type or
    # its matrix, and gives the same numbers for all three
    def test_self_inverse_in_dynamics_and_speed_limits(self):
        from entcap.dynamics import max_entangling_element_numeric, simulate_trajectory
        from entcap.speed_limits import fubini_study_speed, hamiltonian_fluctuation

        ham = SelfInverseHamiltonian(SX, SZ)
        psi = haar_random_pure(2, 2, 8)
        ts = np.linspace(0.0, 2.0, 9)
        traj = simulate_trajectory(ham, psi, ts)
        for t, entropy in zip(ts, traj.entropy):
            evolved = density_from_pure(evolve_self_inverse(ham, psi, t))
            assert abs(entropy - von_neumann_entropy(partial_trace(evolved, "A"))) <= 1e-12
        # the type takes its own closed form, the one evolve_self_inverse takes, and its
        # matrix the eigensystem route: equal in every bit to the first, to round-off to the second
        dense = simulate_trajectory(ham.matrix(), psi, ts)
        for k, t in enumerate(ts):
            assert np.array_equal(traj.amplitudes[k], evolve_self_inverse(ham, psi, t).amplitudes)
        for name in ("amplitudes", "schmidt_weights", "entropy", "capacity", "gamma", "gamma_capacity", "delta_h"):
            assert np.abs(getattr(traj, name) - getattr(dense, name)).max() <= 1e-12, name
        assert hamiltonian_fluctuation(ham, psi) == hamiltonian_fluctuation(ham.matrix(), psi)
        assert fubini_study_speed(ham, psi) == fubini_study_speed(ham.matrix(), psi)
        assert max_entangling_element_numeric(ham) == max_entangling_element_numeric(ham.matrix())

    def test_nonlocal_in_self_inverse(self):
        from entcap.dynamics import NonlocalHamiltonian

        ham = NonlocalHamiltonian(mu=(1.0, 0.5, 0.2), sign=-1)
        rng = np.random.default_rng(6)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = DensityOperator((g @ g.conj().T) / np.trace(g @ g.conj().T).real, d_a=2, d_b=2)
        assert np.array_equal(liouville_rhs(ham, rho), liouville_rhs(ham.matrix(), rho))
        assert operator_norm(ham) == operator_norm(ham.matrix()) == pytest.approx(1.7, abs=1e-12)

    def test_equality_is_identity_and_hashable(self):
        # array fields give no truth value, so == compares identity and hash() works
        from entcap.dynamics import NonlocalHamiltonian

        for make in (lambda: NonlocalHamiltonian(mu=(1.0, 0.5, 0.2)), lambda: SelfInverseHamiltonian(SX, SZ)):
            a, b = make(), make()
            assert a == a and a != b
            assert len({a, b, a}) == 2 and hash(a) == hash(a)

    def test_non_square_matrix_rejected(self):
        from entcap.speed_limits import hamiltonian_fluctuation

        with pytest.raises(DomainError):
            operator_norm(np.ones(4))
        with pytest.raises(DomainError):
            hamiltonian_fluctuation(np.ones((4, 2)), haar_random_pure(2, 2, 1))


class TestRateConstant:
    def test_base2_value(self):
        assert max_entropy_rate_constant(2) == pytest.approx(1.9123, abs=1e-4)

    def test_base_e_value(self):
        assert max_entropy_rate_constant("e") == pytest.approx(1.3255, abs=1e-4)

    def test_base_ratio_exact(self):
        assert max_entropy_rate_constant(2) == pytest.approx(
            max_entropy_rate_constant("e") / math.log(2), abs=1e-10
        )

    def test_stationarity_residual(self):
        # beta_e = 2 sqrt(u^2 - 1) at the root of u tanh(u) = 1; the reference
        # value is the correctly rounded maximum
        beta = max_entropy_rate_constant("e")
        u = math.sqrt(1.0 + (beta / 2.0) ** 2)
        assert abs(u * math.tanh(u) - 1.0) <= 1e-15
        assert abs(beta - 1.3254868386983631) <= 4.4e-16

    @pytest.mark.parametrize("base", [2, "2", "e"])
    def test_cached_value_equals_fresh_bisection(self, monkeypatch, base):
        # the cached natural-log value divided by the base's scale keeps the
        # bits of the one-expression, uncached form
        u = core._bisect(lambda u: u * math.tanh(u) - 1.0, 1.0, 2.0)
        assert max_entropy_rate_constant(base) == 2.0 * u / math.cosh(u) / core.log_scale(base)
        calls = []
        monkeypatch.setattr(self_inverse, "_bisect", lambda *a: calls.append(a))
        max_entropy_rate_constant(base)
        assert calls == []


class TestBounds:
    def test_zero_rate_zero_first_bound(self):
        b = capacity_rate_bounds(2, gamma=0.0, capacity=0.3, speed=1.0, op_norm=1.0, d=2, base=2)
        assert b.entanglement_rate_bound == 0.0

    def test_ising_self_inverse_bound(self):
        b = capacity_rate_bounds(2, gamma=0.1, capacity=0.3, speed=1.0, op_norm=1.0, d=2, base=2)
        assert b.self_inverse_bound == pytest.approx(4 * 1.9123, abs=4e-4)
        assert b.self_inverse_bound == pytest.approx(7.649, abs=2e-3)

    @pytest.mark.parametrize("field, bad", [("capacity", -0.1), ("op_norm", -1.0)] + [
        (field, bad) for field in ("gamma", "capacity", "speed", "op_norm")
        for bad in (np.nan, np.array([0.2, np.nan]))
    ] + [(field, np.inf) for field in ("gamma", "capacity", "speed", "op_norm")])
    def test_negative_or_nan_input_rejected(self, field, bad):
        # NaN fails every comparison, so it must not slip past the sign check
        inputs = {**dict(gamma=0.1, capacity=0.3, speed=1.0, op_norm=1.0), field: bad}
        with pytest.raises(DomainError, match="must be finite and non-negative"):
            capacity_rate_bounds(2, **inputs, d=2, base=2)

    def test_operator_norm(self):
        assert operator_norm(np.eye(3)) == 1.0
        assert operator_norm(np.kron(SZ, SZ)) == 1.0
        assert operator_norm(np.diag([3.0, -5.0])) == 5.0
        assert operator_norm(SelfInverseHamiltonian(SZ, SX)) == pytest.approx(1.0, abs=1e-12)

    def test_operator_norm_canonical_interaction(self):
        # eigen oracle: the 4x4 canonical matrix with mu = (1, 0.5, 0.2) has
        # block eigenvalues mu3 ± (mu1-mu2) and -mu3 ± (mu1+mu2)
        from entcap.dynamics import NonlocalHamiltonian

        ham = NonlocalHamiltonian(mu=(1.0, 0.5, 0.2))
        w = np.linalg.eigvalsh(ham.matrix())
        assert np.allclose(np.sort(w), [-1.7, -0.3, 0.7, 1.3], atol=1e-12)
        assert operator_norm(ham.matrix()) == pytest.approx(1.7, abs=1e-12)


class TestBoundSweep:
    def test_rate_bound_rigorous_along_self_inverse(self):
        # hard: |Gamma| <= 2 sqrt(C) Delta H along self-inverse evolutions;
        # the capacity-rate chain is derivational and only counted
        from entcap.measures import capacity_from_spectrum
        from entcap.core import schmidt_decompose, spectrum_entropy
        from entcap.speed_limits import hamiltonian_fluctuation

        rng = np.random.default_rng(7)
        chain_violations = np.zeros(4, dtype=int)
        samples = 0
        for _ in range(40):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            q, _ = np.linalg.qr(g)
            x_a = q @ np.diag([1.0, -1.0]) @ q.conj().T
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            q, _ = np.linalg.qr(g)
            x_b = q @ np.diag([1.0, -1.0]) @ q.conj().T
            ham = SelfInverseHamiltonian(0.5 * (x_a + x_a.conj().T), 0.5 * (x_b + x_b.conj().T))
            psi = haar_random_pure(2, 2, rng)
            for t in (0.2, 0.8):
                step = 1e-6

                def diag_at(tt):
                    state = evolve_self_inverse(ham, psi, tt)
                    w, _, _ = schmidt_decompose(state)
                    return spectrum_entropy(w, "e"), capacity_from_spectrum(w, "e").capacity

                s_p, c_p = diag_at(t + step)
                s_m, c_m = diag_at(t - step)
                gamma = (s_p - s_m) / (2 * step)
                gamma_c = (c_p - c_m) / (2 * step)
                state = evolve_self_inverse(ham, psi, t)
                _, cap = diag_at(t)
                dh = hamiltonian_fluctuation(ham.matrix(), state)
                assert abs(gamma) <= 2.0 * math.sqrt(cap) * dh + 1e-6
                bounds = capacity_rate_bounds(2, gamma=abs(gamma), capacity=cap,
                                              speed=2 * dh, op_norm=1.0, d=2, base="e")
                vals = (bounds.entanglement_rate_bound, bounds.speed_bound,
                        bounds.norm_bound, bounds.self_inverse_bound)
                chain_violations += np.array([abs(gamma_c) > b + 1e-6 for b in vals])
                samples += 1
        assert samples == 80
        # the loosest, state-independent bound should never be beaten
        assert chain_violations[3] == 0
