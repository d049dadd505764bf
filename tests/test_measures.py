import math

import numpy as np
import pytest

from entcap.core import (
    BipartitePureState,
    DensityOperator,
    DomainError,
    density_from_pure,
    haar_random_pure,
    partial_trace,
    von_neumann_entropy,
)
from entcap.measures import (
    _spectrum_capacity,
    capacity_from_spectrum,
    capacity_of,
    capacity_pure,
    capacity_two_qubit_closed,
    is_flat,
    modular_hamiltonian,
    observable_variance,
    smallest_continuity_constant,
    smallest_subadditivity_constant,
    solve_max_variance_spectrum,
)
from entcap.verify import _random_density

BELL = BipartitePureState(np.array([1.0, 0, 0, 1.0]) / np.sqrt(2), 2, 2)


def random_density(rng, d, d_a=None, d_b=None):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real, d_a=d_a, d_b=d_b)


def two_term_state(p):
    return BipartitePureState(np.array([np.sqrt(p), 0, 0, np.sqrt(1 - p)]), 2, 2)


def std(obs, rho):
    """Standard deviation of an observable in a state."""
    return math.sqrt(observable_variance(obs, rho))


class TestModularHamiltonian:
    def test_uniform(self):
        k = modular_hamiltonian(DensityOperator(np.eye(2) / 2), "e")
        assert np.allclose(k, np.log(2) * np.eye(2), atol=1e-12)

    def test_pure_projector_zero_on_support(self):
        k = modular_hamiltonian(DensityOperator(np.diag([1.0, 0.0])), "e")
        assert np.allclose(k, np.zeros((2, 2)), atol=1e-14)

    def test_scalar_logs_base2(self):
        k = modular_hamiltonian(DensityOperator(np.diag([0.25, 0.75])), 2)
        assert np.allclose(k, np.diag([2.0, -math.log2(0.75)]), atol=1e-12)

    def test_expectation_is_entropy(self):
        rng = np.random.default_rng(0)
        for base in (2, "e"):
            for _ in range(10):
                rho = random_density(rng, 4)
                k = modular_hamiltonian(rho, base)
                assert np.trace(rho.matrix @ k).real == pytest.approx(
                    von_neumann_entropy(rho, base), abs=1e-10
                )

    def test_commutes_and_reconstructs(self):
        rng = np.random.default_rng(1)
        for base in (2, "e"):
            rho = random_density(rng, 3)
            k = modular_hamiltonian(rho, base)
            comm = k @ rho.matrix - rho.matrix @ k
            assert np.abs(comm).max() < 1e-10
            # exp(-K) in the base, compressed to the support of rho, is rho
            w, v = np.linalg.eigh(k)
            rebuilt = (v * np.exp(-w * (math.log(2) if base == 2 else 1.0))) @ v.conj().T
            wr, vr = np.linalg.eigh(rho.matrix)
            vs = vr[:, wr > 1e-12 * wr.max()]
            support = vs @ vs.conj().T
            assert np.abs(support @ rebuilt @ support - rho.matrix).max() < 1e-8


class TestCapacity:
    def test_bell_flat_zero(self):
        assert capacity_pure(BELL, "e").capacity == 0.0

    def test_reported_two_term_value(self):
        # closed form p(1-p) ln^2(p/(1-p)) at p = 0.0045 gives 0.13059,
        # matching the quoted 0.1306 to the printed precision
        res = capacity_pure(two_term_state(0.0045), "e")
        assert res.capacity == pytest.approx(0.1306, abs=1e-3)
        assert res.capacity == pytest.approx(capacity_two_qubit_closed(0.0045, "e"), abs=1e-12)

    def test_reported_four_term_value(self):
        p = 0.6036
        res = capacity_from_spectrum([p] + [(1 - p) / 3] * 3, "e")
        assert res.capacity == pytest.approx(0.5523, abs=1e-3)

    def test_capacity_recomputable_from_spectrum(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            rho = random_density(rng, 4)
            res = capacity_of(rho, "e")
            w = np.linalg.eigvalsh(rho.matrix)
            nz = w[w > 0]
            second = np.sum(nz * np.log(nz) ** 2)
            assert res.capacity == pytest.approx(second - res.entropy**2, abs=1e-10)

    @pytest.mark.parametrize("base", ["e", 2])
    def test_entropy_is_von_neumann_entropy_bit_for_bit(self, base):
        # both entropy routes read the same clipped and renormalized spectrum
        for m in _random_density(np.random.default_rng(0), 4, 300):
            rho = DensityOperator(m)
            assert von_neumann_entropy(rho, base) == capacity_of(rho, base).entropy

    def test_subsystem_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            psi = haar_random_pure(2, 2, rng)
            rho = density_from_pure(psi)
            ca = capacity_of(partial_trace(rho, "A"), "e").capacity
            cb = capacity_of(partial_trace(rho, "B"), "e").capacity
            assert ca == pytest.approx(cb, abs=1e-10)

    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            capacity_from_spectrum([0.5, 0.6], "e")

    @pytest.mark.parametrize("base", ["e", 2])
    def test_stacked_kernel_matches_each_spectrum(self, base):
        rng = np.random.default_rng(6)
        w = rng.uniform(0.0, 1.0, (5, 3, 9))
        w[..., ::3] = 0.0
        w[0, 0] = np.eye(9)[4]
        w /= w.sum(axis=-1, keepdims=True)
        capacity, entropy = _spectrum_capacity(w, base)
        assert capacity.shape == entropy.shape == (5, 3)
        for idx in np.ndindex(5, 3):
            res = capacity_from_spectrum(w[idx], base)
            assert (capacity[idx], entropy[idx]) == (res.capacity, res.entropy)

    def test_stacked_kernel_rejects_one_bad_vector(self):
        w = np.full((4, 2), 0.5)
        w[2] = (0.5, 0.6)
        with pytest.raises(DomainError):
            _spectrum_capacity(w)

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_closed_form_zeros(self, p):
        assert capacity_two_qubit_closed(p, "e") == 0.0

    def test_closed_form_limit_small_p(self):
        assert capacity_two_qubit_closed(1e-12, "e") < 1e-9

    def test_additivity(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            rho_a = random_density(rng, 2)
            rho_b = random_density(rng, 3)
            joint = DensityOperator(np.kron(rho_a.matrix, rho_b.matrix))
            lhs = capacity_of(joint, "e").capacity
            rhs = capacity_of(rho_a, "e").capacity + capacity_of(rho_b, "e").capacity
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_positivity(self):
        rng = np.random.default_rng(5)
        assert all(capacity_of(random_density(rng, 4), "e").capacity >= 0.0 for _ in range(200))


class TestFlatness:
    def test_flat_cases(self):
        assert is_flat([0.5, 0.5, 0.0, 0.0])
        assert not is_flat([0.6, 0.4])

    def test_flat_implies_zero_capacity(self):
        for spec in ([0.5, 0.5], [1.0], np.full(8, 1 / 8), [0.25, 0.25, 0.25, 0.25, 0, 0]):
            if is_flat(spec):
                assert capacity_from_spectrum(spec, "e").capacity < 1e-10


class TestObservableVariance:
    def test_identity_zero(self):
        rho = DensityOperator(np.eye(3) / 3)
        assert observable_variance(np.eye(3), rho) == 0.0

    def test_modular_variance_is_capacity(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            rho = random_density(rng, 4)
            k = modular_hamiltonian(rho, "e")
            assert observable_variance(k, rho) == pytest.approx(
                capacity_of(rho, "e").capacity, abs=1e-10
            )

    def test_pauli_z_on_plus(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        rho = DensityOperator(np.outer(plus, plus))
        sz = np.diag([1.0, -1.0])
        assert observable_variance(sz, rho) == pytest.approx(1.0, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            observable_variance(np.eye(3), DensityOperator(np.eye(2) / 2))

    def test_stack_gives_one_value_per_observable(self):
        # the same dimension check as a Hamiltonian's: the stack's length is not compared
        rho = random_density(np.random.default_rng(2), 3)
        obs = np.stack([np.eye(3), np.diag([1.0, 0.0, -1.0]), np.diag([0.0, 2.0, 0.0])])
        assert np.array_equal(observable_variance(obs, rho), [observable_variance(o, rho) for o in obs])


class TestMaxVarianceSpectrum:
    def test_residual(self):
        for d in (2, 5, 100):
            r, w = solve_max_variance_spectrum(d)
            residual = (1 - 2 * r) * math.log((1 - r) / r * (d - 1)) - 2
            assert abs(residual) < 1e-12
            assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_large_d_limit(self):
        # r -> 1/2 like 1/ln(d): check monotone approach at the right scale
        rs = [solve_max_variance_spectrum(d)[0] for d in (10**4, 10**6, 10**8)]
        assert rs[0] < rs[1] < rs[2] < 0.5
        for r, d in zip(rs, (10**4, 10**6, 10**8)):
            assert 0.5 - r < 2.0 / math.log(d - 1)

    @pytest.mark.parametrize("d", [3, 4, 8, 16])
    def test_capacity_bracket(self, d):
        _, w = solve_max_variance_spectrum(d)
        cap = capacity_from_spectrum(w, 2).capacity
        lo = 0.25 * math.log2(d - 1) ** 2
        assert lo < cap < lo + 1.0 / math.log(2) ** 2


class TestUncertaintyRelations:
    def test_convexity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            tau = random_density(rng, 3)
            k1 = modular_hamiltonian(random_density(rng, 3), "e")
            k2 = modular_hamiltonian(random_density(rng, 3), "e")
            p = rng.uniform()
            mixed = std(p * k1 + (1 - p) * k2, tau)
            assert mixed <= p * std(k1, tau) + (1 - p) * std(k2, tau) + 1e-10

    def test_perturbation(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            tau = random_density(rng, 3)
            k = modular_hamiltonian(random_density(rng, 3), "e")
            v = modular_hamiltonian(random_density(rng, 3), "e")
            x = rng.uniform(0.0, 3.0)
            assert std(k + x * v, tau) <= std(k, tau) + x * std(v, tau) + 1e-10


class TestEmpiricalConstants:
    def test_continuity_estimate_finite(self):
        from entcap.core import trace_distance

        rng = np.random.default_rng(9)
        pairs = [(random_density(rng, 4), random_density(rng, 4)) for _ in range(50)]
        xi = smallest_continuity_constant(np.array([r.matrix for r, _ in pairs]),
                                          np.array([s.matrix for _, s in pairs]), "e")
        assert 0.0 < xi < 1e3
        ratios = []
        for rho, sigma in pairs:
            gap = abs(capacity_of(rho, "e").capacity - capacity_of(sigma, "e").capacity)
            ratios.append(gap**2 / (math.log(4) ** 2 * trace_distance(rho, sigma)))
        # the stack gives the largest of the per-pair ratios
        assert xi == pytest.approx(max(ratios), rel=1e-12)

    def test_subadditivity_estimate_finite(self):
        rng = np.random.default_rng(10)
        states = [random_density(rng, 4, d_a=2, d_b=2) for _ in range(50)]
        chi = smallest_subadditivity_constant(np.array([r.matrix for r in states]), 2, 2, "e")
        assert 0.0 <= chi < 1e3
        ratios = [0.0]
        for rho in states:
            parts = [rho, partial_trace(rho, "A"), partial_trace(rho, "B")]
            excess = capacity_of(parts[0], "e").capacity - sum(capacity_of(r, "e").capacity for r in parts[1:])
            s = [von_neumann_entropy(r, "e") for r in parts]
            mutual = max(s[1] + s[2] - s[0], 0.0)
            f = max(mutual**0.25, mutual**2)
            if excess > 0.0 and f >= 1e-14:
                ratios.append(excess / (math.log(4) ** 2 * f))
        assert chi == pytest.approx(max(ratios), rel=1e-12)
