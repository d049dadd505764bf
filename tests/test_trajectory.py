"""The batched exact trajectory kernel against a scalar reference.

The reference evolves one state at a time, takes Schmidt weights from an SVD
and rates from centered finite differences, the way ``simulate_trajectory``
worked before it became a closed-form batched kernel.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from entcap import core, measures, speed_limits, verify
from entcap.core import BipartitePureState, DomainError, haar_random_pure, spectrum_entropy
from entcap.dynamics import NonlocalHamiltonian, canonical_form, simulate_trajectory
from entcap.measures import capacity_from_spectrum
from entcap.self_inverse import SelfInverseHamiltonian

FIELDS = ("amplitudes", "schmidt_weights", "entropy", "capacity", "gamma", "gamma_capacity", "delta_h")
FD_STEP = 1e-6
BELL = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)


def reference(h, amps0, times, base):
    """Per-sample weights (SVD), entropy, capacity, fluctuation and finite-difference rates.

    The fluctuation is the spread of the energy distribution over H's
    eigenbasis, sum_k p_k (w_k - <H>)^2, which has no cancellation.
    """
    w, v = np.linalg.eigh(h)
    coeffs = v.conj().T @ amps0

    def at(t):
        psi = v @ (np.exp(-1j * w * t) * coeffs)
        psi = psi / np.linalg.norm(psi)
        sv = np.linalg.svd(psi.reshape(2, 2), compute_uv=False)
        weights = sv**2 / np.sum(sv**2)
        return psi, weights, spectrum_entropy(weights, base), capacity_from_spectrum(weights, base).capacity

    out = {k: [] for k in ("schmidt_weights", "entropy", "capacity", "gamma", "gamma_capacity", "delta_h")}
    for t in times:
        psi, weights, ent, cap = at(t)
        _, _, ent_p, cap_p = at(t + FD_STEP)
        _, _, ent_m, cap_m = at(t - FD_STEP)
        occupation = np.abs(v.conj().T @ psi) ** 2
        mean = occupation @ w
        out["schmidt_weights"].append(weights)
        out["entropy"].append(ent)
        out["capacity"].append(cap)
        out["gamma"].append((ent_p - ent_m) / (2.0 * FD_STEP))
        out["gamma_capacity"].append((cap_p - cap_m) / (2.0 * FD_STEP))
        out["delta_h"].append(math.sqrt(occupation @ (w - mean) ** 2))
    return {k: np.array(val) for k, val in out.items()}


def assert_matches_reference(h, amps0, times, base):
    traj = simulate_trajectory(h, amps0, times, base)
    ref = reference(core._hamiltonian_matrix(h), amps0, times, base)
    for name in ("schmidt_weights", "entropy", "capacity", "delta_h"):
        np.testing.assert_allclose(getattr(traj, name), ref[name], rtol=0, atol=1e-12, err_msg=name)
    for name in ("gamma", "gamma_capacity"):
        np.testing.assert_allclose(getattr(traj, name), ref[name], rtol=0, atol=1e-7, err_msg=name)


def random_involution(rng):
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q @ np.diag([1.0, rng.choice([-1.0, 1.0])]) @ q.conj().T


couplings = st.lists(st.floats(0.0, 2.0), min_size=3, max_size=3).map(lambda m: tuple(sorted(m, reverse=True)))
seeds = st.integers(0, 2**32 - 1)
time_lists = st.lists(st.floats(0.0, 3.0), min_size=1, max_size=5).map(np.array)
bases = st.sampled_from(["e", 2])


class TestAgainstScalarReference:
    @given(couplings, st.sampled_from([1, -1]), seeds, time_lists, bases)
    def test_canonical(self, mu, sign, seed, times, base):
        # evolved through the closed-form Bell-basis eigensystem
        ham = NonlocalHamiltonian(mu=mu, sign=sign)
        assert_matches_reference(ham, haar_random_pure(2, 2, seed).amplitudes, times, base)

    @given(couplings, st.sampled_from([1, -1]), seeds, time_lists, bases)
    def test_canonical_matrix(self, mu, sign, seed, times, base):
        h = NonlocalHamiltonian(mu=mu, sign=sign).matrix()
        assert_matches_reference(h, haar_random_pure(2, 2, seed).amplitudes, times, base)

    @given(seeds, time_lists, bases)
    def test_raw_matrix_with_local_fields(self, seed, times, base):
        rng = np.random.default_rng(seed)
        ham = canonical_form(rng.standard_normal(3), rng.standard_normal(3), rng.standard_normal((3, 3)))
        assert_matches_reference(ham.raw_matrix(), haar_random_pure(2, 2, rng).amplitudes, times, base)

    @given(seeds, time_lists, bases)
    def test_self_inverse(self, seed, times, base):
        # the type is evolved by cos t - i sin t H, its matrix through eigh
        rng = np.random.default_rng(seed)
        ham = SelfInverseHamiltonian(random_involution(rng), random_involution(rng))
        amps0 = haar_random_pure(2, 2, rng).amplitudes
        assert_matches_reference(ham, amps0, times, base)
        assert_matches_reference(ham.matrix(), amps0, times, base)

    @given(seeds, time_lists)
    def test_bell_start(self, seed, times):
        rng = np.random.default_rng(seed)
        ham = canonical_form(rng.standard_normal(3), rng.standard_normal(3), rng.standard_normal((3, 3)))
        assert_matches_reference(ham.raw_matrix(), BELL, np.concatenate([[0.0], times]), "e")


class TestEdgeCases:
    def test_product_state_at_t0_has_zero_rates(self):
        ham = NonlocalHamiltonian(mu=(1.3, 0.6, 0.2))
        traj = simulate_trajectory(ham, np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.2, 0.9]))
        for name in FIELDS:
            assert np.isfinite(getattr(traj, name)).all(), name
        assert traj.gamma[0] == 0.0 and traj.gamma_capacity[0] == 0.0
        assert traj.entropy[0] == 0.0 and traj.capacity[0] == 0.0
        assert np.array_equal(traj.schmidt_weights[0], [1.0, 0.0])
        assert traj.gamma[1] > 0.0

    def test_bell_state(self):
        ham = NonlocalHamiltonian(mu=(1.0, 0.4, 0.1))
        traj = simulate_trajectory(ham, BipartitePureState(BELL, 2, 2), np.linspace(0.0, 1.0, 5), base=2)
        for name in FIELDS:
            assert np.isfinite(getattr(traj, name)).all(), name
        assert np.abs(traj.schmidt_weights - 0.5).max() < 1e-12
        assert np.abs(traj.entropy - 1.0).max() < 1e-12
        assert np.abs(traj.capacity).max() < 1e-12
        assert np.abs(traj.gamma).max() < 1e-12

    def test_single_equals_slice_of_stack(self):
        rng = np.random.default_rng(21)
        raw = canonical_form(rng.standard_normal(3), rng.standard_normal(3), rng.standard_normal((3, 3)))
        hams = [NonlocalHamiltonian(mu=(1.1, 0.5, 0.3)).matrix(),
                raw.raw_matrix(),
                SelfInverseHamiltonian(random_involution(rng), random_involution(rng)).matrix()]
        psis = [haar_random_pure(2, 2, rng).amplitudes for _ in hams]
        times = rng.uniform(0.0, 2.0, 6)
        stacked = simulate_trajectory(np.array(hams), np.array(psis), times)
        for i, (h, psi) in enumerate(zip(hams, psis)):
            single = simulate_trajectory(h, BipartitePureState(psi, 2, 2), times)
            for name in FIELDS:
                assert getattr(single, name).shape == getattr(stacked, name).shape[1:]
                assert np.array_equal(getattr(single, name), getattr(stacked, name)[i]), name

    @pytest.mark.parametrize("sign", [1, -1])
    def test_canonical_stack_matches_its_matrices(self, sign):
        # the closed-form eigensystem against one eigh of each matrix; the
        # difference is eigh's rounding, largest in gamma_capacity near
        # product states, and grows with t
        rng = np.random.default_rng(0)
        mu = np.sort(rng.uniform(0.0, 2.0, (64, 3)), axis=-1)[:, ::-1]
        mu[:4] = [(1.0, 1.0, 1.0), (1.0, 0.0, 0.0), (2.0, 1e-9, 0.0), (0.0, 0.0, 0.0)]
        psis = core._haar_amplitudes(rng, 4, 64)
        ham = NonlocalHamiltonian(mu=mu, sign=sign)
        times = np.linspace(0.0, 1.0, 6)
        closed, dense = simulate_trajectory(ham, psis, times), simulate_trajectory(ham.matrix(), psis, times)
        for name in FIELDS:
            assert np.abs(getattr(closed, name) - getattr(dense, name)).max() <= 1e-13, name

    def test_canonical_stack_row_equals_single_call(self):
        rng = np.random.default_rng(22)
        mu = np.sort(rng.uniform(0.0, 2.0, (5, 3)), axis=-1)[:, ::-1]
        psis = core._haar_amplitudes(rng, 4, 5)
        times = rng.uniform(0.0, 2.0, 6)
        stacked = simulate_trajectory(NonlocalHamiltonian(mu=mu, sign=-1), psis, times)
        for i, (m, psi) in enumerate(zip(mu, psis)):
            single = simulate_trajectory(NonlocalHamiltonian(mu=tuple(m.tolist()), sign=-1), psi, times)
            for name in FIELDS:
                assert np.array_equal(getattr(single, name), getattr(stacked, name)[i]), name

    def test_rejects_mismatched_stacks(self):
        with pytest.raises(DomainError):
            simulate_trajectory(np.zeros((3, 4, 4)), np.tile(BELL, (2, 1)), [0.1])
        with pytest.raises(DomainError):
            simulate_trajectory(np.zeros((2, 4, 4)), 2.0 * np.tile(BELL, (2, 1)), [0.1])
        with pytest.raises(DomainError):
            simulate_trajectory(NonlocalHamiltonian(mu=np.ones((3, 3))), np.tile(BELL, (2, 1)), [0.1])


def random_involutions(rng, n):
    """n random 2x2 Hermitian involutions +-(2 u u^dagger - I), none of them +-I."""
    a = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    u = a / np.linalg.norm(a, axis=-1, keepdims=True)
    sign = rng.choice([-1.0, 1.0], (n, 1, 1))
    return sign * (2.0 * u[:, :, None] * u[:, None, :].conj() - np.eye(2))


def product_start_capacity_rate(x_a, x_b, a, b, times):
    """Exact dC/dt in nats from |a>|b> under X_A ⊗ X_B, for stacks (n, 2, 2) and (n, 2) against times (T,).

    psi(t) = cos t |a b> - i sin t |X_A a, X_B b>, so |det C|^2 = lam_+ lam_- = q with
    q = kappa sin^2(2t)/4, kappa = |det[a, X_A a]|^2 |det[b, X_B b]|^2 (0 exactly for X = +-I).
    With C = lam_+ lam_- L^2, L = ln(lam_+/lam_-) and s = 1 - 2 lam_-:
    dC/dt = (L^2 - 2 L / s) dq/dt, dq/dt = kappa sin(4t)/2.
    """
    def det_sq(v, x):
        xv = (x @ v[:, :, None])[:, :, 0]
        return np.abs(v[:, 0] * xv[:, 1] - v[:, 1] * xv[:, 0]) ** 2

    kappa = (det_sq(a, x_a) * det_sq(b, x_b))[:, None]
    q = kappa * np.sin(2.0 * times) ** 2 / 4.0
    s = np.sqrt(1.0 - 4.0 * q)
    lam = 2.0 * q / (1.0 + s)
    log_ratio = np.where(lam > 0.0, np.log1p(s / np.where(lam > 0.0, lam, 1.0)), 0.0)
    return (log_ratio**2 - 2.0 * log_ratio / s) * kappa * np.sin(4.0 * times) / 2.0


class TestSelfInverseClosedForm:
    @pytest.mark.parametrize("base", ["e", 2])
    def test_stack_matches_its_matrices(self, base):
        # 256 Hamiltonians, some with a factor +-I; 64 start from product states, which
        # X_A ⊗ X_B takes back to product states at every multiple of pi/2
        rng = np.random.default_rng(5)
        n, n_product = 256, 64
        x_a, x_b = random_involutions(rng, n), random_involutions(rng, n)
        x_a[0] = x_b[1] = x_a[64] = np.eye(2)
        x_a[2] = x_b[3] = x_b[65] = -np.eye(2)
        a, b = core._haar_amplitudes(rng, 2, n_product), core._haar_amplitudes(rng, 2, n_product)
        a[:8], b[:8] = [1.0, 0.0], [1.0, 0.0]
        psis = np.concatenate([(a[:, :, None] * b[:, None, :]).reshape(-1, 4),
                               core._haar_amplitudes(rng, 4, n - n_product)])
        times = np.linspace(0.0, 2.0 * np.pi, 41)
        ham = SelfInverseHamiltonian(x_a, x_b)
        closed, dense = simulate_trajectory(ham, psis, times, base), simulate_trajectory(ham.matrix(), psis, times, base)
        for name in FIELDS:
            diff = np.abs(getattr(closed, name) - getattr(dense, name))
            if name == "gamma_capacity":
                # near a product state dC/dt ~ sqrt(lam_-) ln^2(lam_-) turns eigh's round-off
                # into up to 6e-11 there, so those rows are held to the exact rate instead
                diff = diff[n_product:]
            assert diff.max() <= 1e-12, name
        # compared in nats: the round-off left near a product state (~7e-13 nats against a
        # 60-digit evaluation) is the same in every base, and base 2 scales it by 1/ln^2 2
        exact = product_start_capacity_rate(x_a[:n_product], x_b[:n_product], a, b, times)
        nats = closed.gamma_capacity[:n_product] * (np.log(2.0) ** 2 if base == 2 else 1.0)
        assert np.abs(nats - exact).max() <= 1e-12

    def test_full_period_returns_the_start(self):
        rng = np.random.default_rng(6)
        psis = core._haar_amplitudes(rng, 4, 50)
        ham = SelfInverseHamiltonian(random_involutions(rng, 50), random_involutions(rng, 50))
        traj = simulate_trajectory(ham, psis, [2.0 * np.pi])
        assert np.abs(traj.amplitudes[:, 0] - psis).max() <= 1e-15

    @pytest.mark.parametrize("n_times", [1, 6])
    def test_stack_row_equals_single_call(self, n_times):
        rng = np.random.default_rng(7)
        x_a, x_b = random_involutions(rng, 9), random_involutions(rng, 9)
        psis = core._haar_amplitudes(rng, 4, 9)
        times = rng.uniform(0.0, 6.0, n_times)
        stacked = simulate_trajectory(SelfInverseHamiltonian(x_a, x_b), psis, times)
        for i in range(9):
            single = simulate_trajectory(SelfInverseHamiltonian(x_a[i], x_b[i]), BipartitePureState(psis[i], 2, 2), times)
            for name in FIELDS:
                assert np.array_equal(getattr(single, name), getattr(stacked, name)[i]), name


class TestRunBoundsLinalgCount:
    def test_eigh_and_svd_calls_do_not_grow_with_samples(self, monkeypatch):
        counts = {"eigh": 0, "eigvalsh": 0, "svd": 0, "qr": 0}
        for name in counts:
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        seen = []
        for n_samples in (1, 20, 200):
            counts.update(dict.fromkeys(counts, 0))
            assert verify.hard_failures(verify.run_bounds(n_samples, seed=9)) == 0
            seen.append(dict(counts))
        # no LAPACK call: the rate-bound ensemble's canonical Hamiltonians take
        # their closed-form eigensystem, the capacity-rate chain's self-inverse
        # stack is evolved by cos t - i sin t H, and its ||X_A (x) X_B|| = 1
        assert seen[0] == seen[1] == seen[2] == dict.fromkeys(counts, 0)

    def test_ensemble_work_is_batched(self, monkeypatch, fresh_run_bounds):
        # every check is one array evaluation, so no count below grows with
        # the ensemble size; each counted call recomputes the reference grid
        counts = dict.fromkeys(("qr", "states", "qsl", "spectrum"), 0)

        def counted(key, original):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "qr", counted("qr", np.linalg.qr))
        monkeypatch.setattr(core.BipartitePureState, "__post_init__",
                            counted("states", core.BipartitePureState.__post_init__))
        monkeypatch.setattr(speed_limits, "_family_qsl", counted("qsl", speed_limits._family_qsl))
        spectrum = counted("spectrum", measures.capacity_from_spectrum)
        monkeypatch.setattr(measures, "capacity_from_spectrum", spectrum)
        monkeypatch.setattr(verify, "capacity_from_spectrum", spectrum)
        seen = []
        for n_samples in (20, 200):
            counts.update(dict.fromkeys(counts, 0))
            assert verify.hard_failures(fresh_run_bounds(n_samples, seed=9)) == 0
            seen.append(dict(counts))
        assert (seen[0]["qr"], seen[0]["states"]) == (seen[1]["qr"], seen[1]["states"])
        # the sampled involutions are closed forms in their normals' first columns
        assert seen[0]["qr"] == 0
        # one quadrature for both theta of the speed-limit grid
        assert [s["qsl"] for s in seen] == [1, 1]
        assert max(s["spectrum"] for s in seen) == 0

    def test_generator_calls_do_not_grow_with_samples(self, monkeypatch):
        # each ensemble is drawn whole: the same generator calls, in the same
        # order, whatever the ensemble size
        calls = []

        class CountingGenerator(np.random.Generator):
            def __getattribute__(self, name):
                attr = super().__getattribute__(name)
                if callable(attr) and not name.startswith("_"):
                    calls.append(name)
                return attr

        monkeypatch.setattr(np.random, "default_rng", lambda seed: CountingGenerator(np.random.PCG64(seed)))
        seen = []
        for n_samples in (20, 200):
            calls.clear()
            assert verify.hard_failures(verify.run_bounds(n_samples, seed=9)) == 0
            seen.append(list(calls))
        assert seen[0] and seen[0] == seen[1]


def per_sample_ensembles(seed, n_samples):
    """The two run_bounds ensembles, drawn whole and then built one sample at a time with the scalar API.

    Draw order: couplings, then states, of the rate-bound ensemble; the normal
    3-vectors of every involution, then states, of the capacity-rate chain.
    """
    rng = np.random.default_rng(seed)

    def states(n):
        amps = []
        for re, im in rng.standard_normal((n, 2, 4)):
            z = re + 1j * im
            amps.append(BipartitePureState(z / np.sqrt(np.sum(z.real**2 + z.imag**2)), 2, 2).amplitudes)
        return amps

    def involution(normal):
        # X = n.sigma for the unit vector n
        return core._row_products(normal / np.sqrt(np.sum(normal**2)), core._PAULI[1:].reshape(3, 4)).reshape(2, 2)

    mu = rng.uniform(0.0, 2.0, (n_samples, 3))
    rate = ([NonlocalHamiltonian(mu=tuple(np.sort(m)[::-1].tolist())).matrix() for m in mu],
            states(n_samples))
    n = max(n_samples // 5, 20)
    normals = rng.standard_normal((n, 2, 3))
    chain = ([SelfInverseHamiltonian(involution(a), involution(b)).matrix() for a, b in normals], states(n))
    return [(np.array(hams), np.array(psis)) for hams, psis in (rate, chain)]


class TestReferenceChecksCache:
    def test_second_suite_makes_no_quadrature_call(self, monkeypatch):
        verify._reference_checks.cache_clear()
        first = verify.run_suite("bounds", 20, 1)
        calls = []
        inner = speed_limits._family_qsl

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(speed_limits, "_family_qsl", counted)
        second = verify.run_suite("bounds", 30, 2, base=2)
        assert calls == []
        assert [r.name for r in second[1:4]] == ["qsl-validity", "qsl-tightness", "closed-form-consistency"]
        assert all(a is b for a, b in zip(first[1:4], second[1:4], strict=True))

    @pytest.mark.parametrize("base", [2, "e"])
    def test_report_after_cache_clear_is_identical(self, base):
        verify._reference_checks()
        cached = verify.format_report(verify.run_suite("bounds", 300, 4099, base))
        verify._reference_checks.cache_clear()
        assert verify.format_report(verify.run_suite("bounds", 300, 4099, base)) == cached


class TestRunBoundsGolden:
    @pytest.mark.parametrize("seed, n_samples", [(4099, 300), (5, 1), (6, 123)])
    def test_stacks_equal_per_sample_reference(self, monkeypatch, seed, n_samples):
        evolved = []
        inner = verify.simulate_trajectory

        def spy(hams, psis, times, base):
            evolved.append((hams, psis))
            return inner(hams, psis, times, base)

        monkeypatch.setattr(verify, "simulate_trajectory", spy)
        verify.run_bounds(n_samples, seed)
        for (hams, psis), (ref_hams, ref_psis) in zip(evolved, per_sample_ensembles(seed, n_samples), strict=True):
            # the rate-bound ensemble passes one stacked NonlocalHamiltonian
            assert np.array_equal(core._hamiltonian_matrix(hams), ref_hams) and np.array_equal(psis, ref_psis)

    def test_report_at_fixed_seed(self):
        # pins the RNG draw order of both ensembles (each drawn whole, one
        # generator call per quantity): any other order moves these digits
        expected = (
            "PASS hard entanglement-rate-bound violations=0,min_margin=1.996e-03\n"
            "PASS hard qsl-validity max_excess=1.110e-16\n"
            "PASS soft qsl-tightness min_ratio=1.000000\n"
            "PASS hard closed-form-consistency max_dev=1.221e-15\n"
            "PASS soft capacity-rate-bound-chain samples=180,violations=rate:4,speed:1,norm:0,selfinv:0\n"
            "PASS hard rate-constant-base-ratio base2=1.912273,base_e=1.325487\n"
            "SUMMARY checks=6 hard_failures=0\n"
        )
        assert verify.format_report(verify.run_suite("bounds", 300, 4099)) == expected
