import math

import numpy as np
import pytest

from entcap import speed_limits
from entcap.core import BipartitePureState, DomainError, haar_random_pure
from entcap.dynamics import NonlocalHamiltonian, _two_qubit_log_ratio, evolved_schmidt_weights, simulate_trajectory
from entcap.measures import capacity_from_spectrum
from entcap.speed_limits import (
    QSLReport,
    _step_time_dependent,
    family_entropy,
    family_qsl_curve,
    family_qsl_report,
    family_sqrt_capacity,
    fubini_study_speed,
    hamiltonian_fluctuation,
    qsl_time_dependent,
    rate_bound_check,
)


def two_term_state(p):
    return BipartitePureState(np.array([np.sqrt(p), 0, 0, np.sqrt(1 - p)]), 2, 2)


def random_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (g + g.conj().T)


class TestFluctuation:
    def test_eigenstate_zero(self):
        h = np.diag([1.0, 2.0, 3.0, 4.0])
        psi = BipartitePureState(np.array([0.0, 1.0, 0, 0]), 2, 2)
        assert hamiltonian_fluctuation(h, psi) == 0.0

    def test_family_closed_form(self):
        # Delta H = theta |1-2p| for the two-term family
        for p, theta in ((0.0, 1.0), (0.25, 0.6), (0.9, 1.3)):
            ham = NonlocalHamiltonian(mu=(theta + 0.2, 0.2, 0.1))
            assert hamiltonian_fluctuation(ham, two_term_state(p)) == pytest.approx(
                (ham.mu[0] - ham.mu[1]) * abs(1 - 2 * p), abs=1e-12
            )

    def test_balanced_zero(self):
        ham = NonlocalHamiltonian(mu=(1.0, 0.5, 0.2))
        assert hamiltonian_fluctuation(ham, two_term_state(0.5)) == pytest.approx(0.0, abs=1e-12)


    @pytest.mark.parametrize("n", [3, 4])
    def test_stack_gives_one_value_per_hamiltonian(self, n):
        # the stack's length is never compared with the state's dimension
        mu = np.sort(np.random.default_rng(n).uniform(0.0, 2.0, (n, 3)), axis=-1)[:, ::-1]
        psi = haar_random_pure(2, 2, 3)
        single = [hamiltonian_fluctuation(NonlocalHamiltonian(mu=tuple(m)), psi) for m in mu]
        for ham in (NonlocalHamiltonian(mu=mu), NonlocalHamiltonian(mu=mu).matrix()):
            np.testing.assert_array_equal(hamiltonian_fluctuation(ham, psi), single)
            np.testing.assert_array_equal(fubini_study_speed(ham, psi), 2.0 * np.array(single))

    def test_wrong_dimension_rejected_everywhere(self):
        # a 2x2 H for a two-qubit state, by every function that pairs a Hamiltonian with a state
        from entcap.core import density_from_pure
        from entcap.self_inverse import SelfInverseHamiltonian, evolve_self_inverse, liouville_rhs

        psi = haar_random_pure(2, 2, 1)
        ham = SelfInverseHamiltonian(np.diag([1.0, -1.0]), np.eye(1))
        assert ham.matrix().shape == (2, 2)
        calls = (lambda: hamiltonian_fluctuation(ham, psi), lambda: hamiltonian_fluctuation(ham.matrix(), psi),
                 lambda: fubini_study_speed(ham, psi), lambda: liouville_rhs(ham, density_from_pure(psi)),
                 lambda: evolve_self_inverse(ham, psi, 0.3))
        for call in calls:
            with pytest.raises(DomainError, match="acts on dimension 2, the state has dimension 4"):
                call()


class TestFubiniStudySpeed:
    def test_eigenstate(self):
        h = np.diag([1.0, 2.0, 3.0, 4.0])
        psi = BipartitePureState(np.array([1.0, 0, 0, 0]), 2, 2)
        assert fubini_study_speed(h, psi) == 0.0

    def test_family_value(self):
        ham = NonlocalHamiltonian(mu=(1.2, 0.2, 0.1))
        assert fubini_study_speed(ham, two_term_state(0.0)) == pytest.approx(2 * 1.0, abs=1e-12)

    def test_overlap_oracle(self):
        # dS^2 = 4(1 - |<psi(t)|psi(t+dt)>|^2), evaluated without cancellation
        # through the eigenbasis
        rng = np.random.default_rng(0)
        dt = 1e-6
        for _ in range(10):
            h = random_hermitian(rng, 4)
            z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            z /= np.linalg.norm(z)
            psi = BipartitePureState(z, 2, 2)
            w, v = np.linalg.eigh(h)
            c = v.conj().T @ z
            # 1 - |<z|e^{-iH dt} z>|^2 with cos(x)-1 = -2 sin^2(x/2)
            re = np.sum(np.abs(c) ** 2 * (-2.0 * np.sin(w * dt / 2.0) ** 2))
            im = np.sum(np.abs(c) ** 2 * (-np.sin(w * dt)))
            one_minus = -2.0 * re - (re**2 + im**2)
            speed_fd = 2.0 * math.sqrt(max(one_minus, 0.0)) / dt
            speed = fubini_study_speed(h, psi)
            if speed > 1e-6:
                assert speed_fd == pytest.approx(speed, rel=1e-5)


class TestClosedFormFamily:
    def test_balanced_spectrum_point(self):
        # 2 theta t = pi/2: eta = 0, so the Schmidt pair is (1/2, 1/2)
        assert family_sqrt_capacity(1.0, 0.5, math.pi / 2, base=2) == pytest.approx(0.0, abs=1e-12)
        assert family_entropy(1.0, 0.5, math.pi / 2, base=2) == pytest.approx(1.0, abs=1e-12)

    def test_product_start(self):
        assert family_sqrt_capacity(1.0, 1.0, 0.0, base=2) == 0.0
        assert family_entropy(1.0, 1.0, 0.0, base=2) == 0.0

    def test_matches_spectrum_recomputation(self):
        from entcap.core import spectrum_entropy

        weights = evolved_schmidt_weights(1.0, 1.0, 0.3)
        res = capacity_from_spectrum(weights, 2)
        assert family_sqrt_capacity(1.0, 1.0, 0.3, base=2) ** 2 == pytest.approx(res.capacity, abs=1e-10)
        assert family_entropy(1.0, 1.0, 0.3, base=2) == pytest.approx(spectrum_entropy(weights, 2), abs=1e-10)

    def test_eta_endpoint_finite(self):
        for p in (0.0, 1.0):
            assert family_sqrt_capacity(p, 1.0, 0.0, base=2) == 0.0
            assert math.isfinite(family_entropy(p, 1.0, 0.0, base=2))

    def test_artanh_argument_interior(self):
        for p in (0.1, 0.5, 0.9):
            eta = (1 - 2 * p) * np.cos(2 * np.linspace(0, 3, 100))
            assert np.all(np.abs(eta) < 1.0)

    @pytest.mark.parametrize("lam", [5e-324, 1e-320, 1e-310, 2e-308, 1e-300])
    def test_log_ratio_of_a_subnormal_weight(self, lam):
        # below the least normal float s / lam_- overflows; ln(lam_+/lam_-) = -ln lam_- to rounding there
        assert _two_qubit_log_ratio(np.array(lam), np.array(1.0 - lam)) == pytest.approx(-math.log(lam), rel=1e-15)

    def test_delta_h_absolute_value(self):
        assert family_qsl_report(0.9, 1.0, 0.1).mean_fluctuation == pytest.approx(0.8 * 1.0)


class TestRateBound:
    def test_bell_heisenberg_trivial(self):
        ham = NonlocalHamiltonian(mu=(1.0, 1.0, 1.0))
        bell = BipartitePureState(np.array([1.0, 0, 0, 1]) / np.sqrt(2), 2, 2)
        traj = simulate_trajectory(ham, bell, np.linspace(0.0, 1.0, 5), base=2)
        check = rate_bound_check(traj)
        assert check.violations == 0
        assert np.abs(traj.gamma).max() < 1e-6

    def test_family_sweep(self):
        ham = NonlocalHamiltonian(mu=(0.7, 0.2, 0.05))
        traj = simulate_trajectory(ham, two_term_state(1.0), np.linspace(0.01, 0.45, 20), base=2)
        check = rate_bound_check(traj, margin=1e-8)
        assert check.violations == 0

    def test_haar_ensemble(self):
        rng = np.random.default_rng(1)
        times = np.linspace(0.05, 0.5, 4)
        for _ in range(100):
            mu = np.sort(rng.uniform(0, 2, 3))[::-1]
            ham = NonlocalHamiltonian(mu=tuple(mu))
            psi = haar_random_pure(2, 2, rng)
            check = rate_bound_check(simulate_trajectory(ham, psi, times, base="e"), margin=1e-8)
            assert check.violations == 0

    @pytest.mark.parametrize("margin", [np.nan, np.inf, -np.inf, -1e-12])
    def test_margin_must_be_finite_and_non_negative(self, margin):
        # a NaN margin once counted every sample as a violation; a negative one tightened the bound
        traj = simulate_trajectory(NonlocalHamiltonian(mu=(0.7, 0.2, 0.05)), two_term_state(1.0), [0.1, 0.2])
        with pytest.raises(DomainError, match="margin"):
            rate_bound_check(traj, margin=margin)
        # zero is allowed; this family saturates the bound, so the default margin absorbs its rounding
        exact = rate_bound_check(traj, margin=0.0)
        assert np.array_equal(exact.satisfied, exact.margins >= 0.0)
        assert rate_bound_check(traj).violations == 0


class TestQSLTimeIndependent:
    def test_zero_change(self):
        # p = 1/2 is a fixed point of the family: no entropy change, no fluctuation
        report = family_qsl_report(0.5, 1.0, 0.3)
        assert (report.entropy_change, report.mean_fluctuation, report.t_qsl) == (0.0, 0.0, 0.0)

    def test_fig2_configuration(self):
        report = family_qsl_report(1.0, 1.0, 0.2)
        assert isinstance(report, QSLReport)
        assert report.t_qsl <= report.duration + 1e-9
        assert report.t_qsl / report.duration > 0.95

    def test_theta_ordering_at_fixed_duration(self):
        # both theta rows are valid bounds; the curves are emitted for comparison
        r_half = family_qsl_report(1.0, 0.5, 0.3)
        r_one = family_qsl_report(1.0, 1.0, 0.3)
        for r in (r_half, r_one):
            assert r.t_qsl <= r.duration + 1e-9

    def test_curve_matches_report(self):
        durations = np.linspace(0.045, 0.45, 10)
        tqsl = family_qsl_curve(1.0, 0.5, durations)
        for T, bound in zip(durations, tqsl):
            ref = family_qsl_report(1.0, 0.5, float(T)).t_qsl
            assert bound == pytest.approx(ref, abs=1e-8)

    def test_validity_grid(self):
        t_grid = np.linspace(0.01, 0.45, 12)
        for p in np.linspace(0.0, 1.0, 8):
            for theta in (0.5, 1.0):
                tqsl = family_qsl_curve(p, theta, t_grid)
                assert float((tqsl - t_grid).max()) <= 1e-9

    def test_tightness_and_monotone_curve(self):
        t_grid = np.linspace(0.01, 0.45, 45)
        for theta in (0.5, 1.0):
            tqsl = family_qsl_curve(1.0, theta, t_grid)
            assert float((tqsl / t_grid).min()) >= 0.95
            assert np.all(np.diff(tqsl) > 0)


class TestFamilyQuadrature:
    def test_rule_exact_to_degree_23(self):
        nodes, weights = speed_limits._gauss_legendre(12)
        for k in range(24):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert weights @ nodes**k == pytest.approx(exact, rel=0, abs=1e-14)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    def test_saturation_while_entropy_monotone(self, p, theta):
        # from a product state |dS/dt| = 2 sqrt(C) dH holds with equality
        # until 2 theta T = pi/2, so T_qsl = T exactly there
        # down to 2 theta T = 2.2e-4, where the closed forms must not cancel
        durations = np.linspace(0.00014, 0.998, 60) * np.pi / (4.0 * theta)
        np.testing.assert_allclose(family_qsl_curve(p, theta, durations), durations, rtol=1e-14, atol=0)
        for T in durations[::7]:
            assert family_qsl_report(p, theta, T).t_qsl == pytest.approx(T, rel=1e-14, abs=0)
        # windows under the fixed graded panels, where the grading toward 0 goes on
        tiny = np.array([1e-20, 1e-19, 1e-18])
        np.testing.assert_allclose(family_qsl_curve(p, theta, tiny), tiny, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_matches_dense_trapezoid_across_breakpoints(self, p):
        # 2 theta T runs to 6, past x = pi/2, pi and 3 pi/2
        theta = 2.0
        ts = np.linspace(0.0, 1.5, 1_000_001)
        sqrt_cap = family_sqrt_capacity(p, theta, ts)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (sqrt_cap[1:] + sqrt_cap[:-1]) * np.diff(ts))])
        idx = np.arange(50_000, ts.size, 50_000)
        durations = ts[idx]
        ds = family_entropy(p, theta, durations) - family_entropy(p, theta, 0.0)
        ref = np.abs(ds) / (2.0 * theta * abs(1.0 - 2.0 * p) * cum[idx] / durations)
        np.testing.assert_allclose(family_qsl_curve(p, theta, durations), ref, rtol=0, atol=1e-8)

    def test_any_order_and_repeats(self):
        durations = np.array([0.3, 0.05, 0.45, 0.05, 0.2])
        tqsl = family_qsl_curve(0.3, 1.0, durations)
        order = np.argsort(durations)
        np.testing.assert_allclose(tqsl[order], family_qsl_curve(0.3, 1.0, durations[order]), rtol=0, atol=1e-15)
        assert tqsl[1] == tqsl[3]
        assert family_qsl_curve(0.3, 1.0, []).shape == (0,)

    @pytest.mark.parametrize("durations", [[0.1, 0.0], [-0.2], [0.1, np.nan], [np.inf]])
    def test_nonpositive_duration_rejected(self, durations):
        with pytest.raises(DomainError):
            family_qsl_curve(1.0, 1.0, durations)
        with pytest.raises(DomainError):
            family_qsl_report(1.0, 1.0, durations[-1])

    @pytest.mark.parametrize("theta", [0.0, -1.0])
    def test_nonpositive_theta_rejected(self, theta):
        with pytest.raises(DomainError):
            family_qsl_curve(1.0, theta, [0.1])

    def test_node_count_does_not_grow_with_the_window(self):
        # one period of panels serves every window, so 2 theta T = 4 and 1e6 evaluate as many nodes
        assert family_qsl_report(0.3, 1.0, 2.0).samples == family_qsl_report(0.3, 1.0, 5e5).samples

    @pytest.mark.parametrize("p,theta", [(1.0, 1e-200), (0.3, 1e-170), (0.3, 1e-160), (0.0, 1e-160)])
    def test_vanishing_window_gives_its_limit(self, p, theta):
        # 2 theta T underflows to 0 or a subnormal: T_qsl and ΔS are 0 and the mean is sqrt(C) at t = 0
        report = family_qsl_report(p, theta, theta)
        assert report.t_qsl == report.entropy_change == 0.0
        assert report.mean_sqrt_capacity == family_sqrt_capacity(p, theta, 0.0)
        assert np.array_equal(family_qsl_curve(p, theta, [theta]), [0.0])

    def test_window_of_subnormal_schmidt_weights(self):
        # 2 theta T = 2e-160 from the product state: the smaller Schmidt weight is subnormal at every
        # node, and ΔS = 1.1e-317 keeps only a few digits, so T_qsl is T to 1e-3
        report = family_qsl_report(1.0, 1e-80, 1e-80)
        assert 0.0 < report.mean_sqrt_capacity < 1e-150
        assert report.t_qsl == pytest.approx(1e-80, rel=1e-3)

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_mean_over_whole_periods(self, p):
        # sqrt(C) has period pi in 2 theta t, so its mean over m periods is its mean over one
        one = family_qsl_report(p, 0.5, np.pi).mean_sqrt_capacity
        for m in (2, 3, 7, 100, 318, 319, 12345, 10**6):
            assert family_qsl_report(p, 0.5, m * np.pi).mean_sqrt_capacity == pytest.approx(one, rel=1e-15, abs=0)

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_array_of_p_gives_one_row_per_p(self, theta):
        ps = np.linspace(0.0, 1.0, 20)
        durations = np.linspace(0.45 / 45.0, 0.45, 45)
        rows = family_qsl_curve(ps, theta, durations)
        assert rows.shape == (ps.size, durations.size)
        for p, row in zip(ps, rows):
            assert np.array_equal(row, family_qsl_curve(float(p), theta, durations))

    @pytest.mark.parametrize("thetas", [[0.5, 1.0], [0.5]])
    def test_theta_array_rejected(self, thetas):
        # theta is one scalar: a caller with several theta makes one call per theta
        with pytest.raises(DomainError, match="scalar"):
            family_qsl_curve(np.linspace(0.0, 1.0, 5), np.array(thetas), [0.1, 0.2])
        with pytest.raises(DomainError, match="scalar"):
            family_qsl_report(0.3, np.array(thetas), 0.2)

    @pytest.mark.parametrize("bad", [0.0, -0.5, np.nan, np.inf])
    def test_any_bad_theta_in_array_rejected(self, bad):
        with pytest.raises(DomainError, match="theta"):
            family_qsl_curve(0.3, np.array([0.5, bad, 1.0]), [0.1, 0.2])

    def test_theta_of_two_dimensions_rejected(self):
        with pytest.raises(DomainError, match="scalar"):
            family_qsl_curve(0.3, np.ones((2, 2)), [0.1])

    @pytest.mark.parametrize("bad", [-1e-12, 1.0 + 1e-12, np.nan])
    def test_out_of_range_p_in_array_rejected(self, bad):
        with pytest.raises(DomainError):
            family_qsl_curve(np.array([0.0, 0.5, bad, 1.0]), 1.0, [0.1, 0.2])

    @pytest.fixture
    def evaluated(self, monkeypatch):
        """Nodes the quadrature evaluates per family_sqrt_capacity call: one per (p, t) pair."""
        sizes = []
        inner = speed_limits.family_sqrt_capacity

        def counting(p, theta, t, base="2"):
            sizes.append(np.broadcast(p, t).size)
            return inner(p, theta, t, base)

        monkeypatch.setattr(speed_limits, "family_sqrt_capacity", counting)
        return sizes

    def test_report_counts_evaluated_nodes(self, evaluated):
        report = family_qsl_report(0.3, 1.0, 0.4)
        assert report.samples == sum(evaluated) > 0

    def test_verify_grid_evaluation_count(self, evaluated, fresh_run_bounds):
        # 40 curves of 200001 trapezoid nodes made 8,000,040 evaluations
        results = fresh_run_bounds(20, 0)
        assert all(r.passed for r in results if r.hard)
        assert 0 < sum(evaluated) <= 100_000


class TestQSLTimeDependent:
    def test_zero_change(self):
        h = NonlocalHamiltonian(mu=(1.0, 1.0, 1.0)).matrix()
        bell = BipartitePureState(np.array([1.0, 0, 0, 1]) / np.sqrt(2), 2, 2)
        report = qsl_time_dependent(lambda t: h, bell, 0.5, samples=201)
        assert report.t_qsl == 0.0

    def test_constant_hamiltonian_bound_holds(self):
        # pins this drive's T_qsl <= T; the printed formula is no bound in
        # general (see test_late_pulse_exceeds_its_window)
        h = NonlocalHamiltonian(mu=(1.0, 0.0, 0.0)).matrix()
        for T in (0.1, 0.3, 0.45):
            report = qsl_time_dependent(lambda t: h, two_term_state(1.0), T, samples=2001)
            assert report.t_qsl <= T + 1e-6

    def test_modulated_hamiltonian_bound_holds(self):
        # pins T_qsl <= T for this drive and these five states only, not a bound
        h = NonlocalHamiltonian(mu=(1.0, 0.3, 0.1)).matrix()
        rng = np.random.default_rng(2)
        for _ in range(5):
            z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            z /= np.linalg.norm(z)
            psi = BipartitePureState(z, 2, 2)
            report = qsl_time_dependent(lambda t: np.sin(t) * h, psi, 0.8, samples=2001)
            assert report.t_qsl <= 0.8 + 1e-6

    @pytest.mark.parametrize("base, ratio", [("2", 3.92460), ("e", 3.26744)])
    def test_late_pulse_exceeds_its_window(self, base, ratio):
        # H(t) = 10 XX on [0.95, 1] only, from |00>: the printed formula is not
        # a lower bound on T, as qsl_time_dependent's docstring says
        h = 10.0 * NonlocalHamiltonian(mu=(1.0, 0.0, 0.0)).matrix()
        off = np.zeros((4, 4))
        report = qsl_time_dependent(lambda t: h if t >= 0.95 else off, two_term_state(1.0), 1.0,
                                    samples=2001, base=base)
        assert report.t_qsl / report.duration == pytest.approx(ratio, rel=0, abs=5e-6)

    def test_demo_report_pinned(self):
        # the demo's drive; stepping, Schmidt data and both averages are pinned to the bit
        h = NonlocalHamiltonian(mu=(1.0, 0.3, 0.1)).matrix()
        report = qsl_time_dependent(lambda t: np.sin(t) * h, haar_random_pure(2, 2, 7), 0.8, samples=2001)
        assert repr(report.t_qsl) == "0.1709025561655923"  # a Python float
        assert repr(report.mean_sqrt_capacity) == "0.7854838279640183"
        assert repr(report.mean_fluctuation) == "0.32908972361951094"
        assert repr(report.entropy_change) == "-0.09969227321093159"

    # the window, the sample count and the drive's dimension are checked
    # before any stepping; a 2x2 drive does not act on a two-qubit state
    @pytest.mark.parametrize("duration, samples, h", [
        pytest.param(duration, samples, NonlocalHamiltonian(mu=(1.0, 0.3, 0.1)).matrix(), id=f"{duration}-{samples}")
        for duration, samples in ((-1.0, 201), (0.0, 201), (np.nan, 201), (np.inf, 201), (0.5, 1), (0.5, 0),
                                  (0.5, 2.5), (0.5, np.float64(3.0)))
    ] + [pytest.param(0.5, 201, np.diag([1.0, -1.0]), id="2x2-drive")])
    def test_impossible_window_rejected(self, duration, samples, h):
        with pytest.raises(DomainError):
            qsl_time_dependent(lambda t: h, two_term_state(1.0), duration, samples=samples)

    def test_time_stepping_matches_exact_for_constant(self):
        ham = NonlocalHamiltonian(mu=(1.1, 0.4, 0.2))
        h = ham.matrix()
        psi = haar_random_pure(2, 2, 5)
        times = np.linspace(0.0, 0.7, 101)
        amps = _step_time_dependent(lambda t: h, psi.amplitudes, times)
        assert amps.shape == (101, 4)
        exact = simulate_trajectory(ham, psi, [0.7]).amplitudes[0]
        overlap = abs(np.vdot(amps[-1], exact))
        assert overlap == pytest.approx(1.0, abs=1e-10)
