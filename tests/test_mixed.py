import itertools
import math
from collections import Counter

import numpy as np
import pytest

from entcap import mixed
from entcap.core import (
    BipartitePureState,
    DensityOperator,
    DomainError,
    density_from_pure,
    haar_random_pure,
    partial_trace,
    relative_entropy,
    trace_distance,
    von_neumann_entropy,
)
from entcap.measures import capacity_pure
from entcap.mixed import (
    PPT_TOL,
    capacity_mixed,
    closest_separable_family,
    closest_separable_numeric,
    closest_separable_pure,
    family_relative_entropy,
    family_state,
    is_ppt,
    partial_transpose,
    project_separable,
)

BELL = BipartitePureState(np.array([1.0, 0, 0, 1.0]) / np.sqrt(2), 2, 2)


def family_closest(family, lam):
    return closest_separable_family(family, lam).sigma_star


def two_term_state(p):
    return BipartitePureState(np.array([np.sqrt(p), 0, 0, np.sqrt(1 - p)]), 2, 2)


def same_solve(a, b):
    """Bit-identical results: sigma*, E_R, iterations, method, converged and work."""
    return (np.array_equal(a.sigma_star.matrix, b.sigma_star.matrix)
            and (a.relative_entropy, a.iterations, a.method, a.converged, a.work)
            == (b.relative_entropy, b.iterations, b.method, b.converged, b.work))


def barrier_solve(rho, base="e"):
    """closest_separable_numeric's barrier alone, given what the dispatcher computes first: for inputs that
    pin barrier work and that an exact path would otherwise take (family 2 is maximally correlated)."""
    r = rho.matrix
    return mixed._barrier_solve(r, np.linalg.eigh(r)[0], np.linalg.eigvalsh(partial_transpose(rho))[0], base)


class TestPartialTranspose:
    def test_product_state_stays_psd(self):
        rho_a = np.diag([0.7, 0.3])
        rho_b = np.diag([0.2, 0.8])
        rho = DensityOperator(np.kron(rho_a, rho_b), d_a=2, d_b=2)
        assert np.linalg.eigvalsh(partial_transpose(rho)).min() >= -1e-12

    def test_bell_negative_eigenvalue(self):
        rho = density_from_pure(BELL)
        rho = DensityOperator(rho.matrix, d_a=2, d_b=2)
        w = np.linalg.eigvalsh(partial_transpose(rho))
        assert w.min() == pytest.approx(-0.5, abs=1e-12)

    def test_involution_exact(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = DensityOperator((g @ g.conj().T) / np.trace(g @ g.conj().T).real, d_a=2, d_b=2)
        twice = partial_transpose(partial_transpose(rho))
        assert np.array_equal(twice, rho.matrix)


class TestIsPPT:
    def test_maximally_mixed(self):
        assert is_ppt(DensityOperator(np.eye(4) / 4, d_a=2, d_b=2))

    def test_bell_fails(self):
        rho = DensityOperator(density_from_pure(BELL).matrix, d_a=2, d_b=2)
        assert not is_ppt(rho)

    def test_family1_product_endpoint(self):
        assert is_ppt(family_state(1, 0.0))

    def test_family_closest_states_are_ppt(self):
        for lam in (0.0, 0.3, 0.7, 1.0):
            assert is_ppt(family_closest(1, lam))
            assert is_ppt(family_closest(2, lam))


def random_hermitian(rng, scale, shift):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return scale * (g + g.conj().T) / 2.0 + shift * np.eye(4)


def random_pure(rng):
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_state(rng, rank):
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real, d_a=2, d_b=2)


def local_unitary(rng):
    """Haar-random U_A ⊗ U_B."""
    def haar(d):
        q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        return q * (np.diag(r) / np.abs(np.diag(r)))

    return np.kron(haar(2), haar(2))


def rotated(rho, u):
    return DensityOperator(u @ rho.matrix @ u.conj().T, d_a=2, d_b=2)


def random_separable(rng, terms):
    weights = rng.dirichlet(np.ones(terms))
    return sum(w * np.kron(random_pure(rng), random_pure(rng)) for w in weights)


def hermitian_cases(n=100):
    """Spectral scales 1e-3 and 10 at shifts -2 and 2, then n seeded draws of both across those ranges.

    A spectral scale of 1e-3 to 10 around any trace puts inputs near the set, far from it and on the
    trace <= 0 side.
    """
    rng = np.random.default_rng(2028)
    edges = [(k, scale, shift) for k, (scale, shift) in enumerate(itertools.product((1e-3, 10.0), (-2.0, 2.0)))]
    drawn = [(int(rng.integers(2**32)), 10.0 ** rng.uniform(-3.0, 1.0), rng.uniform(-2.0, 2.0)) for _ in range(n)]
    return [random_hermitian(np.random.default_rng(seed), scale, shift) for seed, scale, shift in edges + drawn]


class TestProjectSeparable:
    def test_output_is_a_ppt_density_operator(self):
        for m in hermitian_cases():
            p = project_separable(m)
            assert np.linalg.eigvalsh(p).min() >= -1e-12
            assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(partial_transpose(p)).min() >= -PPT_TOL

    def test_product_mixture_is_a_fixed_point(self):
        rng = np.random.default_rng(2029)
        # 1 to 6 terms, both ends first
        for terms in [1, 6, *rng.integers(1, 7, 100)]:
            s = random_separable(rng, int(terms))
            assert np.abs(project_separable(s) - s).max() <= 1e-10

    def test_projection_is_optimal(self):
        # variational inequality of the projection onto a convex set
        rng = np.random.default_rng(2030)
        for m in hermitian_cases():
            p = project_separable(m)
            for terms in (1, 2, 4):
                s = random_separable(rng, terms)
                assert np.trace((m - p) @ (s - p)).real <= 1e-8


class TestClosestSeparablePure:
    def test_product_state(self):
        psi = BipartitePureState(np.array([0, 1.0, 0, 0]), 2, 2)
        approx = closest_separable_pure(psi)
        assert approx.relative_entropy == pytest.approx(0.0, abs=1e-12)
        assert np.abs(approx.sigma_star.matrix - density_from_pure(psi).matrix).max() < 1e-12

    def test_bell(self):
        approx = closest_separable_pure(BELL, base="e")
        assert approx.relative_entropy == pytest.approx(math.log(2), abs=1e-12)

    def test_two_term_binary_entropy(self):
        for p in (0.1, 0.3, 0.45):
            approx = closest_separable_pure(two_term_state(p), base="e")
            expected = -(p * math.log(p) + (1 - p) * math.log(1 - p))
            assert approx.relative_entropy == pytest.approx(expected, abs=1e-10)

    def test_haar_states_match_entanglement_entropy(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            psi = haar_random_pure(2, 2, rng)
            approx = closest_separable_pure(psi, base="e")
            assert approx.relative_entropy == pytest.approx(
                capacity_pure(psi, "e").entropy, abs=1e-10
            )
            assert is_ppt(approx.sigma_star)


class TestAnalyticFamilies:
    def test_family1_endpoints(self):
        assert closest_separable_family(1, 0.0).relative_entropy == pytest.approx(0.0, abs=1e-12)
        assert closest_separable_family(1, 1.0).relative_entropy == pytest.approx(math.log(2), abs=1e-10)
        assert family_relative_entropy(1, 1.0) == pytest.approx(math.log(2), abs=1e-14)

    def test_family1_closed_form_matches_numeric(self):
        for lam in np.linspace(0.0, 1.0, 101):
            numeric = relative_entropy(family_state(1, lam), family_closest(1, lam), "e")
            assert numeric == pytest.approx(family_relative_entropy(1, lam), abs=1e-8)

    def test_family2_closed_form_matches_numeric(self):
        for lam in np.linspace(0.0, 1.0, 101):
            numeric = relative_entropy(family_state(2, lam), family_closest(2, lam), "e")
            assert numeric == pytest.approx(family_relative_entropy(2, lam), abs=1e-8)

    def test_family2_endpoint_is_bell_value(self):
        # lam = 1 reduces to the Bell state, so the value must match the
        # pure-state relative entropy of entanglement
        assert family_relative_entropy(2, 1.0) == pytest.approx(math.log(2), abs=1e-14)
        assert closest_separable_family(2, 1.0).relative_entropy == pytest.approx(math.log(2), abs=1e-10)

    def test_printed_weights_normalize(self):
        for lam in (0.2, 0.5, 0.9):
            assert np.trace(family_closest(1, lam).matrix).real == pytest.approx(1.0, abs=1e-12)
            assert np.trace(family_closest(2, lam).matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_base_conversion(self):
        assert family_relative_entropy(1, 0.7, 2) == pytest.approx(
            family_relative_entropy(1, 0.7, "e") / math.log(2), abs=1e-12
        )


    @pytest.mark.parametrize("lam", [math.nan, -1e-12, 1.0 + 1e-12, math.inf])
    def test_lambda_outside_unit_interval_rejected(self, lam):
        # nan once reached LAPACK (family_state) or came back as nan (the closed form)
        for family in (1, 2):
            for call in (family_state, family_relative_entropy, closest_separable_family):
                with pytest.raises(DomainError):
                    call(family, lam)
            with pytest.raises(DomainError):
                mixed._family_matrices(family, np.array([0.5, lam]))

    def test_unknown_family_rejected(self):
        with pytest.raises(DomainError):
            family_state(3, 0.5)

    @pytest.mark.parametrize("family", [1, 2])
    def test_stacked_over_lambda(self, family):
        lams = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        rho, sigma = mixed._family_matrices(family, lams)
        closed = family_relative_entropy(family, lams)
        assert rho.shape == sigma.shape == (3, 4, 4, 4) and closed.shape == (3, 4)
        for idx in np.ndindex(lams.shape):
            lam = float(lams[idx])
            assert np.array_equal(family_state(family, lam).matrix, DensityOperator(rho[idx]).matrix)
            assert np.array_equal(family_closest(family, lam).matrix, DensityOperator(sigma[idx]).matrix)
            assert closed[idx] == family_relative_entropy(family, lam)


class TestNumericSolver:
    def test_separable_input(self):
        rho_a = np.diag([0.7, 0.3])
        rho_b = np.diag([0.2, 0.8])
        rho = DensityOperator(np.kron(rho_a, rho_b), d_a=2, d_b=2)
        result = closest_separable_numeric(rho)
        # PPT is separable for two qubits, so the input is its own closest state
        assert result.relative_entropy == 0.0
        assert result.sigma_star is rho
        assert result.converged and result.method == "exact-ppt"

    def test_ppt_shortcut_is_strict(self):
        # near the PPT boundary E_R can be as large as |lambda_min(rho^Γ)|: family 1 at lam = 2e-4
        # has lambda_min = -1.0e-8 and E_R = 1.0e-8, so a shortcut within PPT_TOL would report 0
        # with an error of PPT_TOL.  The solver's shortcut takes lambda_min >= 0 only
        lam_min = np.linalg.eigvalsh(partial_transpose(family_state(1, 2e-4)))[0]
        assert family_relative_entropy(1, 2e-4) == pytest.approx(-lam_min, rel=1e-3)
        assert lam_min == pytest.approx(-PPT_TOL, rel=1e-3)
        # family 1 at lam = 0.3 mixed with I/4 to lambda_min = -1e-9: PPT to is_ppt, solved numerically
        rho = family_state(1, 0.3).matrix
        least = np.linalg.eigvalsh(partial_transpose(rho))[0]
        q = (-1e-9 - least) / (0.25 - least)
        mixed_state = DensityOperator((1.0 - q) * rho + q * np.eye(4) / 4.0, d_a=2, d_b=2)
        assert np.linalg.eigvalsh(partial_transpose(mixed_state))[0] == pytest.approx(-1e-9, rel=1e-6)
        assert is_ppt(mixed_state)
        result = closest_separable_numeric(mixed_state)
        assert result.method == "numeric-ppt" and result.converged and result.iterations > 0
        assert 0.0 <= result.relative_entropy <= 1e-12

    def test_family1_midpoint(self):
        rho = family_state(1, 0.5)
        result = closest_separable_numeric(rho)
        assert result.relative_entropy == pytest.approx(family_relative_entropy(1, 0.5), abs=1e-5)
        assert trace_distance(result.sigma_star, family_closest(1, 0.5)) <= 1e-3

    def test_bell(self):
        rho = DensityOperator(density_from_pure(BELL).matrix, d_a=2, d_b=2)
        result = closest_separable_numeric(rho)
        assert result.relative_entropy == pytest.approx(math.log(2), abs=1e-5)

    def test_never_beats_analytic_families(self):
        for family in (1, 2):
            for lam in (0.25, 0.5, 0.75):
                result = closest_separable_numeric(family_state(family, lam))
                analytic = family_relative_entropy(family, lam)
                assert result.relative_entropy >= analytic - 1e-6
                assert result.relative_entropy <= analytic + 1e-6

    def test_sigma_star_feasible(self):
        result = closest_separable_numeric(family_state(2, 0.6))
        sigma = result.sigma_star
        assert np.linalg.eigvalsh(partial_transpose(sigma)).min() >= -1e-8
        assert np.trace(sigma.matrix).real == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("family,lam", [(1, 0.01), (1, 0.99), (2, 0.095)])
    def test_family_edge_cases(self, family, lam):
        # family 1 near either end is where backtracking along the feasible
        # segment reports convergence far from the minimum; family 2 at 0.095
        # is where plain step halving needs hundreds of iterations
        result = barrier_solve(family_state(family, lam))
        assert result.converged
        assert result.relative_entropy == pytest.approx(family_relative_entropy(family, lam), abs=1e-6)

    def test_eigh_count(self, monkeypatch):
        # one batched eigh of sigma and sigma^Γ per barrier point (a change of mu
        # reuses the last one), one of the four 4x4 relative-entropy blocks per
        # Newton system, one of rho, no 15x15 Hessian eigh and no projection: E_R
        # comes from the last point and rho's spectrum.  15 and 63 point eighs in
        # 14 and 24 Newton systems; 1 and 39 of those points lie outside the cone,
        # the 39 at the level at 1e-13.  One triangular solve per Newton system: a
        # step, or at a centred level's last system the next level's tangent; the
        # last level has no next.  The eigh and solve counts are numpy's, and each
        # matches a column of the solver's own record.  Family 2 is maximally
        # correlated, so it runs the barrier alone; the rank-2 state runs the public
        # function, whose failed maximally-correlated test adds one (2, 2, 2) eigh
        def no_projection(m):
            raise AssertionError("closest_separable_numeric called project_separable")

        monkeypatch.setattr(mixed, "project_separable", no_projection)
        eigh, solve = np.linalg.eigh, np.linalg.solve
        shapes: Counter = Counter()

        def counted_eigh(m):
            shapes[np.shape(m)] += 1
            w, v = eigh(m)
            shapes["outside"] += np.shape(m) == (2, 4, 4) and min(w[:, 0]) <= 0.0
            return w, v

        def counted_solve(a, b):
            shapes["solve"] += 1
            return solve(a, b)

        inputs = ((barrier_solve, family_state(2, 0.095), 15, 14, 1, 0),
                  (closest_separable_numeric, random_state(np.random.default_rng(17), 2), 63, 24, 39, 1))
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        for run, rho, point_eighs, systems, outside_points, reduced_eighs in inputs:
            shapes.clear()
            result = run(rho)
            newton, _, points, outside = np.sum(result.work, axis=0)
            assert result.method == "numeric-ppt" and result.converged and result.iterations > 0
            assert shapes[(15, 15)] == 0
            assert shapes[(2, 2, 2)] == reduced_eighs
            assert shapes[(2, 4, 4)] == points == point_eighs
            assert shapes["outside"] == outside == outside_points
            assert shapes[(4, 4)] == 1
            assert shapes[(4, 4, 4)] == newton == systems
            assert shapes["solve"] == newton - 1
        # a pure input takes the Schmidt dephasing: no barrier point, no Newton system
        shapes.clear()
        result = closest_separable_numeric(random_state(np.random.default_rng(17), 1))
        assert result.method == "exact-pure" and result.iterations == 0 and not np.any(result.work)
        assert shapes[(2, 4, 4)] == shapes[(4, 4, 4)] == shapes["solve"] == 0


def interior_point(rho, rng, scale):
    """A _barrier_point at random Pauli coordinates of the given scale, redrawn
    until sigma and sigma^Γ are positive definite."""
    while (point := mixed._barrier_point(rho.matrix, scale * rng.standard_normal(15))) is None:
        pass
    return point


def formed_entropy_hessian(f2, r, b):
    """The Hessian of -tr rho log sigma formed entry by entry (Daleckii-Krein),
    -sum_ikj r_ji f2_ikj (B_a,ik B_b,kj + B_b,ik B_a,kj): the block factor's reference."""
    z = (r.T[:, None, :] * f2).transpose(1, 0, 2) @ b.transpose(1, 2, 0)
    k = b.transpose(0, 2, 1).reshape(15, 16) @ z.reshape(16, 15)
    return -(k + k.T).real


class TestEntropyFactor:
    # scale 0 puts every eigenvalue at 1/4 and 1e-7 within 1e-5 of each other,
    # the f''/2 branch of the second divided difference
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    @pytest.mark.parametrize("scale", [0.0, 1e-7, 0.02, 0.08])
    def test_block_factor_reproduces_formed_hessian(self, rank, scale):
        rng = np.random.default_rng(100 * rank + int(1e3 * scale))
        for _ in range(10):
            rho = random_state(rng, rank)
            w, v, lw, r, *_ = interior_point(rho, rng, scale)
            b = v[0].conj().T @ mixed._BASIS @ v[0]
            _, nf2 = mixed._log_divided_differences(w[0], lw[0])
            c = mixed._entropy_factor(nf2, r, b)
            reference = formed_entropy_hessian(-nf2, r, b)
            assert np.abs((c.conj().T @ c).real - reference).max() <= 1e-13 * np.abs(reference).max()

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_blocks_are_psd(self, rank):
        rng = np.random.default_rng(rank)
        for scale in (0.0, 1e-7, 0.02, 0.08):
            for _ in range(10):
                w, _, lw, r, *_ = interior_point(random_state(rng, rank), rng, scale)
                lam = np.linalg.eigvalsh(mixed._log_divided_differences(w[0], lw[0])[1] * r.T)
                assert (lam[:, 0] >= -1e-12 * lam[:, -1]).all()

    def test_divided_differences_match_definitions(self):
        w = np.array([0.01, 0.2, 0.3, 0.49])
        f1, nf2 = mixed._log_divided_differences(w, np.log(w))

        def first(p, q):
            return 1.0 / p if p == q else (math.log(p) - math.log(q)) / (p - q)

        for i, j, k in np.ndindex(4, 4, 4):
            assert f1[i, j] == pytest.approx(first(w[i], w[j]), rel=1e-13)
            lo, mid, hi = sorted((w[i], w[j], w[k]))
            second = -0.5 / lo**2 if lo == hi else (first(lo, mid) - first(mid, hi)) / (lo - hi)
            assert -nf2[i, j, k] == pytest.approx(second, rel=1e-12)


def direct_gradient(point, mu):
    """Gradient of F_mu in the Pauli coordinates and its barrier part (Daleckii-Krein),
    -tr(B_a Dlog_sigma[rho]) - mu tr(sigma^-1 B_a) - mu tr((sigma^Γ)^-1 B_a^Γ) with
    Dlog_sigma[rho] = V (f1 ∘ V^† rho V) V^†, each with the summed magnitude of its terms."""
    w, v, lw, r, *_ = point
    b = v[:, None].conj().transpose(0, 1, 3, 2) @ mixed._BASES @ v[:, None]
    bar = mu * b.diagonal(axis1=-2, axis2=-1).real / w[:, None]
    f1 = mixed._log_divided_differences(w[0], lw[0])[0]
    ent = np.einsum("aij,ji,ji->aij", b[0], f1, r).real
    g_bar, bar_size = -bar.sum((0, 2)), np.abs(bar).sum((0, 2))
    return (g_bar - ent.sum((1, 2)), bar_size + np.abs(ent).sum((1, 2))), (g_bar, bar_size)


class TestGradientColumns:
    # the two columns appended to the QR carry the gradient without a solve:
    # R^T Q^T c = (j s)^T c = s g and R^T Q^T e = s g_bar, from c = -j vec(sigma)
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    @pytest.mark.parametrize("scale", [0.0, 1e-7, 0.02, 0.08])
    def test_columns_reproduce_direct_gradient(self, rank, scale):
        rng = np.random.default_rng(100 * rank + int(1e3 * scale))
        for mu in np.repeat(10.0 ** -np.arange(0.0, 13.0, 3.0), 2):  # 1, 1e-3, ..., 1e-12
            point = interior_point(random_state(rng, rank), rng, scale)
            upper, s, qc, qe = mixed._newton_system(mu, *point[:4])
            (g, g_size), (g_bar, bar_size) = direct_gradient(point, mu)
            # a spectrum spread under 1e-5 takes f''/2 at the mean for every second
            # divided difference, which -j vec(sigma) inherits: (spread / w)^2 bounds it
            spread = 1.0 - point[0][0, 0] / point[0][0, -1]
            tol = 1e-13 + (spread**2 if spread < 1e-5 else 0.0)
            assert np.abs(upper.T @ qc - s * g).max() <= tol * (s * g_size).max()
            assert np.abs(upper.T @ qe - s * g_bar).max() <= 1e-13 * (s * bar_size).max()


def formed_barrier_hessian(point, mu):
    """F_mu's Hessian formed entry by entry: the entropy part, then
    mu tr(sigma^-1 B_a sigma^-1 B_b) + mu tr((sigma^Γ)^-1 B_a^Γ (sigma^Γ)^-1 B_b^Γ)."""
    w, v, lw, r, *_ = point
    b = v[0].conj().T @ mixed._BASIS @ v[0]
    h = formed_entropy_hessian(-mixed._log_divided_differences(w[0], lw[0])[1], r, b)
    p = (v / w[:, None, :]) @ v.conj().transpose(0, 2, 1) @ mixed._BASES.transpose(1, 0, 2, 3)  # (15, 2, 4, 4)
    return h + mu * np.einsum("akij,bkji->ab", p, p).real


class TestNewtonFactor:
    # the factor's R is that of [j s; 1e-10 I], so R^T R is the scaled Hessian
    # plus the ridge's 1e-20 I, with j's rows in whatever layout
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    @pytest.mark.parametrize("scale", [0.0, 1e-7, 0.02, 0.08])
    def test_factor_reproduces_formed_hessian(self, rank, scale):
        rng = np.random.default_rng(100 * rank + int(1e3 * scale))
        for mu in np.repeat(10.0 ** -np.arange(0.0, 13.0, 3.0), 2):  # 1, 1e-3, ..., 1e-12
            point = interior_point(random_state(rng, rank), rng, scale)
            upper, s, *_ = mixed._newton_system(mu, *point[:4])
            reference = s[:, None] * formed_barrier_hessian(point, mu) * s + 1e-20 * np.eye(15)
            assert np.abs(upper.T @ upper - reference).max() <= 1e-13


# (name, E_R, accepted steps, converged) with the barrier started at mu = 1e-2 from
# rho mixed just inside the PPT cone, over the six levels of mixed._MU_LEVELS.  The
# E_R were recorded with 1e-2 to 1e-10 by factors of 100, then 1e-13, and moved by
# at most 1.2e-14 since.  The last number in each test id is the step count of the
# factor-10 schedule; the ids are kept as they were so that the test names stay stable
SOLVER_PANEL = [
    pytest.param("family1-0.095", 0.002369749194139773, 19, True, id="family1-0.095-0.002369749194139773-42-True"),
    pytest.param("family2-0.095", 0.00752419061134689, 13, True, id="family2-0.095-0.00752419061134689-35-True"),
    pytest.param("family1-0.25", 0.017918382754278338, 19, True, id="family1-0.25-0.017918382754278338-41-True"),
    pytest.param("family2-0.25", 0.04144846783551798, 14, True, id="family2-0.25-0.04144846783551798-34-True"),
    pytest.param("family1-0.49", 0.08096094773267903, 14, True, id="family1-0.49-0.08096094773267903-35-True"),
    pytest.param("family2-0.49", 0.14040423860106088, 15, True, id="family2-0.49-0.14040423860106088-35-True"),
    pytest.param("family1-0.7", 0.19882594962260947, 14, True, id="family1-0.7-0.19882594962260947-34-True"),
    pytest.param("family2-0.7", 0.28209593891628126, 16, True, id="family2-0.7-0.28209593891628126-37-True"),
    pytest.param("family1-0.95", 0.52678825353254, 15, True, id="family1-0.95-0.52678825353254-38-True"),
    pytest.param("family2-0.95", 0.577407324096147, 18, True, id="family2-0.95-0.577407324096147-36-True"),
    pytest.param("rank2-1", 0.08068291938320632, 14, True, id="rank2-1-0.08068291938320632-38-True"),
    pytest.param("rank2-2", 0.11279293517047784, 20, True, id="rank2-2-0.11279293517047784-41-True"),
    pytest.param("rank2-3", 0.04464338848872108, 21, True, id="rank2-3-0.04464338848872108-40-True"),
    pytest.param("rank4-1", 0.06623020581814715, 14, True, id="rank4-1-0.06623020581814715-32-True"),
    pytest.param("rank4-2", 0.09813402706558755, 11, True, id="rank4-2-0.09813402706558755-32-True"),
    pytest.param("rank4-3", 0.0959581090872067, 12, True, id="rank4-3-0.0959581090872067-33-True"),
]


def panel_state(name):
    kind, arg = name.split("-")
    if kind.startswith("family"):
        return family_state(int(kind[-1]), float(arg))
    rho = random_state(np.random.default_rng(int(arg)), int(kind[-1]))
    if kind == "rank4":
        # a Bell admixture keeps the full-rank states entangled
        rho = DensityOperator(0.4 * rho.matrix + 0.6 * density_from_pure(BELL).matrix, d_a=2, d_b=2)
    return rho


class TestSolverPanel:
    # the barrier's recorded step counts, converged flags and E_R to 1e-13 on both
    # families, rank-2 and entangled full-rank states.  Pure states left the
    # panel with the exact pure path (TestPurePath); family 2 is maximally
    # correlated, so the public function solves it exactly (TestCorrelatedPath)
    # and the panel runs the barrier alone
    @pytest.mark.parametrize("name,e_r,iterations,converged", SOLVER_PANEL)
    def test_matches_recorded_solves(self, name, e_r, iterations, converged):
        rho = panel_state(name)
        result = barrier_solve(rho)
        assert result.iterations == iterations == sum(row[1] for row in result.work)
        assert result.converged is converged
        assert abs(result.relative_entropy - e_r) <= 1e-13
        # the level at 1e-13 is centred at once: one Newton system, and its one step is the tangent
        assert result.work[-1][:2] == (1, 1)
        public = closest_separable_numeric(rho)
        if name.startswith("family2"):
            assert public.method == "exact-correlated"
            assert 0.0 <= result.relative_entropy - public.relative_entropy <= 1e-12
        else:
            assert same_solve(public, result)

    @staticmethod
    def panel_counts():
        """Newton systems, accepted steps, barrier points and points outside the cone
        (sigma or sigma^Γ not positive definite) per panel solve, summed over the levels."""
        works = [barrier_solve(panel_state(param.values[0])).work for param in SOLVER_PANEL]
        return np.sum(works, axis=1).mean(axis=0)

    def test_mean_newton_systems(self):
        assert self.panel_counts()[0] <= 16.5625

    def test_mean_barrier_points(self):
        # the rough level at 1e-3 keeps the full Newton steps at 1e-4 inside the cone
        _, _, points, outside = self.panel_counts()
        assert points <= 20.0625
        assert outside <= 2.8125

    @pytest.mark.parametrize("method,approx", [pytest.param(method, approx, id=method) for method, approx in (
        ("exact-ppt", lambda: closest_separable_numeric(family_state(1, 0.0))),
        ("exact-pure", lambda: closest_separable_numeric(density_from_pure(BELL))),
        ("exact-correlated", lambda: closest_separable_numeric(family_state(2, 0.5))),
        ("analytic-family-1", lambda: closest_separable_family(1, 0.5)),
        ("analytic-family-2", lambda: closest_separable_family(2, 0.5)),
        ("analytic-pure", lambda: closest_separable_pure(BELL)),
    )])
    def test_other_paths_do_no_work(self, method, approx):
        # every path but the barrier reports all-zero rows of the barrier's shape
        result = approx()
        assert result.method == method
        assert np.shape(result.work) == (len(mixed._MU_LEVELS), 4) and not np.any(result.work)


BELL_BASIS = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / np.sqrt(2)


def bell_diagonal(weights):
    return DensityOperator(np.einsum("k,ki,kj->ij", weights, BELL_BASIS, BELL_BASIS).astype(complex),
                           d_a=2, d_b=2)


def bell_diagonal_ree(fidelity):
    """Vedral-Plenio: E_R = ln 2 + F ln F + (1-F) ln(1-F) above F = 1/2, else 0."""
    if fidelity <= 0.5:
        return 0.0
    return math.log(2) + fidelity * math.log(fidelity) + (
        (1 - fidelity) * math.log(1 - fidelity) if fidelity < 1 else 0.0)


def werner(fidelity):
    others = (1 - fidelity) / 3
    return (fidelity, others, others, others)


class TestSolverReferences:
    # the largest Bell weight F fixes E_R whatever the other three weights are;
    # F = 1/2 sits on the PPT boundary and F = 1 is the Bell state
    @pytest.mark.parametrize("weights", [
        (0.5, 0.5, 0.0, 0.0), (0.5, 1 / 6, 1 / 6, 1 / 6), (0.6, 0.4, 0.0, 0.0), (0.7, 0.1, 0.1, 0.1),
        (0.8, 0.2, 0.0, 0.0), (0.9, 0.05, 0.05, 0.0), (0.45, 0.3, 0.25, 0.0), (1.0, 0.0, 0.0, 0.0),
        werner(0.25), werner(0.55), werner(0.75), werner(0.95),
    ])
    def test_bell_diagonal(self, weights):
        rng = np.random.default_rng(int(1000 * weights[0] + 10 * weights[1]))
        rho = rotated(bell_diagonal(np.array(weights)), local_unitary(rng))
        result = closest_separable_numeric(rho)
        assert result.converged
        assert abs(result.relative_entropy - bell_diagonal_ree(max(weights))) <= 1e-9
        assert is_ppt(result.sigma_star)


class TestSeededSweep:
    # random rank-2, -3 and -4 states and a Bell state with a full-rank admixture
    # of weight 1e-4 to 0.3, four solves per seed.  Over seeds 0-9 the most Newton
    # systems one solve takes is 28
    NEWTON_SYSTEMS = 28

    @pytest.mark.parametrize("seed", range(10))
    def test_converges_within_newton_bound(self, seed):
        rng = np.random.default_rng(seed)
        inputs = [random_state(rng, rank) for rank in (2, 3, 4)]
        p = 10.0 ** rng.uniform(-4.0, -0.5)
        bell = density_from_pure(BELL).matrix
        inputs.append(DensityOperator((1 - p) * bell + p * random_state(rng, 4).matrix, d_a=2, d_b=2))
        for rho in inputs:
            result = closest_separable_numeric(rho)
            assert result.converged and is_ppt(result.sigma_star)
            assert sum(row[0] for row in result.work) <= self.NEWTON_SYSTEMS


class TestWarmStart:
    # the barrier starts from rho mixed with I/4 just inside the PPT cone, at
    # mu = 1e-2: inputs at the PPT edge, at rho^Γ's far end (-1/2, near-Bell),
    # of every rank, and family states in a random local frame
    @pytest.mark.parametrize("kind", ["edge", "near-bell", "rank", "family"])
    def test_converges_to_ppt_sigma(self, kind):
        rng = np.random.default_rng(sum(map(ord, kind)))
        bell = density_from_pure(BELL).matrix
        cases = []  # (rho, closed-form E_R or None)
        if kind == "edge":
            # mixing with I/4 moves every eigenvalue of rho^Γ towards 1/4 alike
            for target in -(10.0 ** rng.uniform(-9.0, -1.0, 6)):
                base = rotated(DensityOperator(0.9 * bell + 0.1 * random_state(rng, 4).matrix, d_a=2, d_b=2),
                               local_unitary(rng)).matrix
                least = np.linalg.eigvalsh(partial_transpose(base))[0]
                t = (target - least) / (0.25 - least)
                cases.append((DensityOperator((1 - t) * base + t * np.eye(4) / 4, d_a=2, d_b=2), None))
        elif kind == "near-bell":
            for p in 10.0 ** rng.uniform(-6.0, -2.0, 4):
                cases.append((DensityOperator((1 - p) * bell + p * random_state(rng, 4).matrix, d_a=2, d_b=2), None))
        elif kind == "rank":
            cases = [(random_state(rng, rank), None) for rank in (2, 3, 4) for _ in range(4)]
        else:
            for family in (1, 2):
                for lam in np.r_[1e-3, 0.999, rng.uniform(0.01, 0.99, 4)]:
                    cases.append((rotated(family_state(family, lam), local_unitary(rng)),
                                  family_relative_entropy(family, lam)))
        for rho, closed in cases:
            result = closest_separable_numeric(rho)
            assert result.converged and is_ppt(result.sigma_star)
            if closed is not None:
                assert abs(result.relative_entropy - closed) <= 1e-12


class TestFrameInvariance:
    # E_R is invariant under local unitaries; the barrier iterates are too, up
    # to rounding, so the step count may not depend on the frame either.  Family 2
    # runs the barrier alone, and the public function takes the exact path in every frame
    @pytest.mark.parametrize("kind", ["rank1", "rank2", "rank3", "rank4", "family1", "family2"])
    def test_local_unitary(self, kind):
        solve = barrier_solve if kind == "family2" else closest_separable_numeric
        rng = np.random.default_rng(sum(map(ord, kind)))
        if kind.startswith("family"):
            rho = family_state(int(kind[-1]), 0.05 + 0.9 * rng.random())
        else:
            # a Bell admixture keeps the random full-rank states entangled
            rho = random_state(rng, int(kind[-1]))
            if kind == "rank4":
                rho = DensityOperator(0.4 * rho.matrix + 0.6 * density_from_pure(BELL).matrix, d_a=2, d_b=2)
        base = solve(rho)
        # a pure input takes the exact path, every other kind the barrier
        assert base.converged and (base.iterations > 0) == (kind != "rank1")
        frames = [rho]
        for _ in range(3):
            frames.append(rotated(rho, local_unitary(rng)))
            turned = solve(frames[-1])
            assert turned.converged
            assert abs(turned.relative_entropy - base.relative_entropy) <= 1e-10
            assert abs(turned.iterations - base.iterations) <= 2
        if kind == "family2":
            assert all(closest_separable_numeric(m).method == "exact-correlated" for m in frames)


def pure_inputs(seed):
    """Haar states, locally rotated Bell states and locally rotated product states."""
    rng = np.random.default_rng(seed)
    for ket in (BELL.amplitudes, np.array([1.0, 0, 0, 0]), haar_random_pure(2, 2, rng).amplitudes):
        yield BipartitePureState(local_unitary(rng) @ ket, 2, 2)


class TestPurePath:
    # Vedral & Plenio: a pure state's closest separable state is its Schmidt
    # dephasing, so E_R = S(rho_A) and capacity_mixed = capacity_pure exactly.
    # The barrier landed 4e-13 and 6.8e-10 from them
    @pytest.mark.parametrize("seed", range(8))
    def test_exact_values(self, seed):
        for psi in pure_inputs(seed):
            rho = density_from_pure(psi)
            result = closest_separable_numeric(rho)
            exact = capacity_pure(psi, "e")
            assert result.iterations == 0 and result.converged
            assert abs(result.relative_entropy - exact.entropy) <= 1e-14
            assert abs(capacity_mixed(rho, result.sigma_star, "e") - exact.capacity) <= 1e-13
            if result.method == "exact-pure":  # a product state may pass the PPT test first
                sigma = closest_separable_pure(psi).sigma_star.matrix
                assert np.abs(result.sigma_star.matrix - sigma).max() <= 1e-14

    # rank-1 panel states, with the E_R the barrier reached in 38, 35 and 38 steps
    # with mu falling by factors of 10
    @pytest.mark.parametrize("name,barrier_e_r", [
        ("rank1-1", 0.47411052812684695),
        ("rank1-2", 0.49452449833977735),
        ("rank1-3", 0.3924607124509414),
    ])
    def test_panel_states(self, name, barrier_e_r):
        rho = panel_state(name)
        result = closest_separable_numeric(rho)
        assert result.method == "exact-pure" and result.iterations == 0
        assert abs(result.relative_entropy - von_neumann_entropy(partial_trace(rho, "A"))) <= 1e-14
        # the barrier stopped above the minimum, within its duality gap 8 mu = 8e-13
        assert 0.0 <= barrier_e_r - result.relative_entropy <= 1e-12
        assert is_ppt(result.sigma_star)

    def test_bell_in_base_two(self):
        result = closest_separable_numeric(density_from_pure(BELL), base=2)
        assert result.method == "exact-pure"
        assert result.relative_entropy == pytest.approx(1.0, abs=1e-15)


def correlated_inputs(seed):
    """Maximally correlated rank-2 states in random local frames: c_jk |jj><kk| summed over j, k in {0, 1},
    with c positive definite, c_00 at least 0.05 from 1/2 (so rho_A is not degenerate) and c_01 != 0 (entangled)."""
    rng = np.random.default_rng(seed)
    for _ in range(4):
        p = rng.uniform(0.05, 0.45) if rng.random() < 0.5 else rng.uniform(0.55, 0.95)
        z = math.sqrt(p * (1.0 - p)) * rng.uniform(0.05, 0.95) * np.exp(2j * np.pi * rng.random())
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0], m[3, 3], m[0, 3], m[3, 0] = p, 1.0 - p, z, np.conj(z)
        yield rotated(DensityOperator(m, d_a=2, d_b=2), local_unitary(rng))


class TestCorrelatedPath:
    # Rains: a maximally correlated state's closest separable state is its dephasing in the correlated
    # basis, so E_R = S(rho_A) - S(rho).  The barrier landed about 4e-13 above it
    @pytest.mark.parametrize("seed", range(8))
    def test_exact_values(self, seed):
        for rho in correlated_inputs(seed):
            result = closest_separable_numeric(rho)
            assert result.method == "exact-correlated" and result.converged
            assert result.iterations == 0 and not np.any(result.work)
            closed = von_neumann_entropy(partial_trace(rho, "A")) - von_neumann_entropy(rho)
            assert abs(result.relative_entropy - closed) <= 1e-14
            assert is_ppt(result.sigma_star)
            # the barrier stopped above the minimum, within its duality gap 8 mu = 8e-13
            assert 0.0 <= barrier_solve(rho).relative_entropy - result.relative_entropy <= 1e-12

    def test_family2_matches_closed_form(self):
        # sigma* to 1e-15 where rho holds the family's entries exactly (88 of these 99 lambda).  Where
        # DensityOperator's clamp of round-off negatives moved rho's entries by eta (at most 6.7e-16),
        # rho_A's eigenbasis turns by up to eta over its gap 1 - lam, and sigma* with it (1.7e-15 at 0.96)
        for lam in np.linspace(0.01, 0.99, 99):
            rho, analytic = family_state(2, lam), closest_separable_family(2, lam)
            eta = np.abs(rho.matrix - mixed._family_matrices(2, lam)[0]).max()
            result = closest_separable_numeric(rho)
            assert result.method == "exact-correlated"
            assert np.abs(result.sigma_star.matrix - analytic.sigma_star.matrix).max() <= 1e-15 + eta / (1.0 - lam)
            assert abs(result.relative_entropy - family_relative_entropy(2, lam)) <= 1e-14

    @pytest.mark.parametrize("kind", ["degenerate", "rank3", "tilted"])
    def test_near_correlated_falls_back(self, kind):
        # each runs the barrier, bit for bit as the barrier function alone
        rng = np.random.default_rng(sum(map(ord, kind)))
        if kind == "degenerate":
            # 0.6|Phi+><Phi+| + 0.4|Phi-><Phi-| is maximally correlated, but its rho_A = I/2 pins no basis
            rho = rotated(bell_diagonal(np.array([0.6, 0.4, 0.0, 0.0])), local_unitary(rng))
        elif kind == "rank3":
            # family 2 at 0.3 with 1e-9 of |01><01|: a third eigenvalue far above the support cutoff
            m = (1.0 - 1e-9) * family_state(2, 0.3).matrix
            m[1, 1] += 1e-9
            rho = DensityOperator(m, d_a=2, d_b=2)
        else:
            # family 2 at 0.3 with |00> tilted towards |01> by 1e-9 in weight: rank 2, outside the span by 7e-10
            tilt = np.array([math.sqrt(1.0 - 1e-9), math.sqrt(1e-9), 0.0, 0.0])
            m = 0.3 * density_from_pure(BELL).matrix + 0.7 * np.outer(tilt, tilt)
            rho = rotated(DensityOperator(m, d_a=2, d_b=2), local_unitary(rng))
            assert np.linalg.eigvalsh(rho.matrix)[1] <= 1e-12 * np.linalg.eigvalsh(rho.matrix)[3]
        result = closest_separable_numeric(rho)
        assert result.method == "numeric-ppt" and result.converged
        assert same_solve(result, barrier_solve(rho))

    def test_only_rank_two_pays(self, monkeypatch):
        # the test's one batched eigh of rho_A and rho_B runs on rank-2 inputs only
        eigh, shapes = np.linalg.eigh, Counter()

        def counted_eigh(m):
            shapes[np.shape(m)] += 1
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        rng = np.random.default_rng(5)
        bell = density_from_pure(BELL).matrix
        # a rotated Bell state, a rank-2 state and Bell admixtures to ranks 3 and 4
        inputs = [rotated(density_from_pure(BELL), local_unitary(rng)), random_state(rng, 2)]
        inputs += [DensityOperator(0.4 * random_state(rng, rank).matrix + 0.6 * bell, d_a=2, d_b=2) for rank in (2, 3)]
        for rank, rho in enumerate(inputs, start=1):
            assert np.sum(np.linalg.eigvalsh(rho.matrix) > 1e-12) == rank
            shapes.clear()
            result = closest_separable_numeric(rho)
            assert result.method == ("exact-pure" if rank == 1 else "numeric-ppt")
            assert shapes[(2, 2, 2)] == (rank == 2)


class TestCapacityMixed:
    def test_pure_reduction(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            psi = haar_random_pure(2, 2, rng)
            rho = DensityOperator(density_from_pure(psi).matrix, d_a=2, d_b=2)
            sigma = closest_separable_pure(psi).sigma_star
            assert capacity_mixed(rho, sigma, "e") == pytest.approx(
                capacity_pure(psi, "e").capacity, abs=1e-8
            )

    def test_family_flat_endpoints(self):
        for family in (1, 2):
            for lam in (0.0, 1.0):
                cap = capacity_mixed(family_state(family, lam), family_closest(family, lam), "e")
                assert cap == pytest.approx(0.0, abs=1e-8)

    def test_matches_observable_variance(self):
        from entcap.measures import modular_hamiltonian, observable_variance

        rho = family_state(1, 0.6)
        sigma = family_closest(1, 0.6)
        shift = modular_hamiltonian(sigma, "e") - modular_hamiltonian(rho, "e")
        assert capacity_mixed(rho, sigma, "e") == pytest.approx(
            observable_variance(shift, rho), abs=1e-10
        )

    def test_support_violation_raises(self):
        rho = DensityOperator(np.diag([0.5, 0.5, 0.0, 0.0]), d_a=2, d_b=2)
        sigma = DensityOperator(np.diag([0.0, 0.0, 0.5, 0.5]), d_a=2, d_b=2)
        with pytest.raises(DomainError):
            capacity_mixed(rho, sigma, "e")

    def test_positive_midpoint(self):
        cap = capacity_mixed(family_state(2, 0.5), family_closest(2, 0.5), "e")
        assert cap > 0.01

    def test_one_eigh_of_sigma(self, monkeypatch):
        # sigma's one eigendecomposition gives both its log and the support check:
        # two eigh calls per call, one of rho and one of sigma
        eigh, calls = np.linalg.eigh, Counter()

        def counted_eigh(m):
            calls["eigh"] += 1
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        rho, sigma = family_state(1, 0.6), family_closest(1, 0.6)
        for measure in (capacity_mixed, relative_entropy):
            calls.clear()
            measure(rho, sigma, "e")
            assert calls["eigh"] == 2


class TestFigureCurves:
    @pytest.mark.parametrize("family", [1, 2])
    def test_continuity_and_endpoints(self, family):
        # the capacity curve falls like (1-lam) log^2(1-lam) near lam = 1, so
        # adjacent jumps stay below 0.05 only at 1e-3 spacing, not at the
        # 101-point figure resolution
        lams = np.linspace(0.0, 1.0, 1001)
        caps = np.array([capacity_mixed(family_state(family, l), family_closest(family, l), "e") for l in lams])
        ers = np.array([relative_entropy(family_state(family, l), family_closest(family, l), "e") for l in lams])
        assert caps[0] == pytest.approx(0.0, abs=1e-8)
        assert caps[-1] == pytest.approx(0.0, abs=1e-8)
        assert ers[0] == pytest.approx(0.0, abs=1e-10)
        assert np.abs(np.diff(caps)).max() < 0.05
        assert np.abs(np.diff(ers)).max() < 0.05
