"""The stacked properties suite and the last-axis kernels it shares with the one-state API.

Each kernel evaluated on a stack must give, row by row, what the public
function gives for one validated object: the public functions are the
per-sample reference.
"""

import numpy as np
import pytest

from entcap import core, verify
from entcap.core import (
    DensityOperator,
    _leaves_support,
    _partial_trace_matrix,
    _relative_entropy,
    _schmidt,
    _support_log,
    _trace_distance,
    _von_neumann_entropy,
    haar_random_pure,
    partial_trace,
    relative_entropy,
    schmidt_decompose,
    trace_distance,
    von_neumann_entropy,
)
from entcap.measures import _density_capacity, _variance, capacity_of, modular_hamiltonian, observable_variance


def densities(rng, d, n, d_a=None, d_b=None):
    """n validated random density operators, the last two of rank 1 and rank 2."""
    out = []
    for k in range(n):
        rank = {n - 1: 1, n - 2: 2}.get(k, d)
        g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
        m = g @ g.conj().T
        out.append(DensityOperator(m / np.trace(m).real, d_a=d_a, d_b=d_b))
    return out


def stack(objs):
    return np.array([o.matrix for o in objs])


class TestKernelsMatchOneStateFunctions:
    def test_logs_entropies_and_distances(self):
        rng = np.random.default_rng(20)
        rhos, sigmas = densities(rng, 4, 12), densities(rng, 4, 12)
        r, s = stack(rhos), stack(sigmas)
        for base in (2, "e"):
            logs = _support_log(r, base)[0]
            entropies = _von_neumann_entropy(r, base)
            for k, rho in enumerate(rhos):
                assert np.array_equal(logs[k], -modular_hamiltonian(rho, base))
                assert entropies[k] == von_neumann_entropy(rho, base)
        dist = _trace_distance(r, s)
        assert all(dist[k] == trace_distance(a, b) for k, (a, b) in enumerate(zip(rhos, sigmas)))

    def test_relative_entropy_keeps_its_inf_rule_per_row(self):
        rng = np.random.default_rng(21)
        rhos, sigmas = densities(rng, 3, 8), densities(rng, 3, 8)
        # the last two rows pair random rank-2 and rank-1 states, which leave each
        # other's support; row 0, a rank-1 state against itself, does not
        sigmas[0] = rhos[-1]
        rhos[0] = rhos[-1]
        vals = _relative_entropy(stack(rhos), stack(sigmas), "e")
        ref = [relative_entropy(a, b, "e") for a, b in zip(rhos, sigmas)]
        assert np.array_equal(vals, ref)
        assert np.isinf(vals[-2:]).all() and np.isfinite(vals[:-2]).all()
        assert np.array_equal(_leaves_support(stack(rhos), _support_log(stack(sigmas))[1]), np.isinf(ref))

    def test_capacity_variance_and_partial_trace(self):
        rng = np.random.default_rng(22)
        rhos = densities(rng, 4, 10, d_a=2, d_b=2)
        r = stack(rhos)
        obs = -_support_log(stack(densities(rng, 4, 10)), "e")[0]
        caps, variances = _density_capacity(r, "e"), _variance(obs, r)
        for keep in ("A", "B"):
            reduced = _partial_trace_matrix(r, 2, 2, keep)
            assert all(np.array_equal(reduced[k], partial_trace(rho, keep).matrix) for k, rho in enumerate(rhos))
        for k, rho in enumerate(rhos):
            assert caps[k] == capacity_of(rho, "e").capacity
            assert variances[k] == observable_variance(obs[k], rho)

    def test_schmidt(self):
        rng = np.random.default_rng(23)
        states = [haar_random_pure(2, 3, rng) for _ in range(6)]
        weights, basis_a, basis_b = _schmidt(np.array([s.as_matrix() for s in states]))
        for k, state in enumerate(states):
            ref = schmidt_decompose(state)
            assert all(np.array_equal(a, b) for a, b in zip((weights[k], basis_a[k], basis_b[k]), ref))

    def test_variance_rejects_negative_rows(self):
        # a non-Hermitian "observable" in a mixed state can give a negative variance
        m = np.array([np.eye(2) / 2, np.diag([1.0, 0.0])], dtype=complex)
        obs = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
        with pytest.raises(core.DomainError):
            _variance(obs, m)


class TestRunProperties:
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
            assert verify.hard_failures(verify.run_properties(n_samples, seed=9)) == 0
            seen.append(list(calls))
        assert seen[0] and seen[0] == seen[1]

    def test_validated_objects_do_not_grow_with_samples(self, monkeypatch):
        # only the fixed analytic-family PPT check builds DensityOperators
        counts = []
        original = core.DensityOperator.__post_init__

        def counted(self):
            counts[-1] += 1
            original(self)

        monkeypatch.setattr(core.DensityOperator, "__post_init__", counted)
        for n_samples in (50, 500):
            counts.append(0)
            verify.run_properties(n_samples, seed=3)
        assert counts[0] == counts[1] > 0

    def test_every_hard_check_passes_across_seeds(self):
        for seed in range(50):
            results = verify.run_properties(50, seed)
            assert verify.hard_failures(results) == 0, (seed, verify.format_report(results))
            assert len(results) == 14
