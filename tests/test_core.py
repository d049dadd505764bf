import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entcap
from entcap import verify
from entcap.core import (
    BipartitePureState,
    ConfigurationError,
    DensityOperator,
    DomainError,
    _checked_density,
    _support_log,
    density_from_pure,
    haar_random_pure,
    partial_trace,
    relative_entropy,
    schmidt_decompose,
    spectrum_entropy,
    trace_distance,
    von_neumann_entropy,
)

BELL = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)


def random_density(rng, d, d_a=None, d_b=None):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real, d_a=d_a, d_b=d_b)


class TestStateTypes:
    def test_pure_state_validation(self):
        with pytest.raises(DomainError):
            BipartitePureState(np.array([1.0, 1.0, 0.0, 0.0]), 2, 2)
        with pytest.raises(DomainError):
            BipartitePureState(np.array([1.0, 0.0]), 2, 2)

    def test_density_validation(self):
        with pytest.raises(DomainError):
            DensityOperator(np.array([[0.5, 0.2], [0.3, 0.5]]))
        with pytest.raises(DomainError):
            DensityOperator(np.diag([0.6, 0.6]))
        with pytest.raises(DomainError):
            DensityOperator(np.diag([1.5, -0.5]))

    def test_negative_roundoff_clamped(self):
        rho = DensityOperator(np.diag([1.0 + 5e-11, -5e-11]))
        w = np.linalg.eigvalsh(rho.matrix)
        assert w.min() >= 0.0
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-14)

    def test_split_metadata(self):
        rho = DensityOperator(np.eye(4) / 4)
        with pytest.raises(ConfigurationError):
            rho.split()
        with pytest.raises(ConfigurationError):
            DensityOperator(np.eye(4) / 4, d_a=3, d_b=2)


class TestStackedDensityCheck:
    # DensityOperator runs the same stacked check on one matrix, so a stack is
    # checked row by row to the last bit, round-off clamp included
    def test_rows_match_one_matrix_construction(self):
        rng = np.random.default_rng(21)
        g = rng.standard_normal((40, 4, 2)) + 1j * rng.standard_normal((40, 4, 2))
        m = g @ np.swapaxes(g.conj(), -1, -2)
        m = m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None]
        m[::3] = np.eye(4) / 4  # rows that need no clamp beside rank-2 rows that do
        stacked = _checked_density(m.reshape(2, 20, 4, 4)).reshape(40, 4, 4)
        assert (np.linalg.eigvalsh(m)[:, 0] < 0.0).any()
        for row, raw in zip(stacked, m):
            assert np.array_equal(row, DensityOperator(raw).matrix)

    def test_one_bad_matrix_rejects_the_stack(self):
        good = np.stack([np.eye(2) / 2] * 3)
        for bad, message in ((np.array([[0.5, 0.2], [0.3, 0.5]]), "Hermitian"),
                             (np.diag([0.6, 0.6]), "trace"),
                             (np.diag([1.5, -0.5]), "negative eigenvalue")):
            stack = good.copy().astype(complex)
            stack[1] = bad
            with pytest.raises(DomainError, match=message):
                _checked_density(stack)

    def test_raw_input_left_unchanged(self):
        m = np.stack([np.diag([1.0 + 5e-11, -5e-11, 0.0, 0.0]), np.eye(4) / 4]).astype(complex)
        before = m.copy()
        out = _checked_density(m)
        assert np.array_equal(m, before)
        assert np.linalg.eigvalsh(out).min() >= 0.0
        assert np.array_equal(out[1], np.eye(4) / 4)


class TestDensityFromPure:
    def test_basis_projector(self):
        psi = BipartitePureState(np.array([1.0, 0, 0, 0]), 2, 2)
        assert np.allclose(density_from_pure(psi).matrix, np.diag([1.0, 0, 0, 0]))

    def test_bell_corners(self):
        rho = density_from_pure(BipartitePureState(BELL, 2, 2)).matrix
        expected = np.zeros((4, 4))
        expected[np.ix_([0, 3], [0, 3])] = 0.5
        assert np.allclose(rho, expected)

    def test_projector_property(self):
        psi = haar_random_pure(2, 3, 11)
        rho = density_from_pure(psi)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.matrix_rank(rho.matrix, tol=1e-10) == 1


class TestPartialTrace:
    def test_bell_maximally_mixed(self):
        rho = density_from_pure(BipartitePureState(BELL, 2, 2))
        assert np.allclose(partial_trace(rho, "A").matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_basis_state(self):
        psi = BipartitePureState(np.array([0.0, 1.0, 0, 0]), 2, 2)
        rho = density_from_pure(psi)
        assert np.allclose(partial_trace(rho, "A").matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_tensor_factor_recovery(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            rho_a = random_density(rng, 2)
            rho_b = random_density(rng, 3)
            joint = DensityOperator(np.kron(rho_a.matrix, rho_b.matrix), d_a=2, d_b=3)
            assert np.abs(partial_trace(joint, "A").matrix - rho_a.matrix).max() < 1e-12
            assert np.abs(partial_trace(joint, "B").matrix - rho_b.matrix).max() < 1e-12

    def test_missing_split(self):
        with pytest.raises(ConfigurationError):
            partial_trace(DensityOperator(np.eye(4) / 4), "A")


class TestSchmidt:
    def test_product_state(self):
        psi = BipartitePureState(np.array([1.0, 0, 0, 0]), 2, 2)
        w, _, _ = schmidt_decompose(psi)
        assert np.allclose(w, [1.0, 0.0], atol=1e-14)

    def test_two_term_weights(self):
        p = 0.3
        psi = BipartitePureState(np.array([np.sqrt(p), 0, 0, np.sqrt(1 - p)]), 2, 2)
        w, _, _ = schmidt_decompose(psi)
        assert np.allclose(w, [0.7, 0.3], atol=1e-12)

    def test_bell(self):
        w, _, _ = schmidt_decompose(BipartitePureState(BELL, 2, 2))
        assert np.allclose(w, [0.5, 0.5], atol=1e-12)

    def test_reconstruction_and_reduced_spectrum(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            psi = haar_random_pure(2, 3, rng)
            w, basis_a, basis_b = schmidt_decompose(psi)
            rebuilt = np.zeros(psi.dim, dtype=complex)
            for wk, a_col, b_col in zip(w, basis_a.T, basis_b.T):
                rebuilt += np.sqrt(wk) * np.kron(a_col, b_col)
            overlap = abs(np.vdot(rebuilt, psi.amplitudes))
            assert overlap == pytest.approx(1.0, abs=1e-10)
            spec = np.linalg.eigvalsh(partial_trace(density_from_pure(psi), "A").matrix)[::-1]
            assert np.abs(np.sort(w)[::-1] - spec).max() < 1e-10


class TestOperatorLogs:
    def test_uniform_spectrum(self):
        rho = DensityOperator(np.eye(2) / 2)
        assert np.allclose(_support_log(rho.matrix, "e")[0], -np.log(2) * np.eye(2), atol=1e-12)

    def test_projector_support_convention(self):
        rho = DensityOperator(np.diag([1.0, 0.0]))
        assert np.allclose(_support_log(rho.matrix, "e")[0], np.zeros((2, 2)), atol=1e-14)

    def test_scalar_logs_base2(self):
        rho = DensityOperator(np.diag([0.25, 0.75]))
        expected = np.diag([math.log2(0.25), math.log2(0.75)])
        assert np.allclose(_support_log(rho.matrix, 2)[0], expected, atol=1e-12)


class TestEntropies:
    def test_pure_zero(self):
        assert von_neumann_entropy(DensityOperator(np.diag([1.0, 0.0])), 2) == 0.0

    def test_maximally_mixed_bit(self):
        assert von_neumann_entropy(DensityOperator(np.eye(2) / 2), 2) == pytest.approx(1.0, abs=1e-12)

    def test_scalar_evaluation(self):
        w = np.array([0.0045, 0.9955])
        expected = -sum(x * math.log(x) for x in w)
        rho = DensityOperator(np.diag(w))
        assert von_neumann_entropy(rho, "e") == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(0.02881, abs=5e-6)

    def test_base_conversion(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            rho = random_density(rng, 4)
            assert von_neumann_entropy(rho, 2) == pytest.approx(
                von_neumann_entropy(rho, "e") / math.log(2), abs=1e-12
            )

    def test_spectrum_entropy_zero_convention(self):
        assert spectrum_entropy([1.0, 0.0, 0.0]) == 0.0


class TestRelativeEntropy:
    def test_identical(self):
        rho = random_density(np.random.default_rng(5), 3)
        assert relative_entropy(rho, rho, "e") == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_supports_infinite(self):
        rho = DensityOperator(np.diag([1.0, 0.0]))
        sig = DensityOperator(np.diag([0.0, 1.0]))
        assert math.isinf(relative_entropy(rho, sig, "e"))

    def test_dephased_bell(self):
        rho = density_from_pure(BipartitePureState(BELL, 2, 2))
        sig = DensityOperator(np.diag([0.5, 0.0, 0.0, 0.5]))
        assert relative_entropy(rho, sig, "e") == pytest.approx(math.log(2), abs=1e-12)

    def test_nonnegative_ensemble(self):
        rng = np.random.default_rng(6)
        vals = []
        for _ in range(1000):
            vals.append(relative_entropy(random_density(rng, 3), random_density(rng, 3), "e"))
        assert min(vals) >= 0.0
        assert min(vals) > 1e-6  # random pairs are never equal


class TestTraceDistance:
    def test_identical(self):
        rho = random_density(np.random.default_rng(7), 4)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure(self):
        assert trace_distance(DensityOperator(np.diag([1.0, 0.0])),
                              DensityOperator(np.diag([0.0, 1.0]))) == pytest.approx(1.0)

    def test_half(self):
        assert trace_distance(DensityOperator(np.diag([1.0, 0.0])),
                              DensityOperator(np.eye(2) / 2)) == pytest.approx(0.5, abs=1e-14)


class TestHaarSampling:
    def test_determinism(self):
        a = haar_random_pure(2, 2, 42)
        b = haar_random_pure(2, 2, 42)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_unit_norm(self):
        for seed in range(5):
            psi = haar_random_pure(3, 2, seed)
            assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    def test_mean_reduced_purity(self):
        # Monte-Carlo oracle: mean purity of the 2x2 reduced state is
        # (d_a + d_b) / (d_a d_b + 1) = 4/5
        rng = np.random.default_rng(8)
        total = 0.0
        n = 10000
        for _ in range(n):
            psi = haar_random_pure(2, 2, rng)
            red = partial_trace(density_from_pure(psi), "A").matrix
            total += np.trace(red @ red).real
        assert total / n == pytest.approx(0.8, rel=0.02)

    def test_dimension_guard(self):
        with pytest.raises(DomainError):
            haar_random_pure(1, 2, 0)

    @pytest.mark.parametrize("d_b, digest", [
        (2, "ec785fed5c0ee8ec3787299f8a07b4a8f50dc3b552c4cbf0c5cdd54403c935c1"),
        (3, "91fa0c474948c4b95af0ab04a3f89fa60e0d0bb34957ec4e964f8b996cc862be"),
    ])
    def test_amplitude_bits_pinned(self, d_b, digest):
        # the single-state draw keeps its stream and its 1-D norm: any change
        # to either moves these bytes (the stacked ensemble draw has its own path)
        h = hashlib.sha256()
        for seed in range(20):
            h.update(haar_random_pure(2, d_b, seed).amplitudes.tobytes())
        assert h.hexdigest() == digest


def _fresh_python(code: str) -> str:
    """Stdout of ``code`` run in a new interpreter that imports this checkout's entcap."""
    src = str(Path(entcap.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return result.stdout.strip()


def test_import_loads_no_scipy():
    # numpy is the only declared dependency; a fresh interpreter shows what loading every module pulls in
    code = ("import sys, entcap, entcap.cli, entcap.verify; [getattr(entcap, n) for n in entcap.__all__]; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_python(code) == "[]"


def _loaded_submodules(code: str) -> list:
    """The entcap submodules a fresh interpreter holds after running ``code``."""
    return _fresh_python(code + "\nimport sys; print(*sorted(m for m in sys.modules if m.startswith('entcap.')))").split()


def test_import_loads_no_submodule():
    assert _loaded_submodules("import entcap") == []


@pytest.mark.parametrize("argv, loaded", [
    (["--command", "figure1"], ("dynamics", "speed_limits")),
    (["--command", "figure2"], ("dynamics", "speed_limits")),
    (["--command", "figures34", "--method", "analytic"], ("measures", "mixed")),
    (["--command", "figures34", "--method", "numeric", "--lambda-count", "3"], ("measures", "mixed")),
    (["--command", "maximize", "--target", "rate-factor"], ("dynamics", "measures", "self_inverse")),
    (["--command", "maximize", "--target", "ancilla-factor"], ("dynamics", "measures", "self_inverse")),
    (["--command", "maximize", "--target", "beta"], ("dynamics", "measures", "self_inverse")),
    (["--command", "maximize", "--target", "h-max"], ("dynamics", "measures", "self_inverse")),
    (["--command", "verify", "--suite", "properties", "--n-samples", "5"],
     ("dynamics", "measures", "mixed", "self_inverse", "speed_limits", "verify")),
])
def test_cli_command_loads_only_what_it_runs(argv, loaded):
    code = ("import contextlib, io, entcap.cli\n"
            f"with contextlib.redirect_stdout(io.StringIO()): assert entcap.cli.main({argv!r}) == 0")
    assert _loaded_submodules(code) == sorted(f"entcap.{m}" for m in ("cli", "core", *loaded))


def test_exports_resolve_to_their_modules():
    code = ("import importlib, entcap\n"
            "for n in entcap.__all__:\n"
            "    value = getattr(entcap, n)\n"
            "    assert value is getattr(importlib.import_module(value.__module__), n), n\n"
            "print(len(entcap.__all__), len(set(entcap.__all__)))")
    assert _fresh_python(code) == "56 56"


def test_lazy_namespace():
    code = ("import entcap\n"
            "assert set(entcap.__all__) <= set(dir(entcap))\n"
            "assert entcap.mixed.capacity_mixed is entcap.capacity_mixed\n"
            "assert not hasattr(entcap, 'no_such_name')  # only AttributeError makes hasattr False\n"
            "names = {}\n"
            "exec('from entcap import *', names)\n"
            "print(sorted(set(names) - {'__builtins__'}) == sorted(entcap.__all__))")
    assert _fresh_python(code) == "True"


def test_every_submodule_is_an_attribute():
    # after a bare import, each submodule resolves by name and loads only what it imports
    code = ("import pkgutil, entcap\n"
            "names = sorted(m.name for m in pkgutil.iter_modules(entcap.__path__))\n"
            "assert all(getattr(entcap, n).__name__ == f'entcap.{n}' for n in names)\n"
            "print(*names)")
    assert _fresh_python(code) == "cli core dynamics measures mixed self_inverse speed_limits verify"
    assert _loaded_submodules("import entcap; entcap.cli") == ["entcap.cli", "entcap.core"]
    assert "entcap.verify" in _loaded_submodules("import entcap; entcap.verify")


def test_bounds_suite_allocates_no_large_arrays():
    # the maxima in the bounds suite come from exact rules, not dense scans;
    # a fresh interpreter keeps earlier tests' caches out of the peak
    code = ("import tracemalloc; from entcap.verify import run_bounds; tracemalloc.start(); "
            "run_bounds(20, 0); print(tracemalloc.get_traced_memory()[1])")
    assert int(_fresh_python(code)) < 8e6


_NON_FINITE = (np.nan, np.inf, -np.inf)
_H = np.diag([1.0, -1.0, -1.0, 1.0])
_PRODUCT = np.array([1.0, 0.0, 0.0, 0.0])


def _h_with(x):
    return _H + np.diag([x, 0.0, 0.0, 0.0])


def _bounds(**bad):
    return entcap.capacity_rate_bounds(2, **{"gamma": 0.1, "capacity": 0.1, "speed": 1.0, "op_norm": 1.0, **bad}, d=4)


# each real input of the public entry points, with one value made non-finite.
# NaN everywhere; +-inf where the argument's range alone does not exclude it
# (an infinite p, state norm or negative bound input is out of range anyway)
_NON_FINITE_CASES = {
    "BipartitePureState": ((np.nan,), lambda x: BipartitePureState([x, 0.0, 0.0, 0.0], 2, 2)),
    "DensityOperator": (_NON_FINITE, lambda x: DensityOperator([[0.5, x], [x, 0.5]])),
    "SelfInverseHamiltonian": (_NON_FINITE, lambda x: entcap.SelfInverseHamiltonian([[0.0, 1.0], [1.0, x]], np.eye(2))),
    "simulate_trajectory-amplitudes": ((np.nan,), lambda x: entcap.simulate_trajectory(_H, [x, 0.0, 0.0, 0.0], [0.0])),
    "simulate_trajectory-times": (_NON_FINITE, lambda x: entcap.simulate_trajectory(_H, _PRODUCT, [0.0, x])),
    "capacity_rate_factor": ((np.nan,), lambda x: entcap.capacity_rate_factor(x)),
    "max_capacity_rate": ((np.nan,), lambda x: entcap.max_capacity_rate(x, 1.0, 0.5)),
    "capacity_two_qubit_closed": ((np.nan,), lambda x: entcap.capacity_two_qubit_closed(x)),
    "capacity_from_spectrum": ((np.nan,), lambda x: entcap.capacity_from_spectrum([x, 1.0])),
    "spectrum_entropy": (_NON_FINITE, lambda x: spectrum_entropy([x, 1.0])),
    "evolved_schmidt_weights-p": ((np.nan,), lambda x: entcap.evolved_schmidt_weights(x, 1.0, 0.5)),
    "evolved_schmidt_weights-theta": (_NON_FINITE, lambda x: entcap.evolved_schmidt_weights(0.3, x, 0.5)),
    "evolved_schmidt_weights-t": (_NON_FINITE, lambda x: entcap.evolved_schmidt_weights(0.3, 1.0, x)),
    "family_entropy-t": (_NON_FINITE, lambda x: entcap.speed_limits.family_entropy(0.3, 1.0, x)),
    "family_sqrt_capacity-t": (_NON_FINITE, lambda x: entcap.speed_limits.family_sqrt_capacity(0.3, 1.0, x)),
    "hamiltonian_fluctuation": (_NON_FINITE, lambda x: entcap.hamiltonian_fluctuation(
        _h_with(x), BipartitePureState(_PRODUCT, 2, 2))),
    "qsl_time_dependent": (_NON_FINITE, lambda x: entcap.qsl_time_dependent(
        lambda t: _h_with(x), BipartitePureState(_PRODUCT, 2, 2), 1.0, samples=3)),
    # finite at both sample times, non-finite at the one midpoint the stepping uses
    "qsl_time_dependent-midpoint": (_NON_FINITE, lambda x: entcap.qsl_time_dependent(
        lambda t: _h_with(x if t == 0.5 else 0.0), BipartitePureState(_PRODUCT, 2, 2), 1.0, samples=2)),
    "canonical_form-alpha": (_NON_FINITE, lambda x: entcap.canonical_form([x, 0.0, 0.0], np.zeros(3), np.eye(3))),
    "canonical_form-beta": (_NON_FINITE, lambda x: entcap.canonical_form(np.zeros(3), [0.0, x, 0.0], np.eye(3))),
    "capacity_rate_bounds-gamma": ((np.inf, -np.inf), lambda x: _bounds(gamma=x)),
    "capacity_rate_bounds-capacity": ((np.inf,), lambda x: _bounds(capacity=x)),
    "capacity_rate_bounds-speed": ((np.inf,), lambda x: _bounds(speed=x)),
    "capacity_rate_bounds-op_norm": ((np.inf,), lambda x: _bounds(op_norm=x)),
}


# warnings are errors: each check tests finiteness first, so no numpy warning precedes the DomainError
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, x", [pytest.param(name, x, id=f"{name}-{x}")
                                     for name, (values, _) in _NON_FINITE_CASES.items() for x in values])
def test_non_finite_input_rejected(name, x):
    with pytest.raises(DomainError):
        _NON_FINITE_CASES[name][1](x)


_PURE_PRODUCT = BipartitePureState(_PRODUCT, 2, 2)
_MIXED = DensityOperator(np.eye(4) / 4)

# each integer count of the public entry points, at a non-integer and below its least value, and the range
# and shape gaps that once gave a numpy error, a RuntimeWarning or a wrong number instead of a DomainError
_OUT_OF_DOMAIN_CASES = {
    "BipartitePureState-d_a-fraction": lambda: BipartitePureState(np.full(4, 0.5), 2.5, 1.6),
    "BipartitePureState-d_b-zero": lambda: BipartitePureState(np.full(4, 0.5), 4, 0),
    "haar_random_pure-fraction": lambda: entcap.haar_random_pure(2.5, 2, 0),
    "haar_random_pure-one": lambda: entcap.haar_random_pure(2, 1, 0),
    "solve_max_variance_spectrum-fraction": lambda: entcap.solve_max_variance_spectrum(2.5),
    "solve_max_variance_spectrum-one": lambda: entcap.solve_max_variance_spectrum(1),
    "qsl_time_dependent-samples-float": lambda: entcap.qsl_time_dependent(lambda t: _H, _PURE_PRODUCT, 1.0, 3.0),
    "qsl_time_dependent-samples-one": lambda: entcap.qsl_time_dependent(lambda t: _H, _PURE_PRODUCT, 1.0, 1),
    "run_suite-n_samples-zero": lambda: verify.run_suite("bounds", 0, 1),
    "run_suite-n_samples-fraction": lambda: verify.run_suite("bounds", 2.5, 1),
    "capacity_rate_factor-k-zero": lambda: entcap.capacity_rate_factor(0.3, k=0),
    "capacity_rate_factor-k-fraction": lambda: entcap.capacity_rate_factor(0.3, k=2.5),
    "capacity_rate_factor_maximum-k-zero": lambda: entcap.capacity_rate_factor_maximum(k=0),
    "capacity_rate_factor_maximum-k-fraction": lambda: entcap.capacity_rate_factor_maximum(k=2.5),
    "capacity_rate_bounds-d_a-zero": lambda: entcap.capacity_rate_bounds(
        0, gamma=0.1, capacity=0.1, speed=1.0, op_norm=1.0, d=4),
    "capacity_rate_bounds-d-zero": lambda: entcap.capacity_rate_bounds(
        2, gamma=0.1, capacity=0.1, speed=1.0, op_norm=1.0, d=0),
    "capacity_rate_bounds-d-fraction": lambda: entcap.capacity_rate_bounds(
        2, gamma=0.1, capacity=0.1, speed=1.0, op_norm=1.0, d=4.5),
    "DensityOperator-split-fraction": lambda: DensityOperator(np.eye(4) / 4, d_a=1.5, d_b=8 / 3),
    "max_capacity_rate-negative": lambda: entcap.max_capacity_rate(0.3, -1.0, 2.0),
    "max_capacity_rate-infinite": lambda: entcap.max_capacity_rate(0.3, np.inf, 2.0),
    "simulate_trajectory-times-scalar": lambda: entcap.simulate_trajectory(_H, _PRODUCT, 0.5),
    "simulate_trajectory-times-2d": lambda: entcap.simulate_trajectory(_H, _PRODUCT, np.zeros((2, 2))),
    "is_flat-nan": lambda: entcap.is_flat([np.nan, 1.0]),
    "is_flat-zeros": lambda: entcap.is_flat([0.0, 0.0]),
    "is_flat-empty": lambda: entcap.is_flat([]),
    "capacity_from_spectrum-empty": lambda: entcap.capacity_from_spectrum([]),
    # finite entries and couplings above core.MAX_ENTRY, whose squares or products overflow
    "SelfInverseHamiltonian-huge": lambda: entcap.SelfInverseHamiltonian([[1e200, 0.0], [0.0, 1.0]], np.eye(2)),
    "simulate_trajectory-NonlocalHamiltonian-huge": lambda: entcap.simulate_trajectory(
        entcap.NonlocalHamiltonian(mu=(1e300, 0.0, 0.0)), _PRODUCT, [0.0, 1.0]),
    "canonical_form-huge": lambda: entcap.canonical_form(np.zeros(3), np.zeros(3), 1e300 * np.eye(3)),
    "max_capacity_rate-huge": lambda: entcap.max_capacity_rate(0.3, 1e308, 1e308),
    # a theta, time or duration above core.MAX_ENTRY, whose product with another overflows
    "family_qsl_curve-theta-huge": lambda: entcap.family_qsl_curve(1.0, 1e308, [10.0]),
    "family_qsl_report-huge": lambda: entcap.family_qsl_report(0.3, 1e200, 1e200),
    "family_sqrt_capacity-theta-huge": lambda: entcap.speed_limits.family_sqrt_capacity(0.3, 1e308, 3.0),
    "family_entropy-theta-huge": lambda: entcap.speed_limits.family_entropy(0.3, 1e308, 3.0),
    "evolved_schmidt_weights-theta-huge": lambda: entcap.evolved_schmidt_weights(0.3, 1e308, 3.0),
    "simulate_trajectory-times-huge": lambda: entcap.simulate_trajectory(
        entcap.NonlocalHamiltonian(mu=(2.0, 0.0, 0.0)), _PRODUCT, [0.0, 1e308]),
    "qsl_time_dependent-duration-huge": lambda: entcap.qsl_time_dependent(
        lambda t: 4.0 * np.diag([1.0, -1.0, 1.0, -1.0]), _PURE_PRODUCT, 1e308, samples=3),
    # canonical_form takes fields of shape (3,) and a coupling matrix of shape (3, 3), as given
    "canonical_form-scalar-fields": lambda: entcap.canonical_form(0.0, 0.0, np.eye(3)),
    "canonical_form-gamma-2x2": lambda: entcap.canonical_form(np.zeros(3), np.zeros(3), np.eye(2)),
    "canonical_form-gamma-flat": lambda: entcap.canonical_form(np.zeros(3), np.zeros(3), np.eye(3).ravel()),
    "canonical_form-alpha-row": lambda: entcap.canonical_form(np.zeros((1, 3)), np.zeros(3), np.eye(3)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", list(_OUT_OF_DOMAIN_CASES))
def test_out_of_domain_input_rejected(name):
    with pytest.raises(DomainError):
        _OUT_OF_DOMAIN_CASES[name]()


def test_counts_accept_numpy_integers():
    state = BipartitePureState(np.full(4, 0.5), np.int64(2), np.int8(2))
    assert (state.d_a, state.d_b) == (2, 2) and type(state.d_a) is int
    assert entcap.capacity_rate_factor(0.3, k=np.int64(3)) == entcap.capacity_rate_factor(0.3, k=3)
    assert type(entcap.capacity_rate_factor(np.array(0.3))) is float  # a 0-d array in, a float out


# the upper triangle of a complex matrix: eigh and eigvalsh read one triangle only, so
# without the Hermitian check each of these returned a number
_TRIANGLE = np.triu(np.random.default_rng(0).standard_normal((4, 4, 2)) @ [1.0, 1j])
_NON_HERMITIAN_CASES = {
    "simulate_trajectory": lambda h: entcap.simulate_trajectory(h, _PRODUCT, [0.0, 1.0]),
    "hamiltonian_fluctuation": lambda h: entcap.hamiltonian_fluctuation(h, _PURE_PRODUCT),
    "fubini_study_speed": lambda h: entcap.fubini_study_speed(h, _PURE_PRODUCT),
    "operator_norm": lambda h: entcap.operator_norm(h),
    "operator_norm-stack": lambda h: entcap.operator_norm(np.stack([_H, h])),
    "max_entangling_element_numeric": lambda h: entcap.max_entangling_element_numeric(h),
    "liouville_rhs": lambda h: entcap.liouville_rhs(h, _MIXED),
    "qsl_time_dependent": lambda h: entcap.qsl_time_dependent(lambda t: h, _PURE_PRODUCT, 1.0, samples=3),
    "observable_variance": lambda h: entcap.observable_variance(h, _MIXED),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", list(_NON_HERMITIAN_CASES))
def test_non_hermitian_operator_rejected(name):
    with pytest.raises(DomainError, match="not Hermitian"):
        _NON_HERMITIAN_CASES[name](_TRIANGLE)


# Hermitian but with finite entries above core.MAX_ENTRY: their squares and products overflow
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
@pytest.mark.parametrize("name", list(_NON_HERMITIAN_CASES))
def test_huge_operator_rejected(name, scale):
    with pytest.raises(DomainError, match="entries must be finite"):
        _NON_HERMITIAN_CASES[name](scale * _H)


def test_hermitian_tolerance_scales_with_the_largest_entry():
    # 1e-7 off at entries of 1e6 is round-off (1e-13 relative); 1e-11 off at entries below 1 is not
    big = 1e6 * _H.astype(complex)
    big[0, 1] = 1e-7j
    assert entcap.operator_norm(big) == pytest.approx(1e6)
    small = 0.5 * _H.astype(complex)
    small[0, 1] = 1e-11j
    with pytest.raises(DomainError, match="not Hermitian"):
        entcap.operator_norm(small)
