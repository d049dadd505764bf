import math

import numpy as np
import pytest

import entcap
from entcap import core, dynamics, measures, scalar, self_inverse
from entcap.measures import capacity_from_spectrum
from entcap.scalar import ConfigurationError, DomainError, _capacity_closed


@pytest.mark.parametrize("module, name", [
    (core, "ConfigurationError"), (core, "DomainError"), (core, "log_scale"), (core, "_bisect"),
    (core, "_checked_count"), (self_inverse, "max_entropy_rate_constant"),
    (dynamics, "capacity_rate_factor_maximum"), (measures, "capacity_two_qubit_closed"),
])
def test_old_names_are_the_scalar_objects(module, name):
    assert getattr(module, name) is getattr(scalar, name)
    if name in entcap.__all__:
        assert getattr(entcap, name) is getattr(scalar, name)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: scalar.capacity_two_qubit_closed(1.5), id="scalar"),
    pytest.param(lambda: core.BipartitePureState([1.0, 1.0, 0.0, 0.0], 2, 2), id="core"),
    pytest.param(lambda: dynamics.capacity_rate_factor(np.nan), id="dynamics"),
    pytest.param(lambda: measures.capacity_from_spectrum([0.5, 0.6]), id="measures"),
    pytest.param(lambda: self_inverse.evolve_self_inverse(None, None, 0.0), id="self_inverse"),
])
def test_one_domain_error_for_every_module(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("base", ["e", "2"])
def test_closed_capacity_matches_spectrum(k, base):
    # the spectrum (p, (1-p)/k, ..., (1-p)/k) through the general spectrum code is the reference
    for p in np.concatenate([np.linspace(0.0, 1.0, 201), [1e-12, 1e-6, 0.5 - 1e-9, 1.0 - 1e-9]]).tolist():
        reference = capacity_from_spectrum([p] + [(1.0 - p) / k] * k, base).capacity
        assert abs(_capacity_closed(p, base, k) - reference) <= 1e-14, p
    assert entcap.capacity_two_qubit_closed(0.3, base) == _capacity_closed(0.3, base, 1)


# each input a moved public name rejected before the move, with the error type it raised then
_REJECTED = {
    **{f"capacity_two_qubit_closed-{x}": (DomainError, lambda x=x: entcap.capacity_two_qubit_closed(x))
       for x in (math.nan, math.inf, -math.inf, -0.1, 1.1)},
    # float() rejects both: the numpy code read None as NaN (DomainError) and failed on the list in its
    # arithmetic (TypeError); both are now the DomainError of any p outside [0, 1]
    "capacity_two_qubit_closed-None": (DomainError, lambda: entcap.capacity_two_qubit_closed(None)),
    "capacity_two_qubit_closed-list": (DomainError, lambda: entcap.capacity_two_qubit_closed([0.3])),
    **{f"capacity_rate_factor-{x}": (DomainError, lambda x=x: entcap.capacity_rate_factor(x))
       for x in (math.nan, math.inf, -math.inf, -0.1, 1.1)},
    "capacity_rate_factor-array": (DomainError, lambda: entcap.capacity_rate_factor([0.3, 1.1])),
    "capacity_rate_factor-k": (DomainError, lambda: entcap.capacity_rate_factor(0.3, k=1.5)),
    "capacity_rate_factor_maximum-k": (DomainError, lambda: entcap.capacity_rate_factor_maximum(k=1.5)),
    "capacity_two_qubit_closed-base": (ConfigurationError, lambda: entcap.capacity_two_qubit_closed(0.3, "3")),
    "capacity_rate_factor-base": (ConfigurationError, lambda: entcap.capacity_rate_factor(0.3, "3")),
    "capacity_rate_factor-empty-base": (ConfigurationError, lambda: entcap.capacity_rate_factor([], "3")),
    "capacity_rate_factor_maximum-base": (ConfigurationError, lambda: entcap.capacity_rate_factor_maximum("3")),
    "max_entropy_rate_constant-base": (ConfigurationError, lambda: entcap.max_entropy_rate_constant("3")),
}


@pytest.mark.parametrize("name", list(_REJECTED))
def test_moved_names_reject_as_before(name):
    error, call = _REJECTED[name]
    with pytest.raises(error):
        call()
