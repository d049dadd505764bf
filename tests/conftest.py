"""Shared test settings.

Property tests run a fixed, derandomized set of examples with no per-example
deadline, so a run gives the same verdict every time and does not fail on a
slow or busy machine.
"""

import pytest
from hypothesis import settings

from entcap import verify

settings.register_profile("entcap", derandomize=True, deadline=None)
settings.load_profile("entcap")


@pytest.fixture
def fresh_run_bounds():
    """verify.run_bounds with its seed-independent reference checks recomputed on every call.

    ``run_bounds`` computes those checks once per process; a test that counts
    the work of one call clears that cache before each call it counts.
    """
    def run(n_samples, seed, base="e"):
        verify._reference_checks.cache_clear()
        return verify.run_bounds(n_samples, seed, base)

    return run
