"""Shared test fixtures."""

import pytest

from entcap import verify


@pytest.fixture
def fresh_run_bounds():
    """verify.run_bounds with its seed-independent reference checks recomputed on every call.

    ``run_bounds`` computes those checks once per process; a test that counts
    the work of one call, or compares its report with a warm cache's, clears
    that cache before the call.
    """
    def run(n_samples, seed, base="e"):
        verify._reference_checks.cache_clear()
        return verify.run_bounds(n_samples, seed, base)

    return run
