"""The paper's scalar constants and the plain-float helpers they need.

One rule: this module imports the standard library only, never numpy or
another entcap module.  It is the one definition of the error types, the
log-base scale, the bisection and the count check that every entcap module
uses, and of the closed forms that ``entcap --command maximize`` prints for
its targets ``beta``, ``rate-factor`` and ``ancilla-factor``, so those runs
load no numpy.  ``core``, ``dynamics``, ``measures`` and ``self_inverse``
re-export these same objects under their old names.
"""

from __future__ import annotations

import functools
import math
import operator


class ConfigurationError(ValueError):
    """Missing or inconsistent metadata (e.g. no bipartite split recorded)."""


class DomainError(ValueError):
    """Input outside an operation's mathematical domain."""


def log_scale(base) -> float:
    """Natural-log divisor for a log base: ln(2) for base 2, 1.0 for base e."""
    if base in (2, "2", 2.0):
        return math.log(2.0)
    if base in ("e", math.e):
        return 1.0
    raise ConfigurationError(f"log base must be 2 or 'e', got {base!r}")


def _bisect(g, lo: float, hi: float) -> float:
    """Root of a continuous scalar g on a bracket [lo, hi] where g changes sign.

    Halves the bracket until its midpoint rounds to one of its ends, so the
    result is the root to the last bit that g's sign can resolve.
    """
    lo_positive = g(lo) > 0.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if (g(mid) > 0.0) == lo_positive:
            lo = mid
        else:
            hi = mid
    return mid


def _checked_count(n, name: str, lo: int = 1) -> int:
    """n as an int; DomainError unless it is an integer (``operator.index``) of at least lo.  The one count test."""
    try:
        count = operator.index(n)
    except TypeError:
        count = None
    if count is None or count < lo:
        raise DomainError(f"{name} must be an integer of at least {lo}, got {n!r}")
    return count


@functools.cache
def _max_entropy_rate_constant_nat() -> float:
    """The natural-log rate cap, bisected once per process."""
    u = _bisect(lambda u: u * math.tanh(u) - 1.0, 1.0, 2.0)
    return 2.0 * u / math.cosh(u)


def max_entropy_rate_constant(base="e") -> float:
    """2 max_x sqrt(x(1-x)) |log(x/(1-x))|: the self-inverse entanglement-rate cap.

    With x = (1 + tanh u)/2 the objective is 2u/cosh(u), stationary at the root
    u ~ 1.1996786 of u tanh(u) = 1 (bisection on [1, 2]), where it equals
    2 sqrt(u^2 - 1).  Evaluating 2u/cosh(u), which is flat there, keeps the
    last bit of u out of the value.  Computed in natural log and converted, so
    the two bases agree exactly up to the ln(2) factor.
    """
    return _max_entropy_rate_constant_nat() / log_scale(base)


def _rate_factor(p: float, k: int, scale: float) -> float:
    """``dynamics.capacity_rate_factor`` at one checked p in [0, 1] and count k, with scale = log_scale(base)."""
    if not 0.0 < p < 1.0:
        return 0.0
    log_r = math.log(k * p / (1.0 - p))
    return 2.0 * math.sqrt(p * (1.0 - p) / k) * ((1.0 - 2.0 * p) * (log_r * log_r) + 2.0 * log_r) / scale**2


def capacity_rate_factor_maximum(base="e", k=1) -> tuple[float, float]:
    """(p0, value) of the largest ``capacity_rate_factor(p, base, k)`` over p in [0, 1].

    In L = ln(k p/(1-p)), with q = 1 - p, the factor is stationary exactly where

        Q(L) = (1 - 8pq) L^2 / 2 + 3 (q - p) L + 2 = 0.

    The base only scales the factor by 1/ln^2(base), so p0 is the same in
    every base.  Each sign change of Q on a 161-point grid over L in
    [-40, 40] is bisected, and the stationary point with the largest factor
    is returned.
    """
    k, scale = _checked_count(k, "k"), log_scale(base)

    def stationarity(L):
        p = 1.0 / (1.0 + k * math.exp(-L))
        return 0.5 * (1.0 - 8.0 * p * (1.0 - p)) * (L * L) + (1.0 - 2.0 * p) * 3.0 * L + 2.0

    grid = [-40.0 + 0.5 * i for i in range(161)]
    negative = [stationarity(L) < 0.0 for L in grid]
    roots = [_bisect(stationarity, grid[i], grid[i + 1]) for i in range(160) if negative[i] != negative[i + 1]]
    ps = [1.0 / (1.0 + k * math.exp(-L)) for L in roots]
    return max(((p, _rate_factor(p, k, scale)) for p in ps), key=lambda pv: pv[1])


def _capacity_closed(p, base="e", k: int = 1) -> float:
    """p(1-p) log^2(k p/(1-p)): the capacity of the spectrum (p, (1-p)/k, ..., (1-p)/k) with k entries (1-p)/k.

    DomainError unless p is a real number in [0, 1]: NaN, ±inf and anything ``float`` rejects are not.
    """
    try:
        p = float(p)
    except (TypeError, ValueError):
        p = math.nan
    if not 0.0 <= p <= 1.0:
        raise DomainError("p must lie in [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return p * (1.0 - p) * (math.log(k * p / (1.0 - p)) / log_scale(base)) ** 2


def capacity_two_qubit_closed(p: float, base="e") -> float:
    """Closed form p(1-p) log^2(p/(1-p)) for a two-term Schmidt spectrum (p, 1-p)."""
    return _capacity_closed(p, base)
