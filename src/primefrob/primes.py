"""Prime generation, counting, and the classical prime-counting inequalities.

Everything here is exact: a plain sieve of Eratosthenes backs an immutable
``PrimeTable`` that answers primality, pi(x), p_n and closed-interval range
queries.  The Rosser-Schoenfeld style bounds and the short-interval prime
window are verified against the sieve, never assumed.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable

import numpy as np

from .errors import ConfigurationError, DomainError, OutOfRangeError

# A sieve beyond this many entries is almost certainly a mistyped argument;
# refuse instead of eating gigabytes.
MAX_SIEVE_LIMIT = 1 << 31


def _sieve(limit: int) -> np.ndarray:
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return is_prime


def _checked_limit(limit: int) -> int:
    if limit < 2:
        raise ConfigurationError(f"sieve limit must be >= 2, got {limit}")
    if limit > MAX_SIEVE_LIMIT:
        raise ConfigurationError(
            f"sieve limit {limit} exceeds the memory budget ({MAX_SIEVE_LIMIT})"
        )
    return int(limit)


class PrimeTable:
    """Primality oracle for [0, limit], immutable after construction.

    Attributes:
        limit: largest integer covered.
        primality: bool array, primality[n] iff n is prime.
        prime_list: ascending int64 array of all primes <= limit.
        ceiling: a configured sieve limit that no table grown from this one
            may pass, or None.  A limit beyond it is refused before the sieve.

    pi and nth-prime indexing is 1-based: pi(2) = 1 and nth_prime(1) = 2.
    All queries are read-only, so one table may be shared freely.
    """

    def __init__(self, limit: int, ceiling: int | None = None):
        if ceiling is not None and limit > _checked_limit(ceiling):
            raise OutOfRangeError(
                f"computation needs primes up to {limit}, beyond the configured sieve limit {ceiling}"
            )
        self.limit = _checked_limit(limit)
        self.ceiling = ceiling
        self.primality = _sieve(self.limit)
        self.prime_list = np.flatnonzero(self.primality).astype(np.int64)

    def __repr__(self):
        return f"PrimeTable(limit={self.limit}, primes={len(self.prime_list)})"

    def _check_range(self, x: int, what: str = "argument"):
        if x > self.limit:
            raise OutOfRangeError(f"{what} {x} exceeds table limit {self.limit}")

    def is_prime(self, n: int) -> bool:
        if n > self.limit:
            self._check_range(n)
        return n >= 0 and bool(self.primality[n])

    def prime_pi(self, x: int) -> int:
        """Number of primes <= x."""
        self._check_range(x)
        if x < 2:
            return 0
        return int(np.searchsorted(self.prime_list, x, side="right"))

    def nth_prime(self, n: int) -> int:
        """The n-th prime, 1-indexed (nth_prime(1) = 2)."""
        if n < 1:
            raise DomainError(f"prime index must be >= 1, got {n}")
        if n > len(self.prime_list):
            raise OutOfRangeError(
                f"table holds {len(self.prime_list)} primes, index {n} requested"
            )
        return int(self.prime_list[n - 1])

    def primes_in(self, lo: int, hi: int) -> np.ndarray:
        """All primes q with lo <= q <= hi (both endpoints included)."""
        self._check_range(hi, "interval end")
        if hi < lo:
            return self.prime_list[:0]
        i = np.searchsorted(self.prime_list, lo, side="left")
        j = np.searchsorted(self.prime_list, hi, side="right")
        return self.prime_list[i:j]

    def pi_cumulative(self) -> np.ndarray:
        """pi(x) for every x in [0, limit] as one array (cached)."""
        cached = getattr(self, "_pi_cum", None)
        if cached is None:
            cached = np.cumsum(self.primality, dtype=np.int64)
            self._pi_cum = cached
        return cached


def build_table(limit: int) -> PrimeTable:
    return PrimeTable(limit)


def extend_table(table: PrimeTable, needed: int) -> PrimeTable:
    """Return ``table`` itself if it already covers ``needed``, else a fresh
    larger one with the same ceiling.  Growth doubles, up to the ceiling, so
    repeated extension stays cheap.  This is the only place a table grows."""
    if needed <= table.limit:
        return table
    ceiling = table.ceiling
    return PrimeTable(max(needed, min(2 * table.limit, ceiling or MAX_SIEVE_LIMIT)), ceiling)


def table_for_nth_prime(table: PrimeTable, n: int) -> PrimeTable:
    """Extend ``table`` until it contains the n-th prime."""
    while n > len(table.prime_list):
        if table.limit == table.ceiling:
            raise OutOfRangeError(
                f"computation needs p_{n}, beyond the configured sieve limit {table.limit}"
            )
        # p_n < n(log n + log log n) for n > 5; small n are far below 16.
        guess = int(n * (math.log(n) + math.log(math.log(n)))) + 1 if n > 5 else 16
        # only a ceiling clamps: a budget clamp would stop growth and loop here
        table = extend_table(table, min(max(guess, 2 * table.limit), table.ceiling or math.inf))
    return table


# The table a pool worker received from its parent; set once per worker.
_POOL_TABLE: PrimeTable | None = None


def _set_pool_table(table: PrimeTable) -> None:
    global _POOL_TABLE
    _POOL_TABLE = table


def _apply_to_pool_table(fn: Callable, item):
    return fn(_POOL_TABLE, item)


def parallel_map(fn: Callable, table: PrimeTable, items: Iterable, workers: int = 1,
                 chunksize: int = 1) -> list:
    """``[fn(table, x) for x in items]``, in order.  With workers > 1 the items
    fan out in chunks over a process pool; each worker receives ``table`` once
    when it starts, so it need not sieve again, and what it grows keeps the
    ceiling.
    ``fn`` must be a module-level function so it can be sent to the workers."""
    if workers <= 1:
        return [fn(table, x) for x in items]
    with ProcessPoolExecutor(workers, initializer=_set_pool_table, initargs=(table,)) as ex:
        return list(ex.map(partial(_apply_to_pool_table, fn), items, chunksize=chunksize))


@dataclass(frozen=True)
class PrimeWindow:
    """Primes in the short interval [lo, hi] together with the analytic
    lower estimate 0.09 * lo**0.525 / log(lo) for how many there must be
    (valid only for large lo; the estimate is reported, not assumed)."""

    lo: int
    hi: int
    primes: np.ndarray
    lower_estimate: float

    @property
    def count(self) -> int:
        return len(self.primes)


# 21/40 = 0.525, the best known short-interval prime guarantee
BAKER_EXPONENT = Fraction(21, 40)


def floor_power(n: int, exponent: Fraction) -> int:
    """floor(n ** (a/b)) for n >= 0 and exponent a/b >= 0, exactly: the
    integer b-th root of n**a, from a float estimate corrected by integer
    comparisons."""
    a, b = exponent.numerator, exponent.denominator
    target = n ** a
    root = int(n ** (a / b))
    while root ** b > target:
        root -= 1
    while (root + 1) ** b <= target:
        root += 1
    return root


def baker_window(table: PrimeTable, p: int) -> PrimeWindow:
    """Window [p, p + floor(p**(21/40))] with its primes, the window width
    in exact integers."""
    if p < 2:
        raise DomainError(f"window base must be >= 2, got {p}")
    hi = p + floor_power(p, BAKER_EXPONENT)
    est = 0.09 * p ** 0.525 / math.log(p)
    return PrimeWindow(lo=p, hi=hi, primes=table.primes_in(p, hi), lower_estimate=est)


@dataclass(frozen=True)
class BoundCheck:
    name: str
    domain: str
    checked: int
    counterexamples: list[int] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        return not self.counterexamples


@dataclass(frozen=True)
class BoundsReport:
    checks: list[BoundCheck]

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)


def verify_literature_bounds(table: PrimeTable, n_max: int, x_max: int) -> BoundsReport:
    """Check the four classical prime-counting inequalities on the sieve:

      doubling:     pi(2x) < 2 pi(x)              for integer x >= 11
      nth upper:    p_n < n (log n + log log n)   for n > 5
      pi upper:     pi(x) < x / (log x - 3/2)     for x >= 5
      pi lower:     pi(x) > x / (log x - 1/2)     for x >= 67

    x_max caps the doubling check (it needs pi at 2x); the single-variable
    checks run over the whole sieve.  Counterexamples are collected instead
    of raised: the report is data.
    """
    if 2 * x_max > table.limit:
        raise OutOfRangeError(f"need primes to {2 * x_max}, table ends at {table.limit}")
    if n_max > len(table.prime_list):
        raise OutOfRangeError(f"need {n_max} primes, table holds {len(table.prime_list)}")

    pi = table.pi_cumulative()
    checks = []

    x = np.arange(11, x_max + 1)
    bad = x[pi[2 * x] >= 2 * pi[x]]
    checks.append(BoundCheck("pi_doubling", f"11 <= x <= {x_max}", len(x), bad.tolist()))

    n = np.arange(6, n_max + 1)
    p_n = table.prime_list[n - 1].astype(np.float64)
    bad = n[p_n >= n * (np.log(n) + np.log(np.log(n)))]
    checks.append(BoundCheck("nth_prime_upper", f"5 < n <= {n_max}", len(n), bad.tolist()))

    # log x > 3/2 first holds at x = 5
    x = np.arange(5, table.limit + 1)
    bad = x[pi[x] >= x / (np.log(x) - 1.5)]
    checks.append(BoundCheck("pi_upper", f"5 <= x <= {table.limit}", len(x), bad.tolist()))

    x = np.arange(67, table.limit + 1)
    bad = x[pi[x] <= x / (np.log(x) - 0.5)]
    checks.append(BoundCheck("pi_lower", f"67 <= x <= {table.limit}", len(x), bad.tolist()))

    return BoundsReport(checks)
