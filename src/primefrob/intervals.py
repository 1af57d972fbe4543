"""Semigroups generated by the primes in [p, p + lam*p], and their scans.

lam is always an exact Fraction so that interval endpoints are decided by
the integer test b*q <= (a+b)*p; floating point would misclassify primes
sitting exactly on a jump point such as lam = 2/m.

The scans here feed the staircase picture: the quotient f/p, plotted
against x = 1 + lam, approaches a step function as p grows.  ratio_scan
computes exact (x, f, f/p) rows for a grid of x values; figure_grid builds
the grid where x*p is prime, which is where the quotient actually jumps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import DomainError, InvariantViolationError, OutOfRangeError
from .primes import PrimeTable
from .semigroup import AperyProfile, IncrementalApery, apery_set


def parse_lambda(text: str | int | float | Fraction) -> Fraction:
    """Exact positive rational from 'a/b', '0.3', or a number."""
    try:
        lam = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse ratio {text!r}: {exc}") from None
    if lam <= 0:
        raise DomainError(f"ratio must be positive, got {lam}")
    return lam


def _floor_mul(fr: Fraction, k: int) -> int:
    return (fr.numerator * k) // fr.denominator


def _ceil_mul(fr: Fraction, k: int) -> int:
    return -((-fr.numerator * k) // fr.denominator)


def interval_upper(p: int, lam: Fraction) -> int:
    """Largest integer allowed in [p, p + lam*p]."""
    return _floor_mul(1 + lam, p)


def interval_primes(table: PrimeTable, p: int, lam: Fraction) -> np.ndarray:
    """Ascending primes q with p <= q <= p + lam*p (inclusive, exact)."""
    if not table.is_prime(p):
        raise DomainError(f"{p} is not prime")
    hi = interval_upper(p, lam)
    return table.primes_in(p, hi)


def two_primes_in_interval(table: PrimeTable, p: int, lam: Fraction) -> bool:
    """Whether [p, p + lam*p] contains a second prime besides p."""
    return len(interval_primes(table, p, lam)) >= 2


@dataclass(frozen=True)
class LambdaSemigroup:
    """The semigroup generated by all primes in [p, p + lam*p]."""

    p: int
    lam: Fraction
    generators: tuple[int, ...]  # the interval's primes, ascending
    profile: AperyProfile

    @property
    def frobenius(self) -> int:
        return self.profile.frobenius

    @property
    def genus(self) -> int:
        return self.profile.genus


def build_interval_semigroup(table: PrimeTable, p: int, lam: Fraction) -> LambdaSemigroup:
    gens = interval_primes(table, p, lam)
    if len(gens) < 2:
        raise DomainError(
            f"[{p}, {p}+{lam}*{p}] contains {len(gens)} prime(s); need at least 2"
        )
    gens = tuple(gens.tolist())
    return LambdaSemigroup(p=p, lam=lam, generators=gens, profile=apery_set(gens))


def _staircase(num: int, den: int) -> int:
    """staircase(num/den) for integers num, den > 0, in any terms."""
    return 3 if num > den else 2 + (2 * den) // num


def staircase(lam: Fraction) -> int:
    """Conjectured limiting value of f/p: 2 + floor(2/lam) for lam <= 1, else 3."""
    # integer tests on the lowest-terms pair (denominator > 0) stay off
    # Fraction's comparison machinery, which a scan calls once per row
    num, den = lam.numerator, lam.denominator
    if num <= 0:
        raise DomainError(f"ratio must be positive, got {lam}")
    return _staircase(num, den)


@dataclass(frozen=True)
class StaircasePoint:
    """One scan row: exact f at x = 1 + lam, or None when [p, x*p] holds
    fewer than two primes.  The scan stores only integers and the grid's own
    x; lam, the quotient f/p and two_primes are built when read."""

    p: int
    x: Fraction
    f: int | None
    staircase: int

    @property
    def lam(self) -> Fraction:
        return self.x - 1

    @property
    def ratio(self) -> Fraction | None:
        return None if self.f is None else Fraction(self.f, self.p)

    @property
    def two_primes(self) -> bool:
        return self.f is not None


def figure_grid(table: PrimeTable, p: int, x_max: Fraction = Fraction(3)) -> list[Fraction]:
    """x values in (1, x_max] with x*p prime: exactly where f can jump."""
    if not table.is_prime(p):
        raise DomainError(f"{p} is not prime")
    hi = _floor_mul(x_max, p)
    return [Fraction(int(q), p) for q in table.primes_in(p + 1, hi)]


def ratio_scan(
    table: PrimeTable, p: int, xs: Iterable[Fraction]
) -> list[StaircasePoint]:
    """Exact f for each grid point x (lam = x - 1), ascending in x.

    Generators are folded incrementally: moving to a larger x only adds
    primes, so one Apery table at multiplicity p serves the whole scan.
    Each row is worked out from x's lowest-terms (numerator, denominator)
    pair, with no Fraction arithmetic; a point keeps the grid's own x.
    Points whose interval holds fewer than two primes are emitted with
    f=None (so two_primes is False) rather than dropped silently.
    """
    if not table.is_prime(p):
        raise DomainError(f"{p} is not prime")
    # sort, then drop adjacent repeats: an ascending grid costs one linear
    # pass, where a set would scatter it into hash order for the sort to
    # undo; Fractions are immutable, so they are kept rather than rebuilt,
    # and are in lowest terms, so equal values have equal integer pairs
    grid: list[tuple[Fraction, int, int]] = []
    last = None
    for x in sorted(v if type(v) is Fraction else Fraction(v) for v in xs):
        pair = (x.numerator, x.denominator)
        if pair != last:
            grid.append((x, *pair))
            last = pair
    if not grid:
        return []
    if grid[0][0] <= 1:
        raise DomainError(f"grid values must exceed 1, got {grid[0][0]}")
    qs = table.primes_in(p, last[0] * p // last[1]).tolist()
    inc = IncrementalApery(p)
    points: list[StaircasePoint] = []
    idx = 1  # qs[0] == p, already in the table
    for x, num, den in grid:
        hi = num * p // den
        while idx < len(qs) and qs[idx] <= hi:
            inc.add(qs[idx])
            idx += 1
        f = inc.frobenius() if idx >= 2 else None
        points.append(StaircasePoint(p, x, f, _staircase(num - den, den)))  # lam = x - 1
    return points


def universal_lower_bound(ls: LambdaSemigroup) -> bool:
    """f >= 3p - 6, which holds for every interval semigroup."""
    return ls.frobenius >= 3 * ls.p - 6


@dataclass(frozen=True)
class NarrowBoundResult:
    bound: int           # (m+2)p - 2
    f_at_least: bool     # f >= bound
    is_gap: bool         # bound is not in the semigroup

    def __bool__(self) -> bool:
        return self.f_at_least and self.is_gap


def narrow_interval_bound(ls: LambdaSemigroup, m: int) -> NarrowBoundResult:
    """For lam < 2/m and p > 2/(2 - lam*m): f >= (m+2)p - 2, and that value
    is itself a gap (a parity count over the possible summands rules it out).
    """
    if m < 2:
        raise DomainError(f"m must be >= 2, got {m}")
    lam, p = ls.lam, ls.p
    if lam * m >= 2:
        raise DomainError(f"need lam < 2/m; got lam={lam}, m={m}")
    # p > 2/(2 - lam*m), cleared of denominators
    if p * (2 * lam.denominator - lam.numerator * m) <= 2 * lam.denominator:
        raise DomainError(f"p={p} is too small for lam={lam}, m={m}")
    bound = (m + 2) * p - 2
    return NarrowBoundResult(
        bound=bound,
        f_at_least=ls.frobenius >= bound,
        is_gap=not ls.profile.contains(bound),
    )


def triple_prime_pattern(table: PrimeTable, m: int, t_max: int) -> np.ndarray:
    """All t in [1, t_max] with 1 + t*m, 3 + t*m, 1 + t*(m+2) simultaneously prime."""
    if m < 2:
        raise DomainError(f"m must be >= 2, got {m}")
    if t_max < 1:
        raise DomainError(f"t_max must be >= 1, got {t_max}")
    if 1 + t_max * (m + 2) > table.limit:
        raise OutOfRangeError(
            f"pattern reaches {1 + t_max * (m + 2)}, beyond the sieve limit {table.limit}"
        )
    t = np.arange(1, t_max + 1, dtype=np.int64)
    ok = (
        table.primality[1 + t * m]
        & table.primality[3 + t * m]
        & table.primality[1 + t * (m + 2)]
    )
    return t[ok]


def dip_witness(table: PrimeTable, p: int, m: int) -> int | None:
    """If f at lam = 2/m dips below (m+2)p - 2, explain the dip.

    The dip forces p = 1 + t'm with t' in the triple-prime pattern for m:
    then p + 2 is prime and the largest interval prime is 1 + t'(m+2).
    Returns t' when the dip occurs, None otherwise; an engine result that
    dips without the pattern would be a contradiction and raises.
    """
    if m < 2:
        raise DomainError(f"m must be >= 2, got {m}")
    if p <= m:
        raise DomainError(f"need p > m, got p={p}, m={m}")
    lam = Fraction(2, m)
    ls = build_interval_semigroup(table, p, lam)
    if ls.frobenius >= (m + 2) * p - 2:
        return None
    if (p - 1) % m != 0:
        raise InvariantViolationError(
            f"f dipped below (m+2)p-2 at p={p}, m={m} but p != 1 mod m"
        )
    t_prime = (p - 1) // m
    in_pattern = (
        table.is_prime(1 + t_prime * m)
        and table.is_prime(3 + t_prime * m)
        and table.is_prime(1 + t_prime * (m + 2))
    )
    if not in_pattern:
        raise InvariantViolationError(
            f"dip at p={p}, m={m} without the triple-prime pattern at t'={t_prime}"
        )
    if not table.is_prime(p + 2):
        raise InvariantViolationError(f"dip at p={p}, m={m} but p+2 is not prime")
    if ls.generators[-1] != 1 + t_prime * (m + 2):
        raise InvariantViolationError(
            f"largest interval prime {ls.generators[-1]} != 1 + t'(m+2) at p={p}, m={m}"
        )
    return t_prime


def upper_window_check(ls: LambdaSemigroup, m: int, eps: Fraction) -> bool:
    """Whether every integer in [(m+1+eps)p, (m+2+eps)p] is in the semigroup.

    A full window of p consecutive members pushes f below (m+1+eps)p.
    Requires eps < lam - 2/m so the window argument has room.
    """
    if m < 2:
        raise DomainError(f"m must be >= 2, got {m}")
    eps = Fraction(eps)
    if eps >= ls.lam - Fraction(2, m):
        raise DomainError(f"need eps < lam - 2/m; got eps={eps}, lam={ls.lam}, m={m}")
    lo = _ceil_mul(m + 1 + eps, ls.p)
    hi = _floor_mul(m + 2 + eps, ls.p)
    if lo > hi:
        return True
    window = np.arange(lo, hi + 1, dtype=np.int64)
    return bool(ls.profile.contains_many(window).all())

