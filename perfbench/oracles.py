"""Reference computations that check CLI output without sharing its code.

Nothing here imports primefrob.  These are the same independent oracles the
package's test suite relies on, written again on plain Python integers:
bitset reachability for Frobenius number, genus and atoms, the Sylvester
closed form for two generators, and an exact re-validation of decomposition
certificates.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction


class Primes:
    """Sieve of Eratosthenes over [0, limit] that regrows on demand."""

    def __init__(self, limit: int):
        self.limit = 1
        self.flags = bytearray(2)
        self.list: list[int] = []
        self.ensure(limit)

    def ensure(self, limit: int) -> None:
        if limit <= self.limit:
            return
        limit = max(limit, 2 * self.limit)
        flags = bytearray([1]) * (limit + 1)
        flags[0:2] = b"\0\0"
        for p in range(2, math.isqrt(limit) + 1):
            if flags[p]:
                flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
        self.limit, self.flags = limit, flags
        self.list = [n for n in range(limit + 1) if flags[n]]

    def is_prime(self, n: int) -> bool:
        self.ensure(n)
        return n >= 0 and bool(self.flags[n])

    def nth(self, n: int) -> int:
        while len(self.list) < n:
            self.ensure(2 * self.limit)
        return self.list[n - 1]

    def between(self, lo: int, hi: int) -> list[int]:
        """Primes q with lo <= q <= hi."""
        self.ensure(hi)
        return self.list[bisect.bisect_left(self.list, lo) : bisect.bisect_right(self.list, hi)]


def reachable(gens, n_max: int) -> int:
    """Bit k of the result is set iff 0 <= k <= n_max is a sum of gens."""
    mask = (1 << (n_max + 1)) - 1
    reach = 1
    for g in gens:
        while True:
            grown = (reach | (reach << g)) & mask
            if grown == reach:
                break
            reach = grown
    return reach


class Semigroup:
    """Frobenius number, genus and membership of the semigroup generated by
    ``gens_upto(n)`` (all generators <= n), found by bitset closure.

    The closure window doubles until m consecutive members sit above the
    largest gap, which proves every larger integer is a member.  ``hint`` is
    a first guess at the Frobenius number that makes one pass enough when it
    is right; a hint beyond ``HINT_BUDGET`` (a corrupted output) is ignored.
    """

    HINT_BUDGET = 1 << 24

    def __init__(self, gens_upto, m: int, hint: int | None = None):
        hint = hint if hint is not None and 0 <= hint <= self.HINT_BUDGET else 0
        n_max = max(4 * m, hint + m)
        while True:
            reach = reachable(gens_upto(n_max), n_max)
            gaps = ~reach & ((1 << (n_max + 1)) - 1)
            frobenius = gaps.bit_length() - 1
            if n_max - frobenius >= m:
                break
            n_max *= 2
        self.n_max, self.reach = n_max, reach
        self.frobenius = frobenius
        self.genus = gaps.bit_count()

    def contains(self, n: int) -> bool:
        return n >= 0 and (n > self.frobenius or bool(self.reach >> n & 1))

    def atom_count(self, gens) -> int:
        """Generators that are not a sum of two nonzero members."""
        m = min(gens)
        count = 0
        for g in gens:
            # a sum of two nonzero members is at least 2m
            if g < 2 * m or not any(
                self.contains(s) and self.contains(g - s) for s in range(m, g // 2 + 1)
            ):
                count += 1
        return count


def finite(gens) -> Semigroup:
    gens = sorted(gens)
    return Semigroup(lambda n: [g for g in gens if g <= n], gens[0])


def sylvester_frobenius(a: int, b: int) -> int:
    return a * b - a - b


def decimal6(value) -> str:
    """Fixed 6-digit decimal with round-half-even, as the CLI documents."""
    fr = Fraction(value)
    q, r = divmod(abs(fr.numerator) * 10**6, fr.denominator)
    if 2 * r > fr.denominator or (2 * r == fr.denominator and q % 2 == 1):
        q += 1
    sign = "-" if fr < 0 else ""
    return f"{sign}{q // 10**6}.{q % 10**6:06d}"


def iroot(x: int, k: int) -> int:
    """Largest r with r**k <= x."""
    r = int(round(x ** (1.0 / k)))
    while r**k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


def certificate_ok(primes: Primes, n: int, m: int, parts, max_deviation: int,
                   limit: Fraction, strict: bool) -> bool:
    """Re-derive a decomposition certificate: m primes summing to n whose
    largest deviation |m*q - n| is as stated and within the claimed limit."""
    if len(parts) != m or sum(parts) != n or min(parts) < 2:
        return False
    if not all(primes.is_prime(q) for q in parts):
        return False
    if max(abs(m * q - n) for q in parts) != max_deviation:
        return False
    return max_deviation < limit if strict else max_deviation <= limit
