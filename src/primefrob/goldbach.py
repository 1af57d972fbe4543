"""Prime decompositions with closeness certificates, and tail semigroups.

Two families of results live here:

* Writing N as a sum of m primes that are almost equal: each part must stay
  within an explicit window of N/m.  Every search returns a DecompCertificate
  whose bound is re-checkable in exact integer arithmetic; deviations are
  stored as |m*q - N| so no division ever happens.

* The semigroups generated by all primes >= p_n.  These have infinitely many
  generators, but a truncation B with computed f <= B is a proof that the
  discarded generators were already members, so the finite answer is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DecompositionError, DomainError, InvariantViolationError
from .primes import (
    BAKER_EXPONENT,
    PrimeTable,
    extend_table,
    floor_power,
    parallel_map,
    table_for_nth_prime,
)
from .semigroup import AperyProfile, IncrementalApery

BOUND_DELTA = "delta"      # strict: |m*q_i - N| < m*delta*N
BOUND_WINDOW = "n_theta"   # inclusive: |m*q_i - N| <= m*floor(N^theta)
# keeps N**a, from which floor(N^(a/b)) is rooted, to a bounded size
MAX_THETA_DENOMINATOR = 1000
# doublings of the first tail truncation before tail_frobenius gives up
MAX_TRUNCATION_ROUNDS = 20


@dataclass(frozen=True)
class DecompCertificate:
    """N = sum of m primes, with the achieved deviation and the claimed bound.

    max_deviation = max over parts of |m*q_i - N| (exact integer).  The claim
    is max_deviation < bound_limit for the strict delta bound, <= for the
    window bound; validate() re-derives everything from scratch.
    """

    N: int
    m: int
    parts: tuple[int, ...]
    max_deviation: int
    bound_type: str
    bound_limit: Fraction

    @classmethod
    def of(cls, n: int, parts: tuple[int, ...], bound_type: str,
           bound_limit: Fraction) -> DecompCertificate:
        """The certificate of n = sum(parts), m = len(parts), under the claimed bound."""
        m = len(parts)
        return cls(N=n, m=m, parts=parts, max_deviation=max(abs(m * q - n) for q in parts),
                   bound_type=bound_type, bound_limit=bound_limit)

    @property
    def strict(self) -> bool:
        return self.bound_type == BOUND_DELTA

    def bound_satisfied(self) -> bool:
        dev = Fraction(self.max_deviation)
        return dev < self.bound_limit if self.strict else dev <= self.bound_limit

    def validate(self, table: PrimeTable) -> bool:
        if len(self.parts) != self.m or sum(self.parts) != self.N:
            return False
        if any(not table.is_prime(q) for q in self.parts):
            return False
        if max(abs(self.m * q - self.N) for q in self.parts) != self.max_deviation:
            return False
        return self.bound_satisfied()


def binary_decomp(table: PrimeTable, n: int, window: int) -> tuple[int, int] | None:
    """Two primes q1 <= q2 with q1 + q2 = n, both within ``window`` of n/2,
    minimizing |q1 - n/2|.  None when no such pair exists (that is an answer,
    not an error: small windows legitimately fail).
    """
    if n % 2 != 0 or n < 4:
        raise DomainError(f"need an even n >= 4, got {n}")
    half = n // 2
    w = min(window, half - 2)  # the search ends at q1 = 2
    table._check_range(half + w, "window end")
    return _balanced_pair(table, n, half - w, half + w)


def _balanced_pair(table: PrimeTable, r: int, lo: int, hi: int) -> tuple[int, int] | None:
    """Primes q2 <= q3, q2 + q3 = r, both in [lo, hi], most balanced first."""
    half = r // 2
    start = 0 if r % 2 == 0 else 1  # odd r needs q2 != q3
    for d in range(start, half - 1):
        q2, q3 = half - d, half + d + (r % 2)
        if q2 < lo or q3 > hi:
            return None
        if table.is_prime(q2) and table.is_prime(q3):
            return (q2, q3)
    return None


def _three_primes(
    table: PrimeTable, n: int, lo: int, hi: int
) -> tuple[int, int, int] | None:
    """n as q1+q2+q3, all prime, all in [lo, hi]; q1 nearest n/3 first."""
    candidates = table.primes_in(max(lo, 2), hi)
    if len(candidates) == 0:
        return None
    order = np.lexsort((candidates, np.abs(3 * candidates - n)))
    for q1 in candidates[order]:
        q1 = int(q1)
        pair = _balanced_pair(table, n - q1, lo, hi)
        if pair is not None:
            return tuple(sorted((q1, *pair)))
    return None


def _window_exponent(theta: Fraction | float) -> Fraction:
    """theta as an exact rational in (0, 1]; a float is read by its decimal
    form, so 0.6 means 3/5."""
    theta = Fraction(str(theta)) if isinstance(theta, float) else Fraction(theta)
    if not 0 < theta <= 1 or theta.denominator > MAX_THETA_DENOMINATOR:
        raise DomainError(
            f"theta must lie in (0, 1] with a denominator of at most "
            f"{MAX_THETA_DENOMINATOR}, got {theta}"
        )
    return theta


def ternary_window(n: int, theta: Fraction | float) -> tuple[int, int, int]:
    """(w, lo, hi) for n >= 0: w = floor(n^theta), and the three parts lie in
    [lo, hi] = [ceil((n - 3w)/3), floor((n + 3w)/3)].  theta is checked before
    n^theta is formed."""
    w = floor_power(n, _window_exponent(theta))
    return w, -((-(n - 3 * w)) // 3), (n + 3 * w) // 3


def _check_ternary(n: int) -> None:
    if n % 2 == 0 or n < 9:
        raise DomainError(f"need an odd n >= 9, got {n}")


def _check_split(n: int, m: int, delta: Fraction) -> Fraction:
    """delta as a Fraction, once n, m and delta suit decompose_m."""
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    delta = Fraction(delta)
    if m < 3:
        raise DomainError(f"need m >= 3, got {m}")
    if delta <= 0:
        raise DomainError(f"need delta > 0, got {delta}")
    if n % 2 != m % 2:
        raise DomainError(f"n={n} and m={m} must have equal parity")
    return delta


def _delta_window(n: int, delta: Fraction) -> tuple[int, int]:
    """The strict window (n/3 - delta*n, n/3 + delta*n) in integers."""
    lo = (Fraction(n, 3) - delta * n).__floor__() + 1
    hi = (Fraction(n, 3) + delta * n).__ceil__() - 1
    return lo, hi


def _anchor_window(n: int, m: int) -> tuple[int, int]:
    """(c - floor(c^(21/40)), c) for c = floor(n/m): the window, cut below
    at 2, that an m > 3 split takes its anchor from."""
    center = n // m
    return center - floor_power(center, BAKER_EXPONENT), center


def decomposition_reach(
    n: int, m: int, delta: Fraction | None, theta: Fraction | float = Fraction(3, 5)
) -> int:
    """The far end of the window that the search for n as m primes reads:
    ternary_decomp's when delta is None (so m = 3), else decompose_m's.  The
    search's domain checks run first, so no table is sized for a request
    that the search would refuse.
    """
    theta = _window_exponent(theta)
    if delta is None:
        _check_ternary(n)
        return ternary_window(n, theta)[2]
    delta = _check_split(n, m, delta)
    if m == 3:
        return _delta_window(n, delta)[1]
    lo, center = _anchor_window(n, m)
    lo = max(2, lo)
    if lo > center:
        return center  # no anchor, so no inner search
    # the inner ternary window grows with the rest, which is largest for the
    # smallest anchor
    return max(center, ternary_window(n - (m - 3) * lo, theta)[2])


def ternary_decomp(
    table: PrimeTable, n: int, theta: Fraction | float = Fraction(3, 5)
) -> DecompCertificate:
    """n (odd, >= 9) as three primes, each within floor(n^theta) of n/3."""
    _check_ternary(n)
    theta = _window_exponent(theta)
    w, lo, hi = ternary_window(n, theta)
    parts = _three_primes(table, n, lo, hi)
    if parts is None:
        raise DecompositionError(
            f"no three-prime split of {n} with parts in [{lo}, {hi}] "
            f"(window floor(n^({theta})) = {w})"
        )
    return DecompCertificate.of(n, parts, BOUND_WINDOW, Fraction(3 * w))


def decompose_m(
    table: PrimeTable,
    n: int,
    m: int,
    delta: Fraction,
    theta: Fraction | float = Fraction(3, 5),
) -> DecompCertificate:
    """n as m primes with every part strictly within delta*n of n/m.

    For m = 3 the three-prime search runs directly over the delta window.
    For m > 3 the construction peels off m-3 copies of the largest prime P in
    [floor(n/m) - floor((n/m)^(21/40)), floor(n/m)], then splits the odd
    remainder n - (m-3)P into three primes; the delta claim is re-checked
    over all m parts at the end.
    """
    delta = _check_split(n, m, delta)
    limit = Fraction(m) * delta * n  # claim: |m*q - n| < limit for every part
    if m == 3:
        parts = _three_primes(table, n, *_delta_window(n, delta))
        if parts is None:
            raise DecompositionError(
                f"no three-prime split of {n} within delta={delta} of n/3"
            )
    else:
        lo, center = _anchor_window(n, m)
        window = table.primes_in(max(2, lo), center)
        if len(window) == 0:
            raise DecompositionError(
                f"no prime in [{lo}, {center}] to anchor m={m}"
            )
        anchor = int(window[-1])
        rest = n - (m - 3) * anchor
        if rest % 2 == 0 or rest < 9:  # only the anchor 2 leaves such a rest
            raise DecompositionError(
                f"anchor {anchor} leaves the rest {rest}, not an odd number >= 9 to split in three"
            )
        inner = ternary_decomp(table, rest, theta=theta)
        parts = tuple(sorted(inner.parts + (anchor,) * (m - 3)))
    cert = DecompCertificate.of(n, parts, BOUND_DELTA, limit)
    if not cert.bound_satisfied():
        raise DecompositionError(
            f"split of {n} into {m} parts missed the delta={delta} bound: "
            f"max deviation {cert.max_deviation} vs limit {limit}"
        )
    return cert


def _first_truncation(p_n: int, n: int) -> int:
    """The first generator cutoff B = 4*p_n + 2n that tail_frobenius tries."""
    return 4 * p_n + 2 * n


@dataclass(frozen=True)
class TailProfile:
    """Exact invariants of the semigroup of all primes >= p_n.

    truncation is the generator cutoff B actually used; certificate_ok
    records f <= B, which makes the truncation lossless: any prime > B
    exceeds f, so it was already a member.
    """

    n: int
    p_n: int
    truncation: int
    f: int
    certificate_ok: bool
    profile: AperyProfile


def tail_frobenius(table: PrimeTable, n: int) -> TailProfile:
    """Frobenius number of the semigroup generated by all primes >= p_n.

    Start from the truncation B = 4*p_n + 2n and fold the primes of (p_n, B]
    ascending into one table.  A prime that is already a member is skipped,
    since its fold would change nothing, and a prime above every current
    Apery value ends the folding early.  If the computed f fits under B the
    truncated semigroup equals the full one and the answer is exact;
    otherwise B doubles and only the primes the doubling adds are folded.
    Folds commute and only lower entries, so the table after each round is
    the one a fresh build from the primes <= B would give.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    table = table_for_nth_prime(table, n)
    p_n = table.nth_prime(n)
    inc = IncrementalApery(p_n)
    top = math.inf  # an upper bound on every Apery value, from the last fold
    lo, bound = p_n + 1, _first_truncation(p_n, n)
    for _ in range(MAX_TRUNCATION_ROUNDS):
        table = extend_table(table, bound)
        for q in table.primes_in(lo, bound).tolist():
            if q > top:
                break  # every later prime is even larger; the table is final
            if inc.contains(q):
                continue  # a member's fold would change nothing
            top = inc.add(q)
        if inc.complete and (f := inc.frobenius()) <= bound:
            return TailProfile(n=n, p_n=p_n, truncation=bound, f=f,
                               certificate_ok=True, profile=inc.profile())
        lo, bound = bound + 1, 2 * bound
    raise InvariantViolationError(
        f"no truncation certificate for n={n} after {MAX_TRUNCATION_ROUNDS} doublings"
    )


@dataclass(frozen=True)
class TailScanRow:
    n: int
    p_n: int
    f_n: int
    f_next: int
    f_odd: bool
    delta_next: int  # f_{n+1} - 3 p_n
    delta_in_range: bool

    @property
    def passes(self) -> bool:
        return self.f_odd and self.delta_in_range


def _tail_p_f(table: PrimeTable, n: int) -> tuple[int, int]:
    tp = tail_frobenius(table, n)
    return tp.p_n, tp.f


def sn_scan(table: PrimeTable, n_lo: int, n_hi: int, workers: int = 1) -> list[TailScanRow]:
    """Rows for n in [n_lo, n_hi]: f_n parity and the jump f_{n+1} - 3 p_n.

    The observed pattern for n >= 5: f_n is odd and the jump sits strictly
    between 0 and 2n.  The table first grows to cover every first-round
    truncation; with workers > 1 the per-n builds then fan out over processes
    that share it.  Rows come back merged in n order either way.
    """
    if n_lo < 1 or n_hi < n_lo:
        raise DomainError(f"bad range [{n_lo}, {n_hi}]")
    table = table_for_nth_prime(table, n_hi + 1)
    table = extend_table(table, _first_truncation(table.nth_prime(n_hi + 1), n_hi + 1))
    tails = parallel_map(_tail_p_f, table, range(n_lo, n_hi + 2), workers, chunksize=16)
    rows = []
    for n, (p_n, f_n), (_, f_next) in zip(range(n_lo, n_hi + 1), tails, tails[1:]):
        delta = f_next - 3 * p_n
        rows.append(TailScanRow(n=n, p_n=p_n, f_n=f_n, f_next=f_next, f_odd=f_n % 2 == 1,
                                delta_next=delta, delta_in_range=0 < delta < 2 * n))
    return rows


@dataclass(frozen=True)
class OddScanResult:
    n: int
    start: int
    count: int
    ok: bool
    first_failure: int | None


def odd_membership_scan(table: PrimeTable, n: int, count: int) -> OddScanResult:
    """Check the first ``count`` odd integers >= 3*p_n + 2n for membership in
    the semigroup of primes >= p_{n+1}.  Failures are reported with the
    witness, not raised: the expectation is asymptotic.
    """
    if count < 1:
        raise DomainError(f"need count >= 1, got {count}")
    table = table_for_nth_prime(table, n + 1)
    p_n = table.nth_prime(n)
    tail = tail_frobenius(table, n + 1)
    start = 3 * p_n + 2 * n
    if start % 2 == 0:
        start += 1
    odds = start + 2 * np.arange(count, dtype=np.int64)
    member = tail.profile.contains_many(odds)
    if bool(member.all()):
        return OddScanResult(n=n, start=start, count=count, ok=True, first_failure=None)
    first = int(odds[np.argmin(member)])
    return OddScanResult(n=n, start=start, count=count, ok=False, first_failure=first)


def exceptional_evens(p: int, profile: AperyProfile) -> np.ndarray:
    """Even numbers in [2p, 4p] missing from the semigroup of primes in [p, 2p]."""
    evens = np.arange(2 * p, 4 * p + 1, 2, dtype=np.int64)
    member = profile.contains_many(evens)
    return evens[~member]
