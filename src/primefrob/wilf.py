"""Wilf quotient checks for prime-interval semigroups, plus the analytic
bounds that close the argument for large multiplicities.

The Wilf verdicts are exact integer or rational comparisons:
g/(1+f) <= (e-1)/e is decided by cross-multiplication, never by floats.
Floats remain in analytic_l, analytic_l2, l_strictly_increasing,
l2_strictly_decreasing and cube_gap_holds, and in pi_growth_chain's
comparison of pi(2p) with l(p)*n; none of these is certified yet.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .intervals import LambdaSemigroup, build_interval_semigroup
from .primes import PrimeTable, baker_window, extend_table, parallel_map, table_for_nth_prime
from .semigroup import AperyProfile, atoms


@dataclass(frozen=True)
class WilfReport:
    """Both sides of the Wilf quotient for one semigroup, decided exactly.

    holds and product_ok are the same statement in two algebraic forms:
    g/(1+f) <= (e-1)/e and e*(1+f-g) >= 1+f.  Both are computed so a test
    can assert they never diverge.
    """

    p: int
    e: int
    f: int
    g: int
    sporadic: int
    lhs: Fraction
    rhs: Fraction
    product_ok: bool
    holds: bool


def wilf_report(profile: AperyProfile) -> WilfReport:
    """The Wilf data of the profile's semigroup: e counts its atoms."""
    e = len(atoms(profile))
    f, g = profile.frobenius, profile.genus
    sporadic = 1 + f - g
    return WilfReport(
        p=profile.multiplicity,
        e=e,
        f=f,
        g=g,
        sporadic=sporadic,
        lhs=Fraction(g, 1 + f),
        rhs=Fraction(e - 1, e),
        product_ok=e * sporadic >= 1 + f,
        holds=Fraction(g, 1 + f) <= Fraction(e - 1, e),
    )


@dataclass(frozen=True)
class SpRangeRow(WilfReport):
    """The WilfReport of the semigroup of primes in [p_n, 2 p_n], plus the
    sharper product bound that uses the prime count k = pi(2p) - n + 1.

    improved_rhs = (2k+1)(k+1); improved_ok records e*sporadic >= improved_rhs
    and f_lt_improved_rhs records f < improved_rhs.  Both are data, not
    assertions: the sharper bound only kicks in for large n.
    """

    n: int
    improved_rhs: int
    improved_ok: bool
    f_lt_improved_rhs: bool


def sp_row(table: PrimeTable, n: int) -> SpRangeRow:
    p = table.nth_prime(n)
    rep = wilf_report(build_interval_semigroup(table, p, Fraction(1)).profile)
    k = table.prime_pi(2 * p) - n + 1  # primes in [p, 2p]
    improved_rhs = (2 * k + 1) * (k + 1)
    return SpRangeRow(**vars(rep), n=n, improved_rhs=improved_rhs,
                      improved_ok=rep.e * rep.sporadic >= improved_rhs,
                      f_lt_improved_rhs=rep.f < improved_rhs)


def verify_sp_range(
    table: PrimeTable, n_lo: int, n_hi: int, workers: int = 1
) -> list[SpRangeRow]:
    """One SpRangeRow per n in [n_lo, n_hi], in order.

    The table first grows to 2*p_{n_hi}; with workers > 1 the range then fans
    out over processes that share it.  Rows come back in n order either way.
    """
    if n_lo < 1 or n_hi < n_lo:
        raise DomainError(f"bad range [{n_lo}, {n_hi}]")
    table = table_for_nth_prime(table, n_hi)
    table = extend_table(table, 2 * table.nth_prime(n_hi))
    return parallel_map(sp_row, table, range(n_lo, n_hi + 1), workers, chunksize=8)


def _prime_index_at_lam_1(table: PrimeTable, ls: LambdaSemigroup) -> int:
    if ls.lam != 1:
        raise DomainError(f"bound is stated for lam = 1, got lam = {ls.lam}")
    return table.prime_pi(ls.p)


def frobenius_square_bound(table: PrimeTable, ls: LambdaSemigroup) -> bool:
    """f(p_n) < 2*(pi(2p_n) - n)^2 for ls = S(p_n) at lam = 1, meaningful for n > 674."""
    n = _prime_index_at_lam_1(table, ls)
    if n <= 674:
        raise DomainError(f"square bound applies for n > 674, got {n}")
    k = table.prime_pi(2 * ls.p) - n
    return ls.frobenius < 2 * k * k


def selmer_bound(table: PrimeTable, ls: LambdaSemigroup) -> bool:
    """f(p_n) < 2 * p_n * p_{pi(2p_n)} / (pi(2p_n) - n + 1) for ls = S(p_n) at
    lam = 1, decided in integers.

    Requires the prime count k = pi(2p_n) - n + 1 to stay below p_n, the
    regime where the two-generator reduction behind the bound applies.
    """
    n, p = _prime_index_at_lam_1(table, ls), ls.p
    pi2p = table.prime_pi(2 * p)
    k = pi2p - n + 1
    if k >= p:
        raise DomainError(f"bound needs pi(2p)-n+1 < p; got {k} >= {p} at n={n}")
    largest = table.nth_prime(pi2p)  # largest prime <= 2p
    return ls.frobenius * k < 2 * p * largest


# each envelope, elementwise on a float64 scalar or array, so the point
# values and the monotonicity grids evaluate one formula
def _l(x):
    return 2.0 * (np.log(x) - 1.5) / (np.log(2 * x) - 0.5)


def _l2(x):
    return 2.0 * (np.log(x) + np.log(np.log(x))) * (np.log(2 * x) + np.log(np.log(2 * x))) / x


def analytic_l(x: float) -> float:
    """2*(ln x - 3/2)/(ln 2x - 1/2); a lower factor for pi(2x)/pi(x), x >= 67."""
    if x < 67:
        raise DomainError(f"l(x) is used for x >= 67, got {x}")
    return float(_l(np.float64(x)))


def analytic_l2(x: float) -> float:
    """2*(ln x + ln ln x)*(ln 2x + ln ln 2x)/x, decreasing for x >= 675."""
    if x < 675:
        raise DomainError(f"l2(x) is used for x >= 675, got {x}")
    return float(_l2(np.float64(x)))


def l_strictly_increasing(lo: int = 67, hi: int = 10_000) -> bool:
    return bool((np.diff(_l(np.arange(lo, hi + 1, dtype=np.float64))) > 0).all())


def l2_strictly_decreasing(lo: int = 675, hi: int = 10_000) -> bool:
    return bool((np.diff(_l2(np.arange(lo, hi + 1, dtype=np.float64))) < 0).all())


def cube_gap_holds() -> bool:
    """l2(675) < (l(5039) - 1)^3: the margin that the sporadic-count argument
    needs at the crossover multiplicity."""
    return analytic_l2(675) < (analytic_l(5039) - 1.0) ** 3


@dataclass(frozen=True)
class ChainViolation:
    n: int
    pi_2p: int
    detail: str


def pi_growth_chain(table: PrimeTable, n_lo: int, n_hi: int) -> list[ChainViolation]:
    """Check 2n > pi(2 p_n) > l(p_n)*n >= l(5039)*n for each n in the range.

    Returns the violations (empty list = chain holds everywhere).
    """
    if n_lo < 675:
        raise DomainError(f"chain is asserted from n = 675 on, got {n_lo}")
    base = analytic_l(5039)
    out: list[ChainViolation] = []
    for n in range(n_lo, n_hi + 1):
        p = table.nth_prime(n)
        pi2p = table.prime_pi(2 * p)
        if not 2 * n > pi2p:
            out.append(ChainViolation(n, pi2p, f"2n = {2 * n} <= pi(2p) = {pi2p}"))
            continue
        ln = analytic_l(p)
        if not pi2p > ln * n:
            out.append(ChainViolation(n, pi2p, f"pi(2p) = {pi2p} <= l(p)*n = {ln * n:.3f}"))
            continue
        if not ln >= base:
            out.append(ChainViolation(n, pi2p, f"l(p) = {ln:.6f} < l(5039) = {base:.6f}"))
    return out


def sporadic_prime_family(table: PrimeTable, ls: LambdaSemigroup) -> tuple[int, bool]:
    """The family {i*p + q : 0 <= i <= floor(f/p) - 2, q prime in the short
    window [p, p + p^0.525]} consists of sporadic elements: members below f.

    Returns (family size, all members verified sporadic).  Needs f > 3p so
    the family is nonempty with room below f.
    """
    p, f = ls.p, ls.frobenius
    if f <= 3 * p:
        raise DomainError(f"family needs f > 3p; got f={f}, p={p}")
    m = f // p
    window = baker_window(table, p)
    qs = window.primes
    size = (m - 1) * len(qs)
    ok = True
    for i in range(0, m - 1):
        for q in qs:
            s = i * p + int(q)
            if not (s < f and ls.profile.contains(s)):
                ok = False
    return size, ok


@dataclass(frozen=True)
class SmallCasesReport:
    f23_is_102: bool
    s23_has_17_below_70: bool
    e23_is_6: bool
    f19_is_101: bool
    s19_has_19_below_63: bool
    s19_has_16_below_59: bool
    s19_contains_58: bool
    s19_contains_60_61_62: bool

    @property
    def all_ok(self) -> bool:
        return all(getattr(self, name) for name in self.__dataclass_fields__)


def small_cases(table: PrimeTable) -> SmallCasesReport:
    """The two small multiplicities whose Wilf verdicts are settled by hand
    counts: every arithmetic fact used there, rechecked by the engine."""
    s19 = build_interval_semigroup(table, 19, Fraction(1))
    s23 = build_interval_semigroup(table, 23, Fraction(1))
    e23 = len(atoms(s23.profile))
    return SmallCasesReport(
        f23_is_102=s23.frobenius == 102,
        s23_has_17_below_70=len(s23.profile.members_below(70)) == 17,
        e23_is_6=e23 == 6,
        f19_is_101=s19.frobenius == 101,
        s19_has_19_below_63=len(s19.profile.members_below(63)) == 19,
        s19_has_16_below_59=len(s19.profile.members_below(59)) == 16,
        s19_contains_58=s19.profile.contains(58),
        s19_contains_60_61_62=all(s19.profile.contains(v) for v in (60, 61, 62)),
    )


def density(table: PrimeTable, p: int) -> Fraction:
    """Sporadic density (1+f-g)/(1+f) of the semigroup of primes in [p, 2p];
    approaches 3/8 as p grows."""
    ls = build_interval_semigroup(table, p, Fraction(1))
    f, g = ls.frobenius, ls.genus
    return Fraction(1 + f - g, 1 + f)
