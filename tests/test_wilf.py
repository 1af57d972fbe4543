import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primefrob.errors import DomainError
from primefrob.intervals import build_interval_semigroup
from primefrob.semigroup import apery_set, normalize_generators
from primefrob.wilf import (
    SpRangeRow,
    WilfReport,
    _l,
    _l2,
    analytic_l,
    analytic_l2,
    cube_gap_holds,
    density,
    frobenius_square_bound,
    l2_strictly_decreasing,
    l_strictly_increasing,
    pi_growth_chain,
    selmer_bound,
    small_cases,
    sp_row,
    sporadic_prime_family,
    verify_sp_range,
    wilf_report,
)


def report_for(gens):
    return wilf_report(apery_set(normalize_generators(gens)))


def test_wilf_equality_cases():
    rep = report_for([3, 5])
    assert rep.lhs == rep.rhs == Fraction(1, 2)
    assert rep.holds and rep.product_ok
    rep = report_for([2, 3])
    assert rep.lhs == Fraction(1, 2) and rep.holds


def test_wilf_strict_case():
    rep = report_for([23, 29, 31, 37, 41, 43])
    assert rep.e == 6 and rep.f == 102
    assert rep.holds


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=2, max_value=150), min_size=2, max_size=5))
def test_wilf_two_forms_agree(gens):
    g = 0
    for x in gens:
        g = math.gcd(g, x)
    if g != 1:
        return
    rep = report_for(gens)
    assert rep.holds == rep.product_ok
    assert rep.holds == (rep.lhs <= rep.rhs)
    assert rep.sporadic == 1 + rep.f - rep.g


def test_sp_row_known_anchors(table_small):
    r8 = sp_row(table_small, 8)
    assert (r8.p, r8.f, r8.e) == (19, 101, 5) and r8.holds
    assert r8.improved_rhs == 66 and not r8.f_lt_improved_rhs
    r9 = sp_row(table_small, 9)
    assert (r9.p, r9.f, r9.e) == (23, 102, 6) and r9.holds
    assert r9.improved_rhs == 91


def test_sp_row_carries_the_wilf_report(table_small):
    for n in (8, 9, 40):
        row = sp_row(table_small, n)
        rep = wilf_report(build_interval_semigroup(table_small, row.p, Fraction(1)).profile)
        assert isinstance(row, WilfReport)
        assert {name: getattr(row, name) for name in vars(rep)} == vars(rep)
    own = set(SpRangeRow.__dataclass_fields__) - set(WilfReport.__dataclass_fields__)
    assert own == {"n", "improved_rhs", "improved_ok", "f_lt_improved_rhs"}


def test_verify_sp_range_orders_rows(table_small):
    rows = verify_sp_range(table_small, 8, 20)
    assert [r.n for r in rows] == list(range(8, 21))
    assert all(r.holds for r in rows)
    with pytest.raises(DomainError):
        verify_sp_range(table_small, 5, 4)


def test_verify_sp_range_pool_matches_one_process(table_small):
    assert verify_sp_range(table_small, 8, 40, workers=2) == verify_sp_range(table_small, 8, 40)


def test_bounds_take_only_lam_1(table_wilf):
    half = build_interval_semigroup(table_wilf, table_wilf.nth_prime(700), Fraction(1, 2))
    with pytest.raises(DomainError):
        frobenius_square_bound(table_wilf, half)
    with pytest.raises(DomainError):
        selmer_bound(table_wilf, half)


def test_square_and_selmer_bounds(table_wilf):
    ls = {n: build_interval_semigroup(table_wilf, table_wilf.nth_prime(n), Fraction(1))
          for n in (8, 100, 674, 675, 1000)}
    assert frobenius_square_bound(table_wilf, ls[675])
    assert frobenius_square_bound(table_wilf, ls[1000])
    with pytest.raises(DomainError):
        frobenius_square_bound(table_wilf, ls[674])
    # n=8: f=101, k = pi(38)-8+1 = 5, rhs = 2*19*37/5
    assert selmer_bound(table_wilf, ls[8])
    assert selmer_bound(table_wilf, ls[100])
    assert selmer_bound(table_wilf, ls[675])


def test_analytic_values():
    assert abs(analytic_l(5039) - 1.61158) < 1e-5
    assert analytic_l(100) < analytic_l(1000)
    assert cube_gap_holds()
    assert analytic_l2(675) < (analytic_l(5039) - 1) ** 3
    with pytest.raises(DomainError):
        analytic_l(50)
    with pytest.raises(DomainError):
        analytic_l2(600)


def test_analytic_envelopes_agree_with_the_array_form():
    xs = np.arange(67, 501, dtype=np.float64)
    assert [analytic_l(int(x)) for x in xs] == _l(xs).tolist()
    xs = np.arange(675, 1001, dtype=np.float64)
    assert [analytic_l2(int(x)) for x in xs] == _l2(xs).tolist()


def test_analytic_monotonicity_grids():
    assert l_strictly_increasing(67, 10_000)
    assert l2_strictly_decreasing(675, 10_000)


def test_pi_growth_chain_spot(table_wilf):
    assert pi_growth_chain(table_wilf, 675, 800) == []
    with pytest.raises(DomainError):
        pi_growth_chain(table_wilf, 100, 200)


def test_sporadic_family_for_s19(table_small):
    ls = build_interval_semigroup(table_small, 19, Fraction(1))
    size, ok = sporadic_prime_family(table_small, ls)
    assert size == 8 and ok  # floor(101/19)-1 = 4 shifts of the 2 window primes


def test_sporadic_family_needs_room(table_small):
    ls = build_interval_semigroup(table_small, 2, Fraction(1))
    with pytest.raises(DomainError):
        sporadic_prime_family(table_small, ls)


def test_sporadic_family_larger(table_100k):
    ls = build_interval_semigroup(table_100k, 10007, Fraction(1))
    size, ok = sporadic_prime_family(table_100k, ls)
    assert ok and size > 0


def test_small_cases_report(table_small):
    rep = small_cases(table_small)
    assert rep.all_ok
    assert rep.f19_is_101 and rep.f23_is_102
    assert rep.s19_has_19_below_63 and rep.s19_has_16_below_59
    assert rep.s23_has_17_below_70 and rep.e23_is_6


def test_density_values(table_figure):
    assert density(table_figure, 3) == Fraction(1, 2)
    d = density(table_figure, 48623)
    assert abs(d - Fraction(3, 8)) < Fraction(1, 20)
    # frozen regression: exact rational at the figure prime
    assert d == Fraction(77209, 194577)
