import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primefrob.errors import DomainError, OutOfRangeError
from primefrob.intervals import (
    build_interval_semigroup,
    dip_witness,
    figure_grid,
    interval_primes,
    narrow_interval_bound,
    parse_lambda,
    ratio_scan,
    staircase,
    triple_prime_pattern,
    two_primes_in_interval,
    universal_lower_bound,
    upper_window_check,
)
from primefrob.semigroup import atoms


def test_parse_lambda():
    assert parse_lambda("1/2") == Fraction(1, 2)
    assert parse_lambda("0.3") == Fraction(3, 10)
    assert parse_lambda(2) == Fraction(2)
    with pytest.raises(DomainError):
        parse_lambda("0")
    with pytest.raises(DomainError):
        parse_lambda("-1/2")
    with pytest.raises(DomainError):
        parse_lambda("x")


def test_interval_endpoint_is_inclusive(table_small):
    # 29 sits exactly on 23 + (3/10)*23 * ... closed upper end: 23*13/10 = 29.9
    assert interval_primes(table_small, 23, Fraction(3, 10)).tolist() == [23, 29]
    # and an endpoint hit exactly: lam = 6/23 puts the end at 29 precisely
    assert interval_primes(table_small, 23, Fraction(6, 23)).tolist() == [23, 29]
    assert interval_primes(table_small, 23, Fraction(1, 10)).tolist() == [23]


def test_two_primes_examples(table_small):
    assert two_primes_in_interval(table_small, 2, Fraction(1))
    assert two_primes_in_interval(table_small, 23, Fraction(3, 10))
    assert not two_primes_in_interval(table_small, 23, Fraction(1, 10))
    with pytest.raises(DomainError):
        two_primes_in_interval(table_small, 24, Fraction(1))


def test_build_known_values(table_small):
    ls = build_interval_semigroup(table_small, 19, Fraction(1))
    assert ls.generators == (19, 23, 29, 31, 37)
    assert ls.p_lambda == 37
    assert ls.frobenius == 101
    assert build_interval_semigroup(table_small, 23, Fraction(1)).frobenius == 102
    ls2 = build_interval_semigroup(table_small, 2, Fraction(1))
    assert ls2.generators == (2, 3) and ls2.frobenius == 1


def test_build_requires_two_primes(table_small):
    with pytest.raises(DomainError):
        build_interval_semigroup(table_small, 23, Fraction(1, 10))


def test_staircase_values():
    assert staircase(Fraction(1)) == 4
    assert staircase(Fraction(2)) == 3
    assert staircase(Fraction(2, 3)) == 5
    assert staircase(Fraction(1, 2)) == 6
    assert staircase(Fraction(100)) == 3


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
)
def test_staircase_non_increasing(a1, b1, a2, b2):
    lam1, lam2 = Fraction(a1, b1), Fraction(a2, b2)
    if lam1 > lam2:
        lam1, lam2 = lam2, lam1
    assert staircase(lam1) >= staircase(lam2)
    if lam2 > 1:
        assert staircase(lam2) == 3


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=Fraction(1, 10**6), max_value=10, max_denominator=10**6))
def test_staircase_matches_its_formula(lam):
    assert staircase(lam) == (2 + math.floor(2 / lam) if lam <= 1 else 3)


def test_frobenius_monotone_in_lambda(table_100k):
    rng = random.Random(510)
    primes = table_100k.primes_in(3, 5_000)
    for _ in range(40):
        p = int(primes[rng.randrange(len(primes))])
        lam1 = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        lam2 = lam1 + Fraction(rng.randint(1, 12), rng.randint(1, 12))
        if not two_primes_in_interval(table_100k, p, lam1):
            continue
        f1 = build_interval_semigroup(table_100k, p, lam1).frobenius
        f2 = build_interval_semigroup(table_100k, p, lam2).frobenius
        assert f2 <= f1


def test_atoms_equal_generators_for_lambda_at_most_one(table_100k):
    rng = random.Random(901)
    primes = table_100k.primes_in(3, 20_000)
    for _ in range(25):
        p = int(primes[rng.randrange(len(primes))])
        lam = Fraction(rng.randint(1, 10), 10)
        if not two_primes_in_interval(table_100k, p, lam):
            continue
        ls = build_interval_semigroup(table_100k, p, lam)
        assert atoms(ls.profile) == ls.generators


def test_ratio_scan_records_exact_f(table_small):
    pts = ratio_scan(table_small, 19, [Fraction(2)])
    assert pts[0].f == 101
    assert pts[0].ratio * 19 == 101
    assert pts[0].staircase == 4
    pts = ratio_scan(table_small, 2, [Fraction(2)])
    assert pts[0].ratio == Fraction(1, 2)


def test_ratio_scan_flags_thin_intervals(table_small):
    pts = ratio_scan(table_small, 23, [Fraction(11, 10), Fraction(2)])
    assert pts[0].skipped and pts[0].f is None
    assert not pts[1].skipped and pts[1].f == 102


def test_ratio_scan_grid_matches_sorted_set(table_small):
    # unsorted, with repeats, ints among the Fractions
    xs = [Fraction(5, 2), 2, Fraction(23, 19), Fraction(4, 2), 3, Fraction(5, 2),
          Fraction(29, 19), Fraction(6, 2), Fraction(23, 19)]
    reference = sorted(set(Fraction(x) for x in xs))
    pts = ratio_scan(table_small, 19, xs)
    assert [pt.x for pt in pts] == reference
    assert all(type(pt.x) is Fraction and pt.lam == pt.x - 1 for pt in pts)
    assert pts == ratio_scan(table_small, 19, reference)


def test_ratio_scan_non_increasing_small(table_small):
    xs = figure_grid(table_small, 19, Fraction(3))
    pts = ratio_scan(table_small, 19, xs)
    ratios = [pt.ratio for pt in pts if not pt.skipped]
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))
    assert len(ratios) == len(xs)


def test_figure_grid_is_primes_over_p(table_small):
    xs = figure_grid(table_small, 19, Fraction(3))
    assert [x * 19 for x in xs] == [23, 29, 31, 37, 41, 43, 47, 53]
    with pytest.raises(OutOfRangeError):
        figure_grid(table_small, 1999, Fraction(3))


def test_universal_lower_bound_examples(table_small):
    for p, lam in ((19, Fraction(1)), (2, Fraction(1)), (23, Fraction(1))):
        assert universal_lower_bound(build_interval_semigroup(table_small, p, lam))


def test_narrow_interval_bound_examples(table_small):
    ls = build_interval_semigroup(table_small, 11, Fraction(1, 3))
    r = narrow_interval_bound(ls, 4)
    assert r.bound == 64 and r.f_at_least and r.is_gap and bool(r)
    ls = build_interval_semigroup(table_small, 11, Fraction(1, 2))
    r = narrow_interval_bound(ls, 2)
    assert r.bound == 42 and bool(r)
    with pytest.raises(DomainError):
        narrow_interval_bound(build_interval_semigroup(table_small, 3, Fraction(1, 2)), 3)
    with pytest.raises(DomainError):
        narrow_interval_bound(ls, 1)
    with pytest.raises(DomainError):
        # lam >= 2/m is out of scope for the narrow bound
        narrow_interval_bound(build_interval_semigroup(table_small, 11, Fraction(1)), 2)


def test_triple_prime_pattern_small(table_100k):
    assert triple_prime_pattern(table_100k, 2, 100).tolist() == [1]
    assert triple_prime_pattern(table_100k, 3, 10_000).tolist() == []
    assert 1 in triple_prime_pattern(table_100k, 4, 10).tolist()
    with pytest.raises(OutOfRangeError):
        triple_prime_pattern(table_100k, 4, 10**6)
    with pytest.raises(DomainError):
        triple_prime_pattern(table_100k, 1, 10)


def test_dip_witness_examples(table_small):
    assert dip_witness(table_small, 3, 2) == 1
    assert dip_witness(table_small, 5, 2) is None
    assert dip_witness(table_small, 19, 2) is None
    with pytest.raises(DomainError):
        dip_witness(table_small, 2, 2)


def test_dip_witness_scan_consistency(table_100k):
    # wherever the dip happens, the witness must land in the pattern set
    hits = []
    for p in table_100k.primes_in(3, 2_000):
        t = dip_witness(table_100k, int(p), 2)
        if t is not None:
            hits.append((int(p), t))
    pattern = set(triple_prime_pattern(table_100k, 2, 1_000).tolist())
    for p, t in hits:
        assert t in pattern and p == 1 + 2 * t
    assert hits == [(3, 1)]  # the pattern set for m=2 is {1}, so 3 is the only dip


def test_upper_window_check(table_figure):
    big = build_interval_semigroup(table_figure, 48623, Fraction(1))
    assert upper_window_check(big, 3, Fraction(1, 10))
    small = build_interval_semigroup(table_figure, 19, Fraction(1))
    assert not upper_window_check(small, 3, Fraction(1, 10))
    tiny = build_interval_semigroup(table_figure, 2, Fraction(1))
    assert upper_window_check(tiny, 3, Fraction(1, 10))
    with pytest.raises(DomainError):
        upper_window_check(big, 3, Fraction(1, 2))  # eps >= lam - 2/m
