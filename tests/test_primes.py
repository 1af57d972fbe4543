import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primefrob.errors import ConfigurationError, DomainError, OutOfRangeError
from primefrob.primes import (
    PrimeTable,
    baker_window,
    build_table,
    extend_table,
    floor_power,
    table_for_nth_prime,
    verify_literature_bounds,
)


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_build_table_examples():
    t = build_table(100)
    assert len(t.prime_list) == 25
    assert t.prime_list[-1] == 97
    t2 = build_table(2)
    assert t2.prime_list.tolist() == [2]
    t3 = build_table(48623)
    assert t3.is_prime(48623)


def test_build_table_rejects_bad_limits():
    with pytest.raises(DomainError):
        build_table(1)
    with pytest.raises(DomainError):
        build_table(1 << 40)


@given(st.integers(min_value=0, max_value=1999))
def test_primality_matches_trial_division(table_static, n):
    assert table_static.is_prime(n) == trial_division_is_prime(n)


@pytest.fixture(scope="module")
def table_static():
    return build_table(2_000)


def test_prime_pi_known_values(table_small):
    assert table_small.prime_pi(2) == 1
    assert table_small.prime_pi(10) == 4
    assert table_small.prime_pi(100) == 25
    assert table_small.prime_pi(1000) == 168
    assert table_small.prime_pi(0) == 0


def test_nth_prime_round_trip(table_small):
    for n in (1, 2, 10, 25, 168):
        p = table_small.nth_prime(n)
        assert table_small.prime_pi(p) == n
        assert table_small.is_prime(p)
    with pytest.raises(OutOfRangeError):
        table_small.nth_prime(10**6)
    with pytest.raises(DomainError):
        table_small.nth_prime(0)


def test_primes_in_closed_interval(table_small):
    assert table_small.primes_in(10, 20).tolist() == [11, 13, 17, 19]
    assert table_small.primes_in(19, 19).tolist() == [19]
    assert table_small.primes_in(20, 22).tolist() == []
    assert table_small.primes_in(24, 14).tolist() == []


def test_pi_cumulative_agrees_with_prime_pi(table_small):
    pi = table_small.pi_cumulative()
    for x in (0, 1, 2, 3, 10, 100, 541, 1999):
        assert int(pi[x]) == table_small.prime_pi(x)


def test_extend_table_preserves_and_grows(table_small):
    grown = extend_table(table_small, 10_000)
    assert grown.limit >= 10_000
    assert grown.prime_pi(2_000) == table_small.prime_pi(2_000)
    same = extend_table(table_small, 100)
    assert same is table_small


def test_table_for_nth_prime():
    t = build_table(10)
    t = table_for_nth_prime(t, 1000)
    assert t.nth_prime(1000) == 7919


def test_fixed_table_never_grows():
    t = PrimeTable(100, ceiling=100)
    assert extend_table(t, 100) is t
    with pytest.raises(OutOfRangeError, match="configured sieve limit 100"):
        extend_table(t, 101)
    assert table_for_nth_prime(t, 25) is t  # p_25 = 97
    with pytest.raises(OutOfRangeError, match="p_26, beyond the configured sieve limit 100"):
        table_for_nth_prime(t, 26)
    assert extend_table(PrimeTable(100), 101).ceiling is None


def test_fixed_table_checks_the_limit_then_the_need():
    assert PrimeTable(100, ceiling=100).ceiling == 100
    with pytest.raises(OutOfRangeError, match="primes up to 101, beyond the configured sieve limit 100"):
        PrimeTable(101, ceiling=100)
    with pytest.raises(ConfigurationError, match="must be >= 2"):  # the limit is checked first
        PrimeTable(101, ceiling=1)


def test_fixed_table_survives_pickling():
    # pool workers under a spawn start method receive the table this way
    t = pickle.loads(pickle.dumps(PrimeTable(100, ceiling=100)))
    assert t.ceiling == 100 and t.limit == 100 and t.prime_pi(100) == 25
    with pytest.raises(OutOfRangeError):
        extend_table(t, 200)


def test_a_ceiling_bounds_growth_but_not_the_first_sieve():
    assert extend_table(PrimeTable(10, ceiling=100), 50).limit == 50
    grown = extend_table(PrimeTable(60, ceiling=100), 70)
    assert grown.limit == 100 and grown.ceiling == 100
    # the p_n guess is clamped to the ceiling before the refusal
    t = table_for_nth_prime(PrimeTable(10, ceiling=100), 25)
    assert (t.limit, t.nth_prime(25)) == (100, 97)
    with pytest.raises(ConfigurationError, match="memory budget"):
        PrimeTable(10, ceiling=1 << 40)


def test_negative_numbers_are_not_prime():
    t = PrimeTable(100)
    assert not t.is_prime(-4)
    assert not any(t.is_prime(n) for n in range(-100, 0))


def test_baker_window_examples(table_100k):
    w = baker_window(table_100k, 19)
    assert (w.lo, w.hi) == (19, 23)
    assert w.primes.tolist() == [19, 23]
    assert w.count == 2
    w = baker_window(table_100k, 10007)
    assert w.hi == 10007 + int(10007**0.525)
    assert all(table_100k.is_prime(int(q)) for q in w.primes)
    assert w.lower_estimate > 0


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**40),
       st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=60))
def test_floor_power_is_the_integer_root(n, b, a):
    e = Fraction(min(a, b), b)
    r = floor_power(n, e)
    assert r >= 0
    assert r**e.denominator <= n**e.numerator < (r + 1) ** e.denominator


def test_window_never_empty_in_range(table_100k):
    # short-interval windows keep at least one prime at these sizes: p itself
    for p in table_100k.primes_in(2, 50_000)[::97]:
        w = baker_window(table_100k, int(p))
        assert w.count >= 1


def test_literature_bounds_small_run(table_small):
    rep = verify_literature_bounds(table_small, n_max=100, x_max=900)
    assert rep.all_hold
    names = [c.name for c in rep.checks]
    assert names == ["pi_doubling", "nth_prime_upper", "pi_upper", "pi_lower"]


def test_literature_bounds_domain_guard(table_small):
    with pytest.raises(OutOfRangeError):
        verify_literature_bounds(table_small, n_max=100, x_max=1_500)
    with pytest.raises(OutOfRangeError):
        verify_literature_bounds(table_small, n_max=10**6, x_max=900)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=1_800))
def test_pi_monotone_step(table_static, x):
    lhs = table_static.prime_pi(x)
    rhs = table_static.prime_pi(x - 1)
    assert lhs - rhs == (1 if table_static.is_prime(x) else 0)
