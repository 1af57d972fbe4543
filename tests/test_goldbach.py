from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primefrob import goldbach
from primefrob.errors import DecompositionError, DomainError, OutOfRangeError
from primefrob.goldbach import (
    BOUND_DELTA,
    BOUND_WINDOW,
    DecompCertificate,
    binary_decomp,
    decompose_m,
    decomposition_reach,
    exceptional_evens,
    odd_membership_scan,
    sn_scan,
    tail_frobenius,
    ternary_decomp,
)
from primefrob.intervals import build_interval_semigroup
from primefrob.primes import PrimeTable
from primefrob.semigroup import apery_set, atoms, brute_force_membership, normalize_generators


def test_binary_examples(table_small):
    assert binary_decomp(table_small, 4, 0) == (2, 2)
    assert binary_decomp(table_small, 100, 20) == (47, 53)
    assert binary_decomp(table_small, 100, 2) is None
    with pytest.raises(DomainError):
        binary_decomp(table_small, 9, 5)


def test_binary_picks_most_balanced(table_small):
    # 36 = 17+19 with deviation 1; 13+23 and 7+29 are further out
    assert binary_decomp(table_small, 36, 12) == (17, 19)


def test_binary_window_must_fit_the_table():
    # 200 = 2 * 100 fits a table of 100, but the window [90, 110] does not
    with pytest.raises(OutOfRangeError, match="window end 110 exceeds table limit 100"):
        binary_decomp(PrimeTable(100), 200, 10)
    assert binary_decomp(PrimeTable(110), 200, 10) == (97, 103)


def test_ternary_needs_only_its_window_in_the_table():
    # 10001 lies past the table; its window [3250, 3584] does not
    assert ternary_decomp(PrimeTable(5000), 10001).parts == (3323, 3331, 3347)
    assert decomposition_reach(10001, 3, None) == 3584
    with pytest.raises(OutOfRangeError, match="interval end 3584"):
        ternary_decomp(PrimeTable(3583), 10001)


def _search(table, n, m, delta, theta):
    if delta is None:
        return ternary_decomp(table, n, theta)
    return decompose_m(table, n, m, delta, theta)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=30_000),
    st.sampled_from([3, 3, 4, 5, 7]),
    st.sampled_from([None, Fraction(1, 100), Fraction(1, 20), Fraction(1, 3), Fraction(1)]),
    st.sampled_from([Fraction(1, 5), Fraction(3, 5), Fraction(1)]),
)
@example(8, 4, Fraction(1, 100), Fraction(1, 5))  # the anchor 2 leaves an even rest
def test_a_table_to_the_decomposition_reach_serves_the_search(n, m, delta, theta):
    if delta is None:
        n, m = n | 1, 3
    else:
        n += (n - m) % 2
    try:
        reach = decomposition_reach(n, m, delta, theta)
    except DomainError:
        with pytest.raises(DomainError):
            _search(PrimeTable(100), n, m, delta, theta)
        return
    try:
        _search(PrimeTable(max(reach, 2)), n, m, delta, theta)
    except DecompositionError:
        return
    if m == 3 and reach > 2:
        # a three-prime search that succeeds has read its window to the end
        with pytest.raises(OutOfRangeError):
            _search(PrimeTable(reach - 1), n, m, delta, theta)


def test_ternary_examples(table_100k):
    c = ternary_decomp(table_100k, 9, 0.6)
    assert c.parts == (3, 3, 3) and c.max_deviation == 0
    c = ternary_decomp(table_100k, 21, 0.6)
    assert c.parts == (7, 7, 7)
    c = ternary_decomp(table_100k, 10001, 0.6)
    assert all(abs(q - Fraction(10001, 3)) <= int(10001**0.6) for q in c.parts)
    assert c.validate(table_100k)
    with pytest.raises(DomainError):
        ternary_decomp(table_100k, 10, 0.6)
    with pytest.raises(DecompositionError):
        ternary_decomp(table_100k, 11, 0.1)


def test_ternary_window_is_exact_at_fifth_powers(table_100k):
    # floor(n^(3/5)) at 3**5 and 9**5; the float power falls one short at both
    for n, w in ((243, 27), (59049, 729)):
        c = ternary_decomp(table_100k, n)
        assert c.bound_limit == 3 * w and c.validate(table_100k)
        assert ternary_decomp(table_100k, n, 0.6) == c  # a float reads as 3/5


def test_ternary_theta_is_bounded(table_100k):
    for theta in (Fraction(1, 1001), Fraction(0), Fraction(3, 2), -0.5):
        with pytest.raises(DomainError):
            ternary_decomp(table_100k, 10001, theta)


def test_decompose_m_examples(table_100k):
    c = decompose_m(table_100k, 20, 4, Fraction(1, 5))
    assert c.parts == (5, 5, 5, 5) and c.max_deviation == 0 and c.validate(table_100k)
    c = decompose_m(table_100k, 16, 4, Fraction(1, 4))
    assert c.parts == (3, 3, 5, 5) and c.validate(table_100k)
    c = decompose_m(table_100k, 100000, 4, Fraction(1, 20))
    assert all(23750 < q < 26250 for q in c.parts)
    assert c.validate(table_100k)


def test_decompose_m_parity_and_bounds(table_100k):
    with pytest.raises(DomainError):
        decompose_m(table_100k, 21, 4, Fraction(1, 5))
    with pytest.raises(DomainError):
        decompose_m(table_100k, 20, 2, Fraction(1, 5))
    with pytest.raises(DomainError):
        decompose_m(table_100k, 20, 4, Fraction(0))


def test_certificate_validate_rejects_tampering(table_100k):
    c = ternary_decomp(table_100k, 10001, 0.6)
    import dataclasses

    broken = dataclasses.replace(c, parts=(c.parts[0], c.parts[1], c.parts[2] + 2))
    assert not broken.validate(table_100k)
    broken = dataclasses.replace(c, max_deviation=c.max_deviation + 1)
    assert not broken.validate(table_100k)


def test_certificate_strictness_follows_its_bound_type(table_100k):
    window = DecompCertificate.of(31, (7, 11, 13), BOUND_WINDOW, Fraction(15))
    assert (window.m, window.max_deviation, window.strict) == (3, 10, False)
    delta = DecompCertificate.of(31, (7, 11, 13), BOUND_DELTA, Fraction(10))
    assert delta.strict and not delta.bound_satisfied()
    assert ternary_decomp(table_100k, 10001, 0.6).strict is False
    assert decompose_m(table_100k, 100000, 4, Fraction(1, 20)).strict is True


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=4, max_value=20_000))
def test_ternary_random_odds_validate(table_100k, k):
    n = 2 * k + 1
    cert = ternary_decomp(table_100k, n, 0.6)
    assert cert.validate(table_100k)
    assert sum(cert.parts) == n


def test_tail_frobenius_small_values(table_small):
    assert tail_frobenius(table_small, 1).f == 1
    assert tail_frobenius(table_small, 2).f == 4
    assert tail_frobenius(table_small, 3).f == 9


def test_tail_matches_brute_force_oracle(table_small):
    # small enough to enumerate: S_n truncated far beyond its Frobenius number
    for n in (1, 2, 3, 4, 5, 8):
        tp = tail_frobenius(table_small, n)
        gens = [int(q) for q in table_small.primes_in(tp.p_n, tp.truncation)]
        reach = brute_force_membership(normalize_generators(gens), tp.truncation)
        misses = [i for i, ok in enumerate(reach) if not ok]
        assert misses[-1] == tp.f


def test_tail_certificate_stability(table_small):
    # doubling the truncation cannot change the answer
    for n in (2, 5, 12, 40):
        tp = tail_frobenius(table_small, n)
        assert tp.certificate_ok
        gens = normalize_generators(
            [int(q) for q in table_small.primes_in(tp.p_n, 2 * tp.truncation)]
        )
        reach = brute_force_membership(gens, 2 * tp.truncation)
        misses = [i for i, ok in enumerate(reach) if not ok]
        assert misses[-1] == tp.f


def test_tail_profile_atoms_come_from_its_generators(table_small):
    # a tail profile is not certified, so atoms() runs the certifying pass
    for n in (3, 5, 8, 20):
        profile = tail_frobenius(table_small, n).profile
        assert profile.atoms is None
        assert atoms(profile) == atoms(apery_set(normalize_generators(profile.generators)))


@pytest.mark.parametrize("forced", [lambda p: p + 1, lambda p: p + 3, lambda p: 2 * p],
                         ids=["p+1", "p+3", "2p"])
def test_a_short_first_truncation_doubles_into_the_same_answer(table_small, monkeypatch, forced):
    # every n certifies in its first round from 4 p_n + 2n; a shorter start
    # takes the retry path, which must grow one table to the unforced answer
    unforced = {n: tail_frobenius(table_small, n).f for n in range(1, 61)}
    builds = []

    class CountingApery(goldbach.IncrementalApery):
        def __init__(self, multiplicity):
            builds.append(multiplicity)
            super().__init__(multiplicity)

    monkeypatch.setattr(goldbach, "IncrementalApery", CountingApery)
    monkeypatch.setattr(goldbach, "_first_truncation", lambda p_n, n: forced(p_n))
    for n, f in unforced.items():
        builds.clear()
        tp = tail_frobenius(table_small, n)
        start = forced(tp.p_n)
        rounds, rest = divmod(tp.truncation, start)
        assert rest == 0 and rounds & (rounds - 1) == 0
        assert tp.f == f <= tp.truncation and tp.certificate_ok
        assert builds == [tp.p_n]
        gens = normalize_generators(table_small.primes_in(tp.p_n, tp.truncation).tolist())
        reach = brute_force_membership(gens, tp.truncation)
        assert [i for i, ok in enumerate(reach) if not ok][-1] == f


def test_tail_lower_bound(table_small):
    for n in range(1, 40):
        tp = tail_frobenius(table_small, n)
        assert tp.f >= 3 * tp.p_n - 6


def test_sn_scan_rows(table_small):
    rows = sn_scan(table_small, 5, 40)
    assert [r.n for r in rows] == list(range(5, 41))
    for r in rows:
        assert r.f_odd and 0 < r.delta_next < 2 * r.n
        assert r.passes
    with pytest.raises(DomainError):
        sn_scan(table_small, 0, 10)


def test_sn_scan_pool_matches_one_process(table_small):
    assert sn_scan(table_small, 5, 40, workers=2) == sn_scan(table_small, 5, 40)


def test_odd_membership_scan(table_small):
    r = odd_membership_scan(table_small, 100, 2500)
    assert r.ok and r.first_failure is None
    assert r.start % 2 == 1
    assert r.start >= 3 * 541 + 200  # p_100 = 541


def test_exceptional_evens_frozen(table_small):
    ls = build_interval_semigroup(table_small, 19, Fraction(1))
    ev = exceptional_evens(19, ls.profile)
    assert ev.tolist() == [40, 44, 64, 70, 72]
    # below 3p an even member needs exactly two generators, so each
    # exception there must lack a two-prime split inside [p, 2p]
    for n in ev.tolist():
        if n < 57:
            assert not any(
                table_small.is_prime(a) and table_small.is_prime(n - a)
                for a in range(19, min(38, n - 19) + 1)
            )


def test_exceptional_evens_sparse(table_100k):
    ls = build_interval_semigroup(table_100k, 541, Fraction(1))
    ev = exceptional_evens(541, ls.profile)
    assert len(ev) < 541  # sparse relative to the ~p/2 even candidates
    assert all(int(n) % 2 == 0 and not ls.profile.contains(int(n)) for n in ev)
