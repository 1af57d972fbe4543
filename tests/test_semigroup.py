import math
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from primefrob import semigroup
from primefrob.errors import BudgetError, ConfigurationError, DomainError, NotNumericalSemigroupError
from primefrob.semigroup import (
    AperyError,
    IncrementalApery,
    apery_set,
    atoms,
    brute_force_membership,
    normalize_generators,
    sylvester_frobenius,
    sylvester_genus,
    _verify_fixed_point,
)


def build(gens):
    g = normalize_generators(gens)
    return g, apery_set(g)


# --- validation ---------------------------------------------------------

def test_normalize_sorts_dedups():
    g = normalize_generators([7, 3, 5, 3])
    assert g == (3, 5, 7)
    assert g[0] == 3


def test_normalize_rejects_bad_input():
    with pytest.raises(NotNumericalSemigroupError):
        normalize_generators([4, 6])
    with pytest.raises(DomainError):
        normalize_generators([])
    with pytest.raises(DomainError):
        normalize_generators([1, 3])
    with pytest.raises(DomainError):
        normalize_generators([0, 5])


# --- closed-form oracle -------------------------------------------------

def test_sylvester_small():
    assert sylvester_frobenius(3, 5) == 7
    assert sylvester_genus(3, 5) == 4
    assert sylvester_frobenius(2, 3) == 1
    with pytest.raises(NotNumericalSemigroupError):
        sylvester_frobenius(4, 6)


def test_apery_of_3_5_by_hand():
    _, p = build([3, 5])
    assert p.apery.tolist() == [0, 10, 5]
    assert p.frobenius == 7
    assert p.genus == 4
    assert p.gaps().tolist() == [1, 2, 4, 7]


def test_sylvester_random_pairs_match_apery():
    rng = random.Random(1093)
    done = 0
    while done < 100:
        a = rng.randint(2, 500)
        b = rng.randint(2, 500)
        if a == b or math.gcd(a, b) != 1:
            continue
        _, p = build([a, b])
        assert p.frobenius == sylvester_frobenius(a, b)
        assert p.genus == sylvester_genus(a, b)
        done += 1


# --- brute-force oracle -------------------------------------------------

def test_membership_agrees_with_reachability_oracle():
    rng = random.Random(28657)
    done = 0
    while done < 200:
        m = rng.randint(2, 50)
        extra = [rng.randint(m, 500) for _ in range(rng.randint(1, 7))]
        gens = [m] + extra
        g = 0
        for x in gens:
            g = math.gcd(g, x)
        if g != 1:
            continue
        gen_set = normalize_generators(gens)
        profile = apery_set(gen_set)
        n_max = 2 * gen_set[0] * gen_set[-1]
        oracle = brute_force_membership(gen_set, n_max)
        mine = profile.contains_many(np.arange(n_max + 1))
        assert (oracle == mine).all()
        done += 1


def test_oracle_rejects_huge_budget():
    g = normalize_generators([3, 5])
    with pytest.raises(DomainError):
        brute_force_membership(g, 10**9)


# --- profile invariants -------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=2, max_value=400), min_size=2, max_size=6))
def test_apery_table_is_minimal_member_per_class(gens):
    g = 0
    for x in gens:
        g = math.gcd(g, x)
    if g != 1:
        return
    gen_set = normalize_generators(gens)
    profile = apery_set(gen_set)
    m = profile.multiplicity
    ap = profile.apery
    assert ap[0] == 0
    for r in range(m):
        v = int(ap[r])
        assert v % m == r
        assert profile.contains(v)
        if v >= m:
            assert not profile.contains(v - m)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=300), st.integers(min_value=2, max_value=300))
def test_counting_identities(a, b):
    if math.gcd(a, b) != 1 or a == b:
        return
    _, p = build([a, b])
    gaps = p.gaps()
    assert len(gaps) == p.genus
    assert int(gaps[-1]) == p.frobenius
    count, elems = p.sporadic_elements()
    assert count == 1 + p.frobenius - p.genus
    assert count == len(elems)
    assert not p.contains(p.frobenius)
    assert all(p.contains(p.frobenius + k) for k in range(1, 2 * a + 1))


def test_members_below_lists_ascending():
    _, p = build([19, 23, 29, 31, 37])
    xs = p.members_below(63)
    assert len(xs) == 19
    assert (np.diff(xs) > 0).all()
    assert xs[0] == 0 and xs[-1] == 62


def test_listings_past_the_budget_are_refused_before_allocating():
    # numpy refuses both sizes without allocating, with its own errors
    with pytest.raises(BudgetError, match="gaps"):
        apery_set((2, 2**57 - 1)).gaps()
    with pytest.raises(BudgetError, match="members"):
        apery_set((3, 5)).members_below(2**62)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=2, max_value=60), min_size=2, max_size=4),
       st.integers(min_value=-5, max_value=400))
def test_listing_sizes_are_counted_exactly(gens, limit):
    # a budget of exactly the listing's length admits it, one less refuses it
    assume(math.gcd(*gens) == 1)
    _, p = build(gens)
    listings = {"gaps": p.gaps, "members": lambda: p.members_below(limit)}
    for what, listing in listings.items():
        size = len(listing())
        with mock.patch.object(semigroup, "_LISTING_BUDGET", size):
            assert len(listing()) == size
        with mock.patch.object(semigroup, "_LISTING_BUDGET", size - 1):
            with pytest.raises(BudgetError, match=what):
                listing()


# --- atoms ---------------------------------------------------------------

def test_atoms_drop_redundant_generators():
    _, p = build([4, 6, 9, 13])
    at = atoms(p)
    assert at == (4, 6, 9)  # 13 = 4 + 9
    assert len(at) == 3


def test_atoms_of_prime_interval_set():
    _, p = build([23, 29, 31, 37, 41, 43])
    assert len(atoms(p)) == 6


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=2, max_value=200), min_size=2, max_size=5))
def test_atoms_regenerate_the_semigroup(gens):
    g = 0
    for x in gens:
        g = math.gcd(g, x)
    if g != 1:
        return
    gen_set = normalize_generators(gens)
    profile = apery_set(gen_set)
    at = atoms(profile)
    assert set(at) <= set(gen_set)
    again = apery_set(normalize_generators(at))
    assert again.frobenius == profile.frobenius
    assert again.genus == profile.genus


# --- incremental ---------------------------------------------------------

def test_incremental_matches_batch():
    inc = IncrementalApery(19)
    for q in (23, 29, 31, 37):
        inc.add(q)
    assert inc.complete
    assert inc.frobenius() == 101
    prof = inc.profile(verify=True)
    _, batch = build([19, 23, 29, 31, 37])
    assert (prof.apery == batch.apery).all()


def test_frobenius_reads_after_folds_with_and_without_doubling():
    # folding 6 and 7 runs doubling steps; 8 and 9 close after one step, and 9 lowers f
    inc = IncrementalApery(5)
    for i, g in enumerate((6, 7, 8, 9), start=2):
        inc.add(g)
        assert (inc._exact_top is not None) == (g >= 8)
        gaps = np.flatnonzero(~brute_force_membership((5, 6, 7, 8, 9)[:i], 5 * g))
        assert inc.frobenius() == int(gaps.max()) == inc.profile().frobenius


def test_incremental_incomplete_guard():
    inc = IncrementalApery(4)
    inc.add(6)  # gcd 2: residues 1, 3 unreachable
    assert not inc.complete
    with pytest.raises(Exception):
        inc.frobenius()


def test_overflow_budget_guard():
    with pytest.raises(ArithmeticError):
        apery_set((2**30 + 1, 2**30 + 3))


# Kunz coordinates stay in int32 while every generator is below 2**29 - m.
@pytest.mark.parametrize("gens,dtype", [
    ((3, 2**29 + 2), np.int64),   # widens on the first add
    ((3, 536870905), np.int32),   # m + g just below 2**29
])
def test_dtype_boundary_matches_sylvester(gens, dtype):
    inc = IncrementalApery(gens[0])
    inc.add(gens[1])
    assert inc.k.dtype == dtype
    profile = apery_set(gens)
    assert profile.frobenius == sylvester_frobenius(*gens)
    assert profile.genus == sylvester_genus(*gens)


def test_widening_mid_build_keeps_the_table():
    inc = IncrementalApery(5)
    inc.add(7)
    assert inc.k.dtype == np.int32
    inc.add(2**29 + 3)
    assert inc.k.dtype == np.int64
    _, small = build([5, 7])
    profile = inc.profile(verify=True)
    assert (profile.apery == small.apery).all()
    assert (profile.frobenius, profile.genus) == (small.frobenius, small.genus)


def test_multiplicity_budget_raises_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError):
            IncrementalApery(2**29 + 11)
        with pytest.raises(ConfigurationError):  # within the value budget
            apery_set((2**28 + 3, 2**28 + 7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# --- fold kernel against the oracles ---------------------------------------

@st.composite
def kernel_generators(draw):
    m = draw(st.integers(min_value=2, max_value=40))
    gens = [
        m,
        draw(st.integers(min_value=2, max_value=5)) * m,  # folds with shift 0
        *draw(st.lists(st.integers(min_value=m + 1, max_value=2 * m), max_size=3)),
        draw(st.integers(min_value=2 * m + 1, max_value=6 * m)),
    ]
    gens.append(gens[-1] + gens[-2])  # never minimal
    assume(math.gcd(*gens) == 1)
    return normalize_generators(gens)


@settings(max_examples=80, deadline=None)
@given(kernel_generators())
def test_batch_and_incremental_builds_match_reachability_oracle(gen_set):
    n_max = 2 * gen_set[0] * gen_set[-1]
    oracle = brute_force_membership(gen_set, n_max)
    batch = apery_set(gen_set)
    inc = IncrementalApery(gen_set[0])
    for g in gen_set[1:]:
        inc.add(g)
        if inc.complete:  # ties in the top level decide the largest class
            assert inc.frobenius() == int(inc.profile().apery.max()) - gen_set[0]
    grown = inc.profile(verify=True)
    gaps = np.flatnonzero(~oracle)
    for profile in (batch, grown):
        assert (profile.contains_many(np.arange(n_max + 1)) == oracle).all()
        assert profile.frobenius == int(gaps.max(initial=-1))
        assert profile.genus == len(gaps)
    assert (batch.apery == grown.apery).all()


@settings(max_examples=60, deadline=None)
@given(kernel_generators())
def test_contains_matches_reachability_oracle_after_every_add(gen_set):
    gens = gen_set
    n_max = gens[0] * gens[-1]
    inc = IncrementalApery(gens[0])
    for i in range(1, len(gens)):
        inc.add(gens[i])  # the prefix may still have gcd > 1: incomplete
        oracle = brute_force_membership(gens[: i + 1], n_max)
        assert [inc.contains(n) for n in range(n_max + 1)] == oracle.tolist()
        assert not inc.contains(-1)


def test_contains_respects_the_sentinel_far_out():
    inc = IncrementalApery(4)
    inc.add(6)  # classes 1 and 3 stay unreached
    n = 4 * 2**31 + 1  # n // m passes the int32 sentinel
    assert not inc.contains(n) and inc.contains(n + 1)


def test_verify_fixed_point_rejects_a_lowered_entry():
    gen_set = normalize_generators([3, 5])
    inc = IncrementalApery(3)
    inc.add(5)
    k = inc.k.copy()  # Kunz coordinates, class r at index m - 1 - r
    _verify_fixed_point(k, gen_set)
    k[3 - 1 - 2] -= 1  # class 2 now claims 2, so class 1 could reach 2 + 5 < 10
    with pytest.raises(AperyError):
        _verify_fixed_point(k, gen_set)


def test_verify_fixed_point_rejects_an_unattained_table():
    # ap[r] = r is at a fixed point (no step lowers an entry) but no class
    # except 0 holds a sum of generators; it would report f = -1
    with pytest.raises(AperyError):
        _verify_fixed_point(np.zeros(23, np.int32), [23, 29, 31, 37, 41, 43])


def test_atoms_need_memory_of_the_table_not_of_the_values():
    gen_set = (3, 2**22 + 1)
    tracemalloc.start()
    try:
        at = atoms(apery_set(gen_set))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert at == gen_set
    assert peak < 1 << 20


@st.composite
def redundant_generators(draw):
    m = draw(st.integers(min_value=2, max_value=30))
    gens = [m, *draw(st.lists(st.integers(min_value=m + 1, max_value=5 * m),
                              min_size=1, max_size=5))]
    gens.append(draw(st.integers(min_value=2, max_value=4)) * m)  # a multiple of m
    gens.append(gens[1] + gens[-2])  # a member of the others
    assume(math.gcd(*gens) == 1)
    return normalize_generators(gens)


@settings(max_examples=80, deadline=None)
@given(redundant_generators())
def test_certified_atoms_match_reachability_oracle(gen_set):
    gens = gen_set
    member = brute_force_membership(gen_set, gens[-1])
    # g is an atom iff it is no sum of two nonzero members
    expected = tuple(g for g in gens
                     if not any(member[s] and member[g - s] for s in range(1, g)))
    certified = apery_set(gen_set)
    assert certified.atoms == expected
    assert atoms(certified) == expected
    inc = IncrementalApery(gens[0])
    for g in gens[1:]:
        inc.add(g)
    unverified = inc.profile()
    assert unverified.atoms is None
    assert atoms(unverified) == expected


# --- the int8 table ----------------------------------------------------------

def test_oracle_tests_pass_on_tables_narrowed_to_int8(monkeypatch):
    # the gate lowered to m >= 2 narrows the hypothesis tables above once
    # their top level is small; they draw m <= 40 and never narrow otherwise
    monkeypatch.setattr(semigroup, "_NARROW_FROM", 2)
    test_batch_and_incremental_builds_match_reachability_oracle()
    test_contains_matches_reachability_oracle_after_every_add()
    test_certified_atoms_match_reachability_oracle()


def _interval_gens(table, p, lam):
    return tuple(table.primes_in(p, p + int(lam * p)).tolist())


@pytest.mark.parametrize("p", [2053, 4099])
@pytest.mark.parametrize("lam", [Fraction(1, 4), Fraction(1)])
def test_a_large_table_narrows_to_int8_and_matches_reachability_oracle(table_100k, p, lam):
    gens = _interval_gens(table_100k, p, lam)
    inc = IncrementalApery(p)
    for i in range(1, len(gens)):
        inc.add(gens[i])
        if inc.k.dtype == np.int8:  # f before narrowing is past the oracle's budget
            gaps = np.flatnonzero(~brute_force_membership(gens[: i + 1], inc.frobenius() + p))
            assert inc.frobenius() == int(gaps.max())
    assert inc.k.dtype == np.int8
    profile = inc.profile(verify=True)
    n_max = profile.frobenius + p
    member = brute_force_membership(gens, n_max)
    assert profile.genus == int((~member).sum())
    assert (profile.contains_many(np.arange(n_max + 1)) == member).all()
    # g is an atom iff it is no sum of two nonzero members
    expected = tuple(g for g in gens if not (member[1:g] & member[g - 1:0:-1]).any())
    assert profile.atoms == expected


def test_a_far_generator_leaves_a_narrowed_table_as_it_is(table_100k):
    gens = _interval_gens(table_100k, 2053, Fraction(1, 4))
    inc = IncrementalApery(2053)
    for g in gens[1:]:
        inc.add(g)
    assert inc.k.dtype == np.int8
    f, k = inc.frobenius(), inc.k.copy()
    far = 2**29 - 2053 + 1  # would widen an int32 table to int64
    assert inc.add(far) == f + 2053
    assert inc.k.dtype == np.int8 and (inc.k == k).all()
    profile = inc.profile(verify=True)
    assert profile.frobenius == f
    assert profile.generators[-1] == far and far not in profile.atoms
