"""Acceptance gate: every headline capability, one test per criterion.

Each test prints a single PASS/FAIL line with its key numbers and elapsed
time, then asserts. Tolerances are pinned in the assertions themselves;
stated wall-clock budgets are asserted too.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from primefrob.goldbach import decompose_m, sn_scan, ternary_decomp
from primefrob.intervals import (
    build_interval_semigroup,
    figure_grid,
    narrow_interval_bound,
    ratio_scan,
    triple_prime_pattern,
    two_primes_in_interval,
    universal_lower_bound,
)
from primefrob.primes import build_table, verify_literature_bounds
from primefrob.semigroup import (
    apery_set,
    atoms,
    brute_force_membership,
    normalize_generators,
    sylvester_frobenius,
    sylvester_genus,
)
from primefrob.wilf import (
    analytic_l,
    cube_gap_holds,
    density,
    frobenius_square_bound,
    l2_strictly_decreasing,
    l_strictly_increasing,
    pi_growth_chain,
    selmer_bound,
    verify_sp_range,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_small_interval_anchors(table_small):
    t0 = time.monotonic()
    s19 = build_interval_semigroup(table_small, 19, Fraction(1))
    s23 = build_interval_semigroup(table_small, 23, Fraction(1))
    e23 = len(atoms(s23.profile))
    checks = [
        s19.frobenius == 101,
        s23.frobenius == 102,
        e23 == 6,
        len(s23.profile.members_below(70)) == 17,
        len(s19.profile.members_below(63)) == 19,
        len(s19.profile.members_below(59)) == 16,
    ]
    dt = time.monotonic() - t0
    report(
        1,
        all(checks) and dt < 1.0,
        f"f(19)={s19.frobenius} f(23)={s23.frobenius} e(23)={e23} "
        f"member counts 17/19/16 in {dt:.3f}s",
    )


def test_criterion_02_wilf_range(table_wilf):
    t0 = time.monotonic()
    rows = verify_sp_range(table_wilf, 8, 675, workers=1)
    dt = time.monotonic() - t0
    holding = sum(1 for r in rows if r.holds)
    report(
        2,
        len(rows) == 668 and holding == 668 and dt < 120,
        f"Wilf quotient holds for {holding}/{len(rows)} semigroups, n in [8, 675], "
        f"in {dt:.1f}s",
    )


def test_criterion_03_square_and_selmer_bounds(table_wilf):
    t0 = time.monotonic()
    bad = []
    for n in range(675, 1501):
        ls = build_interval_semigroup(table_wilf, table_wilf.nth_prime(n), Fraction(1))
        if not (frobenius_square_bound(table_wilf, ls) and selmer_bound(table_wilf, ls)):
            bad.append(n)
    dt = time.monotonic() - t0
    report(
        3,
        not bad and dt < 600,
        f"square and product bounds hold on all 826 n in (674, 1500], "
        f"violations={bad[:5]} in {dt:.1f}s",
    )


def test_criterion_04_analytic_bounds(table_wilf):
    t0 = time.monotonic()
    anchor = analytic_l(5039)
    checks = [
        abs(anchor - 1.61158) < 1e-5,
        cube_gap_holds(),
        l_strictly_increasing(67, 10_000),
        l2_strictly_decreasing(675, 10_000),
    ]
    violations = pi_growth_chain(table_wilf, 675, 1500)
    dt = time.monotonic() - t0
    report(
        4,
        all(checks) and not violations,
        f"l(5039)={anchor:.7f}, cube gap holds, monotone grids ok, "
        f"chain violations={len(violations)} in {dt:.1f}s",
    )


def test_criterion_05_prime_counting_bounds(table_1m):
    t0 = time.monotonic()
    rep = verify_literature_bounds(
        table_1m, n_max=table_1m.prime_pi(1_000_000), x_max=500_000
    )
    dt = time.monotonic() - t0
    names = {c.name: c.holds for c in rep.checks}
    report(
        5,
        rep.all_hold and dt < 60,
        f"four prime-counting inequalities on the 10^6 sieve: {names} in {dt:.1f}s",
    )


def test_criterion_06_triple_prime_patterns():
    t0 = time.monotonic()
    table = build_table(10_000_003)  # reaches 1 + 10^6 * 10 for m = 8
    t2 = triple_prime_pattern(table, 2, 10**6).tolist()
    empties = {m: triple_prime_pattern(table, m, 10**6).tolist() for m in (3, 5, 6, 8)}
    t4 = triple_prime_pattern(table, 4, 10**6).tolist()
    dt = time.monotonic() - t0
    ok = t2 == [1] and all(v == [] for v in empties.values()) and 1 in t4
    report(
        6,
        ok,
        f"pattern sets to 10^6: m=2 -> {t2}, m in (3,5,6,8) empty, "
        f"|m=4| = {len(t4)} (contains 1) in {dt:.1f}s",
    )


def test_criterion_07_lower_bounds_random(table_100k):
    t0 = time.monotonic()
    primes = [int(q) for q in table_100k.primes_in(2, 10_000)]

    rng = random.Random(48611)
    universal_ok = 0
    for _ in range(10_000):
        if universal_ok >= 1000:
            break
        p = rng.choice(primes)
        b = rng.randint(1, 12)
        lam = Fraction(rng.randint(1, 3 * b), b)
        if not two_primes_in_interval(table_100k, p, lam):
            continue
        if not universal_lower_bound(build_interval_semigroup(table_100k, p, lam)):
            break
        universal_ok += 1

    rng = random.Random(28661)
    narrow_ok = 0
    for _ in range(100_000):
        if narrow_ok >= 1000:
            break
        m = rng.randint(2, 8)
        b = rng.randint(1, 12)
        a_max = (2 * b - 1) // m  # keeps lam strictly below 2/m
        if a_max < 1:
            continue
        a = rng.randint(1, a_max)
        p = rng.choice(primes)
        if p * (2 * b - a * m) <= 2 * b:
            continue
        lam = Fraction(a, b)
        if not two_primes_in_interval(table_100k, p, lam):
            continue
        if not narrow_interval_bound(build_interval_semigroup(table_100k, p, lam), m):
            break
        narrow_ok += 1

    dt = time.monotonic() - t0
    report(
        7,
        universal_ok == 1000 and narrow_ok == 1000,
        f"f >= 3p-6 on {universal_ok}/1000 random (p, lam); "
        f"f >= (m+2)p-2 and gap on {narrow_ok}/1000 narrow triples in {dt:.1f}s",
    )


def test_criterion_08_engine_vs_oracles():
    t0 = time.monotonic()
    rng = random.Random(104729)
    mismatches = 0
    for _ in range(200):
        while True:
            m = rng.randint(2, 50)
            gens = {m} | {rng.randint(m, 500) for _ in range(rng.randint(1, 7))}
            if math.gcd(*gens) == 1:
                break
        gen_set = normalize_generators(gens)
        profile = apery_set(gen_set)
        hi = 2 * m * max(gens)
        ns = np.arange(0, hi + 1, dtype=np.int64)
        if not np.array_equal(profile.contains_many(ns), brute_force_membership(gen_set, hi)):
            mismatches += 1

    rng = random.Random(65537)
    sylvester_bad = 0
    for _ in range(100):
        while True:
            c, d = rng.randint(2, 500), rng.randint(2, 500)
            if c != d and math.gcd(c, d) == 1:
                break
        profile = apery_set(normalize_generators((c, d)))
        if profile.frobenius != sylvester_frobenius(c, d) or profile.genus != sylvester_genus(c, d):
            sylvester_bad += 1

    dt = time.monotonic() - t0
    report(
        8,
        mismatches == 0 and sylvester_bad == 0,
        f"200 random generator sets vs reachability oracle ({mismatches} mismatches), "
        f"100 coprime pairs vs closed form ({sylvester_bad} bad) in {dt:.1f}s",
    )


def test_criterion_09_tail_scan():
    t0 = time.monotonic()
    table = build_table(40_000)  # covers the 4*p_1001 + 2*1001 truncation
    rows = sn_scan(table, 5, 1000, workers=1)
    dt = time.monotonic() - t0
    failing = [r.n for r in rows if not r.passes]
    report(
        9,
        len(rows) == 996 and not failing and dt < 600,
        f"f_n odd and 0 < f_(n+1) - 3p_n < 2n on all {len(rows)} rows, "
        f"n in [5, 1000], failures={failing[:5]} in {dt:.1f}s",
    )


def test_criterion_10_figure_scan(table_figure):
    t0 = time.monotonic()
    p = 48623
    pts = ratio_scan(table_figure, p, figure_grid(table_figure, p, Fraction(3)))
    dt = time.monotonic() - t0
    lam1 = max((pt for pt in pts if pt.x <= 2), key=lambda pt: pt.x)
    floor_ratio = Fraction(3) - Fraction(6, p)
    checks = [
        len(pts) == 8494,
        not any(pt.skipped for pt in pts),
        pts[0].x * p == 48647 and pts[0].f == sylvester_frobenius(p, 48647),
        pts[0].f == 2365265811,
        pts[-1].x * p == 145861 and pts[-1].f == 146009,
        lam1.f == 194576,
        Fraction(19, 5) <= lam1.ratio <= Fraction(21, 5),
        all(pts[i].ratio >= pts[i + 1].ratio for i in range(len(pts) - 1)),
        all(pt.ratio >= floor_ratio for pt in pts),
        dt < 120,
    ]
    report(
        10,
        all(checks),
        f"{len(pts)} grid points at p={p}: non-increasing, above 3 - 6/p, "
        f"f at lam=1 is {lam1.f} (ratio {float(lam1.ratio):.4f}) in {dt:.1f}s",
    )


def test_criterion_11_sporadic_density(table_figure):
    d = density(table_figure, 48623)
    ok = d == Fraction(77209, 194577) and abs(d - Fraction(3, 8)) < Fraction(1, 20)
    report(11, ok, f"density(48623) = {float(d):.6f}, within 0.05 of 0.375")


def test_criterion_12_decomposition_sweep(table_figure):
    t0 = time.monotonic()
    odd_bad = []
    for n in range(100_001, 110_000, 2):
        cert = ternary_decomp(table_figure, n, theta=0.6)
        if not cert.validate(table_figure):
            odd_bad.append(n)
    even_bad = []
    for n in range(100_000, 110_001, 2):
        cert = decompose_m(table_figure, n, 4, Fraction(1, 20))
        if not cert.validate(table_figure):
            even_bad.append(n)
    dt = time.monotonic() - t0
    report(
        12,
        not odd_bad and not even_bad and dt < 120,
        f"5000 ternary and 5001 four-part certificates over [10^5, 10^5 + 10^4] "
        f"all validate in {dt:.1f}s",
    )
