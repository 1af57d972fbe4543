"""The four workloads: inputs drawn from the seed, CLI argument lists, and
the checks that decide which items of an output are correct.

Seed 0 runs the paper's inputs, where the acceptance goldens apply on top of
the oracles.  Any other seed draws inputs of comparable cost from the band
stated on each workload.  ``smoke`` shrinks the batch workloads to a few
hundred milliseconds for the benchmark's own test.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

from oracles import Primes, Semigroup, certificate_ok, decimal6, finite, iroot, sylvester_frobenius

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    items: int
    files: tuple[str, ...] = ()  # outputs the job writes, read back for checking


def _rows(text: str, header: list[str]) -> list[list[str]] | None:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        return None
    return rows[1:]


def _flag(value: bool) -> str:
    return "true" if value else "false"


class _Batch:
    """A workload that repeats one job; a trace round is one job."""

    workers = 1
    round = 1

    def next_job(self, i: int) -> Job:
        return self.job


class Staircase(_Batch):
    """lambda-scan --figure-mode: f/p at every x in (1, 3] with x*p prime.

    Band: p is a prime in [48000, 49250] (seed 0: the paper's p = 48623).
    Items: grid points, the primes in (p, 3p] (8494 at p = 48623).
    """

    name = "staircase"
    GOLDEN = {"points": 8494, "first": 2365265811, "lambda1": 194576, "last": 146009}

    def __init__(self, seed: int, smoke: bool, workdir: str):
        if smoke:
            self.p = 211
        elif seed == DEFAULT_SEED:
            self.p = 48623
        else:
            band = Primes(49250).between(48000, 49250)
            self.p = random.Random(f"staircase-{seed}").choice(band)
        self.golden = seed == DEFAULT_SEED and not smoke
        self.primes = Primes(3 * self.p)
        self.grid = self.primes.between(self.p + 1, 3 * self.p)
        # one row with x >= 3/2, where f is small enough for a bitset, is
        # checked by reachability besides the lambda = 1 row and the last
        wide = [i for i, q in enumerate(self.grid) if 2 * q >= 3 * self.p]
        self.sampled = random.Random(f"staircase-rows-{seed}").choice(wide)
        if self.golden and len(self.grid) != self.GOLDEN["points"]:
            raise RuntimeError("benchmark sieve disagrees with the 8494-point golden")
        self.csv = os.path.join(workdir, "scan.csv")
        self.gp = os.path.join(workdir, "scan.gp")
        self.job = Job(
            ("lambda-scan", "--p", str(self.p), "--figure-mode", "-o", self.csv, "--gnuplot", self.gp),
            len(self.grid),
            (self.csv, self.gp),
        )

    def check(self, job: Job, code: int, stdout: str, files: dict[str, str]) -> int:
        p, grid = self.p, self.grid
        script = files.get(self.gp) or ""
        if code != 0 or not stdout.startswith(f"{len(grid)} grid points at p={p}"):
            return 0
        if f"'{self.csv}'" not in script or f"p={p}" not in script:
            return 0
        body = _rows(files.get(self.csv) or "", ["p", "a", "b", "x", "f", "ratio", "staircase", "two_primes"])
        if body is None or len(body) != len(grid):
            return 0
        lambda1 = max(i for i, q in enumerate(grid) if q < 2 * p)
        by_bitset = {lambda1, len(grid) - 1, self.sampled}
        golden = {0: self.GOLDEN["first"], lambda1: self.GOLDEN["lambda1"],
                  len(grid) - 1: self.GOLDEN["last"]} if self.golden else {}
        ok, prev_f = 0, None
        for i, (row, q) in enumerate(zip(body, grid)):
            try:
                f = int(row[4])
            except ValueError:
                prev_f = None
                continue
            a = q - p
            good = (
                row[:4] == [str(p), str(a), str(p), decimal6(Fraction(q, p))]
                and row[5] == decimal6(Fraction(f, p))
                and row[6] == str(3 if a > p else 2 + 2 * p // a)
                and row[7] == "true"
                # 3p - 6 = 3(p - 2) is an odd composite in (2p, 3p): always a gap
                and 3 * p - 6 <= f
                # adding generators never raises f
                and (prev_f is None or f <= prev_f)
                and (i != 0 or f == sylvester_frobenius(p, q))
                and f == golden.get(i, f)
            )
            if good and i in by_bitset:
                gens = self.primes.between(p, q)
                good = Semigroup(lambda n: [g for g in gens if g <= n], p, hint=f).frobenius == f
            ok += good
            prev_f = f
        return ok


class Wilf(_Batch):
    """wilf --range LO:HI --threads 1: the Wilf quotient of S(p_n), primes in
    [p_n, 2p_n], one row per n.

    Band: the window [8 + s, 240 + s] with s in [0, 4] (seed 0: 8:240), inside
    the paper's 8:675 where every row holds.  Items: rows (233).
    """

    name = "wilf"
    COLUMNS = ["n", "p", "e", "f", "g", "sporadic", "lhs", "rhs", "holds",
               "improved_rhs", "f_lt_improved_rhs"]

    def __init__(self, seed: int, smoke: bool, workdir: str):
        if smoke:
            lo, hi = 8, 30
        else:
            shift = 0 if seed == DEFAULT_SEED else random.Random(f"wilf-{seed}").randint(0, 4)
            lo, hi = 8 + shift, 240 + shift
        self.lo, self.hi = lo, hi
        self.out = os.path.join(workdir, "wilf.csv")
        self.job = Job(
            ("wilf", "--range", f"{lo}:{hi}", "--threads", "1", "-o", self.out),
            hi - lo + 1,
            (self.out,),
        )

    def check(self, job: Job, code: int, stdout: str, files: dict[str, str]) -> int:
        body = _rows(files.get(self.out) or "", self.COLUMNS)
        if code != 0 or body is None or len(body) != job.items:
            return 0
        primes = Primes(1000)
        ok = 0
        for n, row in zip(range(self.lo, self.hi + 1), body):
            try:
                e, f, g = int(row[2]), int(row[3]), int(row[4])
            except ValueError:
                continue
            p = primes.nth(n)
            gens = primes.between(p, 2 * p)
            k = len(gens)
            s = Semigroup(lambda x: [q for q in gens if q <= x], p, hint=f)
            improved = (2 * k + 1) * (k + 1)
            ok += (
                row[:2] == [str(n), str(p)]
                and (e, f, g) == (s.atom_count(gens), s.frobenius, s.genus)
                and row[5:] == [
                    str(1 + f - g), decimal6(Fraction(g, 1 + f)), decimal6(Fraction(e - 1, e)),
                    "true", str(improved), _flag(f < improved),
                ]
                and g * e <= (e - 1) * (1 + f)
            )
        return ok


class Tails(_Batch):
    """table3 --range LO:HI --threads N: f_n of the semigroup of all primes
    >= p_n, its parity and the jump f_{n+1} - 3p_n, on a process pool of N
    workers, N the CPU affinity count.

    Band: the window [5 + s, 300 + s] with s in [0, 4] (seed 0: 5:300), inside
    the paper's 5:1000 where every row passes.  Items: rows (296).
    """

    name = "tails"
    COLUMNS = ["n", "p", "f", "f_odd", "delta_next", "pass"]

    def __init__(self, seed: int, smoke: bool, workdir: str):
        if smoke:
            lo, hi = 5, 40
        else:
            shift = 0 if seed == DEFAULT_SEED else random.Random(f"tails-{seed}").randint(0, 4)
            lo, hi = 5 + shift, 300 + shift
        self.lo, self.hi = lo, hi
        self.workers = max(2, len(os.sched_getaffinity(0))) if smoke else len(os.sched_getaffinity(0))
        self.out = os.path.join(workdir, "table3.csv")
        self.job = Job(
            ("table3", "--range", f"{lo}:{hi}", "--threads", str(self.workers), "-o", self.out),
            hi - lo + 1,
            (self.out,),
        )

    def check(self, job: Job, code: int, stdout: str, files: dict[str, str]) -> int:
        body = _rows(files.get(self.out) or "", self.COLUMNS)
        if code != 0 or body is None or len(body) != job.items:
            return 0
        primes = Primes(10_000)
        tail_f: dict[int, int] = {}

        def frobenius(n: int, hint: int) -> int:
            if n not in tail_f:
                p = primes.nth(n)
                tail_f[n] = Semigroup(lambda x: primes.between(p, x), p, hint=hint).frobenius
            return tail_f[n]

        ok = 0
        for n, row in zip(range(self.lo, self.hi + 1), body):
            try:
                f, delta = int(row[2]), int(row[4])
            except ValueError:
                continue
            p = primes.nth(n)
            true_delta = frobenius(n + 1, delta + 3 * p) - 3 * p
            ok += (
                row[:2] == [str(n), str(p)]
                and f == frobenius(n, f)
                and delta == true_delta
                and row[3] == _flag(f % 2 == 1)
                and row[5] == "true"
                and f % 2 == 1 and 0 < delta < 2 * n
            )
        return ok


class _Stratified:
    """Draws from a band so that every ``strata`` draws take one value from
    each of as many equal slices of it, in shuffled order.  A run's inputs
    then cover the band alike at every seed; the latency quantiles, set by
    the largest inputs, would otherwise move with the seed."""

    def __init__(self, rng: random.Random, values, strata: int):
        self.rng, self.values, self.strata = rng, values, strata
        self.order: list[int] = []

    def draw(self):
        if not self.order:
            self.order = list(range(self.strata))
            self.rng.shuffle(self.order)
        k, n = self.order.pop(), len(self.values)
        return self.values[self.rng.randrange(k * n // self.strata, (k + 1) * n // self.strata)]


class Requests:
    """A closed loop with one client sending single-shot commands on small
    inputs, six kinds in a shuffled deck so every six requests hold one of
    each.  Bands: --gens 2 to 5 generators in [5, 60] with gcd 1; --p a prime
    in [100, 2000] with --lambda in {1/2, 1, 3/2, 2}; density --p a prime in
    [100, 3000]; goldbach --N odd in [10^4, 10^6], and even in the same band
    with --m 4 --delta 1/20; sn --n in [5, 100].  Every band but --gens, whose
    cost hardly varies, is drawn stratified (``_Stratified``).  Items:
    requests.
    """

    name = "requests"
    workers = 1
    KINDS = ("gens", "interval", "density", "ternary", "quaternary", "tail")
    round = len(KINDS)

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.rng = rng = random.Random(f"requests-{seed}")
        small = Primes(3000)
        self.interval_p = _Stratified(rng, small.between(100, 2000), 10)
        self.interval_lambda = _Stratified(rng, ("1/2", "1", "3/2", "2"), 4)
        self.density_p = _Stratified(rng, small.between(100, 3000), 10)
        self.ternary_k = _Stratified(rng, range(5_000, 500_000), 10)
        self.quaternary_k = _Stratified(rng, range(5_000, 500_001), 10)
        self.sn_n = _Stratified(rng, range(5, 101), 8)
        self.deck: list[str] = []
        self._primes: Primes | None = None

    def _gens(self) -> list[int]:
        while True:
            gens = sorted(self.rng.sample(range(5, 61), self.rng.randint(2, 5)))
            if math.gcd(*gens) == 1:
                return gens

    def next_job(self, i: int) -> Job:
        if not self.deck:
            self.deck = list(self.KINDS)
            self.rng.shuffle(self.deck)
        kind = self.deck.pop()
        if kind == "gens":
            argv = ("frobenius", "--gens", ",".join(map(str, self._gens())))
        elif kind == "interval":
            argv = ("frobenius", "--p", str(self.interval_p.draw()), "--lambda", self.interval_lambda.draw())
        elif kind == "density":
            argv = ("density", "--p", str(self.density_p.draw()))
        elif kind == "ternary":
            argv = ("goldbach", "--N", str(2 * self.ternary_k.draw() + 1))
        elif kind == "quaternary":
            argv = ("goldbach", "--N", str(2 * self.quaternary_k.draw()), "--m", "4", "--delta", "1/20")
        else:
            argv = ("sn", "--n", str(self.sn_n.draw()))
        return Job(argv, 1)

    @property
    def primes(self) -> Primes:
        if self._primes is None:
            self._primes = Primes(1_000_100)
        return self._primes

    def check(self, job: Job, code: int, stdout: str, files: dict[str, str]) -> int:
        if code != 0:
            return 0
        try:
            return int(self._check(job.argv, stdout))
        except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError):
            return 0

    def _check(self, argv: tuple[str, ...], stdout: str) -> bool:
        primes = self.primes
        if argv[0] == "goldbach":
            out = json.loads(stdout)
            n = int(argv[2])
            m = int(argv[4]) if "--m" in argv else 3
            parts = [int(q) for q in out["parts"]]
            limit = Fraction(out["bound_limit"])
            if m == 3:
                # the window is floor(N^(3/5)) per part; the claim may be tighter
                claim_ok = out["bound_type"] == "n_theta" and limit <= 3 * iroot(n**3, 5)
                strict = False
            else:
                claim_ok = out["bound_type"] == "delta" and limit == Fraction(m * n, 20)
                strict = True
            return (
                claim_ok and out["N"] == n and out["m"] == m and out["strict"] is strict
                and out["valid"] is True and parts == sorted(parts)
                and certificate_ok(primes, n, m, parts, out["max_deviation"], limit, strict)
            )
        rows = list(csv.reader(io.StringIO(stdout)))
        if len(rows) != 2:
            return False
        row = dict(zip(rows[0], rows[1]))
        if argv[0] == "sn":
            n = int(argv[2])
            p = primes.nth(n)
            f, trunc = int(row["f"]), int(row["truncation"])
            s = Semigroup(lambda x: primes.between(p, x), p, hint=f)
            start = 4 * p + 2 * n
            doubling = trunc % start == 0 and (trunc // start) & (trunc // start - 1) == 0
            return (row["n"], row["p"], row["certificate_ok"]) == (str(n), str(p), "true") \
                and f == s.frobenius and f <= trunc and doubling
        if argv[0] == "density":
            p = int(argv[2])
            s = finite(primes.between(p, 2 * p))
            f, g = s.frobenius, s.genus
            return rows == [["p", "density"], [str(p), decimal6(Fraction(1 + f - g, 1 + f))]]
        if argv[1] == "--gens":
            gens = sorted(set(int(t) for t in argv[2].split(",")))
            s = finite(gens)
            f, g, e = s.frobenius, s.genus, s.atom_count(gens)
            expected = [str(gens[0]), str(f), str(g), str(e), str(1 + f - g)]
            return rows == [["m", "f", "g", "e", "sporadic"], expected] \
                and (len(gens) != 2 or f == sylvester_frobenius(*gens))
        p, lam = int(argv[2]), Fraction(argv[4])
        gens = primes.between(p, (1 + lam).numerator * p // (1 + lam).denominator)
        s = finite(gens)
        f, g, e = s.frobenius, s.genus, s.atom_count(gens)
        expected = [str(p), str(lam.numerator), str(lam.denominator), str(f), str(g), str(e), str(1 + f - g)]
        return rows == [["p", "a", "b", "f", "g", "e", "sporadic"], expected]


WORKLOADS = {w.name: w for w in (Staircase, Wilf, Tails, Requests)}
