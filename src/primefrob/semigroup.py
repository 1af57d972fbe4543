"""Exact numerical-semigroup invariants from a finite generator set.

The work horse is the Apery set with respect to the multiplicity m: for each
residue class r mod m the least semigroup element congruent to r.  Frobenius
number, genus, membership, gaps and sporadic counts all read off it in O(1)
or one linear pass.

The table is held in Kunz coordinates k[r] = (apery[r] - r) / m, in
descending class order: k[j] is the coordinate of class r = m - 1 - j, so
class 0 sits at the end.  Coordinates stay below the largest generator, so
they fit in 32 bits for every input with a generator below 2**29 - m; a
larger generator widens the table to 64 bits once.  The table is built one
generator g at a time: a fold relaxes

    apery[(r + g) mod m] <= apery[r] + g

to a fixed point by binary doubling (t copies of g at once, t = 1, 2, 4, ...),
O(m log m) worst case per generator.  A step of cost c = q*m + s moves class r
to r + s, q levels up, or to r + s - m, q + 1 levels up; it writes the shifted
table into a scratch buffer with two slice adds and takes the elementwise
minimum in place, so a fold allocates nothing.  One argmax per fold reads the
largest Apery value exactly (the first maximum of k in descending order is the
largest class on the top level) and bounds the doubling rounds.  A certificate
closes the build: one more step by each generator lowers no entry (fixed
point: apery <= the Apery set), and each nonzero class equals some step into
it (attainment: following steps back ends at class 0, so apery >= the Apery
set).  The same loop yields the atoms: m, and each g = apery[g mod m] whose
class no step from a nonzero class reaches.

``brute_force_membership`` is the independent oracle: plain coin-problem
reachability with no modular arithmetic, for tests to diff against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import BudgetError, DomainError, InvariantViolationError, NotNumericalSemigroupError

# Sentinels for an unreached class.  A Kunz coordinate is below the largest
# generator g, and a relaxation step adds q + 1 <= g levels (q = cost // m with
# cost < m*g).  In int32 every generator stays below 2**29 - m, so the sentinel
# plus a step stays below 2**30 + 2**29 < 2**31.  In int64 the value budget
# keeps g below 2**57, so the sentinel plus a step stays below 2**63.
_INF32 = 1 << 30
_INF64 = 1 << 62
_WIDEN_BELOW = 1 << 29
# Apery values are bounded by m * max(gens).
_VALUE_BUDGET = 1 << 58
# A table and its scratch buffer cost 8 bytes per residue class in int32 (128
# MiB here) and 16 bytes once widened to int64 (256 MiB).
_MULTIPLICITY_BUDGET = 1 << 24

ORACLE_BUDGET = 10_000_000


@dataclass(frozen=True)
class GeneratorSet:
    """Sorted, deduplicated generators of a numerical semigroup (gcd 1)."""

    generators: tuple[int, ...]

    @property
    def multiplicity(self) -> int:
        return self.generators[0]

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)


def normalize_generators(raw: Iterable[int]) -> GeneratorSet:
    """Sort, deduplicate and validate a raw generator list.

    Raises NotNumericalSemigroupError when the gcd exceeds 1 (the complement
    would be infinite) and DomainError on empty input or entries < 2.
    """
    gens = sorted(set(int(g) for g in raw))
    if not gens:
        raise DomainError("generator list is empty")
    if gens[0] < 2:
        raise DomainError(f"generators must be >= 2, got {gens[0]}")
    g = 0
    for x in gens:
        g = math.gcd(g, x)
    if g != 1:
        raise NotNumericalSemigroupError(f"gcd of generators is {g}, not 1")
    return GeneratorSet(tuple(gens))


class AperyError(InvariantViolationError):
    pass


def _check_value_budget(m: int, g: int) -> None:
    if m * g > _VALUE_BUDGET:
        raise BudgetError(f"apery values may exceed the 64-bit budget for m={m}, generator {g}")


def _shifted(k: np.ndarray, buf: np.ndarray, shift: int, q: int) -> np.ndarray:
    """Fill ``buf`` with one relaxation step of ``k`` of cost q*m + shift,
    without allocating: classes that stay below m rise q levels, the ``shift``
    classes that wrap past m rise q + 1."""
    m = len(k)
    np.add(k[shift:], q, out=buf[:m - shift])
    np.add(k[:shift], q + 1, out=buf[m - shift:])
    return buf


def _top(k: np.ndarray) -> int:
    """The largest Apery value m*k[j] + (m - 1 - j) of a Kunz table: in
    descending class order the first maximum is the largest class on the top
    level."""
    m = len(k)
    j = int(k.argmax())
    return m * int(k[j]) + m - 1 - j


def _fold_generator(k: np.ndarray, buf: np.ndarray, g: int) -> tuple[int, bool]:
    """Close the Kunz table ``k`` under adding any number of copies of g, in place.

    In Apery terms, after the call apery[r] = min over t >= 0 of
    old_apery[(r - t*g) mod m] + t*g.  ``buf`` is scratch space of the same
    length as ``k``.  Returns (top, exact): the largest Apery value after the
    first step, an upper bound after the fold, exact when no doubling step ran.
    """
    m = len(k)
    q, shift = divmod(g, m)
    if shift == 0:
        return _top(k), True  # adding multiples of m never lowers a class minimum
    np.minimum(k, _shifted(k, buf, shift, q), out=k)
    # t copies of g only help while t*g stays below the largest Apery value;
    # while a class is unreached that value exceeds m times the sentinel and
    # its quotient by g exceeds m - 1.
    top = _top(k)
    t_bound = min(m - 1, top // g)
    covered, step_cost = 1, g
    while covered < t_bound:
        step_cost *= 2
        step_q, step_shift = divmod(step_cost, m)
        np.minimum(k, _shifted(k, buf, step_shift, step_q), out=k)
        covered = 2 * covered + 1
    return top, t_bound <= 1


def _verify_fixed_point(k: np.ndarray, gens: Sequence[int]) -> tuple[int, ...]:
    """Certify the Kunz table ``k`` (descending class order) as the Apery table
    of the semigroup generated by ``gens`` or raise AperyError; return the
    atoms among ``gens``.  Per class, ``low`` is the cheapest step into it from
    a nonzero class and ``zero`` the cheapest from class 0."""
    m = len(k)
    buf = np.empty_like(k)
    low = np.full_like(k, np.iinfo(k.dtype).max)
    zero = low.copy()
    for g in gens:
        q, shift = divmod(g, m)
        if shift:
            j = m - 1 - shift  # the class g reaches from class 0
            sh = _shifted(k, buf, shift, q)
            zero[j] = min(zero[j], sh[j])
            sh[j] = low[j]
            np.minimum(low, sh, out=low)
    if k[-1] != 0 or bool((np.minimum(low, zero) < k).any()):
        raise AperyError("relaxation not at fixed point")
    own = (zero == k) & (low != k)  # an atom's class: reached from class 0 only
    if not bool(((low == k) | own)[:-1].all()):
        raise AperyError("an entry is not attained by any generator step")
    j = np.flatnonzero(own)
    found = set((m * k[j].astype(np.int64) + m - 1 - j).tolist())
    return tuple(g for g in gens if g == m or g in found)


@dataclass(frozen=True)
class AperyProfile:
    """Apery set of a numerical semigroup w.r.t. its multiplicity m.

    apery[r] is the least semigroup element congruent to r mod m; apery[0] = 0.
    frobenius = max(apery) - m and genus = sum over r of floor(apery[r] / m).
    """

    multiplicity: int
    apery: np.ndarray
    frobenius: int
    genus: int
    generators: tuple[int, ...]  # the generators folded into the table
    atoms: tuple[int, ...] | None = None  # minimal generators, once certified

    def contains(self, n: int) -> bool:
        """Membership in O(1): n >= 0 and n >= apery[n mod m]."""
        if n < 0:
            return False
        return n >= int(self.apery[n % self.multiplicity])

    def contains_many(self, ns: np.ndarray) -> np.ndarray:
        ns = np.asarray(ns, dtype=np.int64)
        return (ns >= 0) & (ns >= self.apery[ns % self.multiplicity])

    def members_below(self, limit: int) -> np.ndarray:
        """Ascending semigroup elements strictly less than ``limit``."""
        out = [np.arange(start, limit, self.multiplicity, dtype=np.int64)
               for start in self.apery.tolist() if start < limit]
        if not out:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(out))

    def gaps(self) -> np.ndarray:
        """All positive integers outside the semigroup, ascending."""
        m = self.multiplicity
        out = []
        for r in range(1, m):
            top = int(self.apery[r])
            if top >= m:
                out.append(np.arange(top - m, 0, -m, dtype=np.int64))
        if not out:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(out))

    def sporadic_elements(self, below: int | None = None) -> tuple[int, np.ndarray]:
        """(sporadic count, elements).

        The count is always 1 + frobenius - genus, the number of semigroup
        elements below the Frobenius number.  ``elements`` lists members
        strictly below ``below`` (default: below the Frobenius number).
        """
        count = 1 + self.frobenius - self.genus
        cutoff = self.frobenius if below is None else below
        return count, self.members_below(cutoff)


def apery_set(gens: GeneratorSet) -> AperyProfile:
    """The certified AperyProfile of the semigroup generated by ``gens``.  A
    member generator is not folded: it adds nothing and is no atom, and as
    folds only lower entries the certified table still holds it."""
    _check_value_budget(gens.multiplicity, gens.generators[-1])
    builder = IncrementalApery(gens.multiplicity)
    for g in gens.generators[1:]:
        if not builder.contains(g):
            builder.add(g)
    return builder.profile(verify=True)


class IncrementalApery:
    """Apery table that accepts generators one at a time.

    Adding a generator to an exact table and relaxing to a fixed point keeps
    it exact, so a growing family of semigroups (nested generator sets) costs
    one fold per new generator instead of one full build per member.  The
    table ``k`` holds Kunz coordinates in descending class order, in int32
    until a generator reaches 2**29 - m and in int64 from then on.
    """

    def __init__(self, multiplicity: int):
        if multiplicity < 2:
            raise DomainError(f"multiplicity must be >= 2, got {multiplicity}")
        if multiplicity > _MULTIPLICITY_BUDGET:
            raise BudgetError(f"multiplicity {multiplicity} over the budget {_MULTIPLICITY_BUDGET}")
        self.multiplicity = multiplicity
        self.k = np.full(multiplicity, _INF32, dtype=np.int32)
        self.k[-1] = 0
        self._buf = np.empty_like(self.k)
        self._inf = _INF32
        self._widen_at = _WIDEN_BELOW - multiplicity
        self._complete = False
        self._exact_top: int | None = None  # the largest Apery value, when known
        self.generators: list[int] = [multiplicity]

    def _widen(self) -> None:
        """Move the table to int64 for good, remapping the sentinel."""
        k = self.k.astype(np.int64)
        k[k == self._inf] = _INF64
        self.k, self._buf, self._inf = k, np.empty_like(k), _INF64
        self._widen_at = math.inf

    def add(self, g: int) -> int:
        """Fold in generator g; returns the largest Apery value after the
        fold's first step, an upper bound on every value after the fold."""
        if g < self.multiplicity:
            raise DomainError("generators must be added in ascending order from m")
        _check_value_budget(self.multiplicity, g)
        if g >= self._widen_at:
            self._widen()
        self.generators.append(int(g))
        top, exact = _fold_generator(self.k, self._buf, int(g))
        self._exact_top = top if exact else None
        return top

    def contains(self, n: int) -> bool:
        """Membership of n in the semigroup generated so far, in O(1):
        apery[n mod m] <= n, read in Kunz coordinates.  Exact before
        completion too, since an unreached class holds the sentinel."""
        m = self.multiplicity
        level = int(self.k[m - 1 - n % m])
        return level <= n // m and level < self._inf

    @property
    def complete(self) -> bool:
        # entries only ever fall, so a table once complete stays complete
        if not self._complete:
            self._complete = int(self.k[self.k.argmax()]) < self._inf
        return self._complete

    def _largest_apery(self) -> int:
        """Largest Apery value of a complete table, scanned for once after a doubling fold."""
        if not self.complete:
            raise AperyError("some residue class is still unreachable")
        if self._exact_top is None:
            self._exact_top = _top(self.k)
        return self._exact_top

    def profile(self, verify: bool = False) -> AperyProfile:
        top, m, k = self._largest_apery(), self.multiplicity, self.k
        found = _verify_fixed_point(k, self.generators) if verify else None
        # astype before scaling: an int32 product would wrap
        ap = k[::-1].astype(np.int64)
        ap *= m
        ap += np.arange(m, dtype=np.int64)
        ap.setflags(write=False)
        return AperyProfile(multiplicity=m, apery=ap, frobenius=top - m,
                            genus=int(k.sum(dtype=np.int64)),
                            generators=tuple(self.generators), atoms=found)

    def frobenius(self) -> int:
        return self._largest_apery() - self.multiplicity


def atoms(profile: AperyProfile) -> tuple[int, ...]:
    """The minimal generators of the profile's semigroup, a unique set.  A
    certified profile answers from its certificate; otherwise the certifying
    pass runs on the profile's table and generators, in O(m) memory."""
    if profile.atoms is not None:
        return profile.atoms
    m = profile.multiplicity
    k = ((profile.apery - np.arange(m)) // m)[::-1]  # Kunz, descending
    return _verify_fixed_point(k, profile.generators)


def brute_force_membership(gens: GeneratorSet, n_max: int) -> np.ndarray:
    """Reachability table over [0, n_max] by direct coin-problem closure.

    Test oracle only: a Python-int bitmask is grown to a fixed point under
    shifting by each generator, with no residue-class reasoning shared with
    the Apery path.
    """
    if n_max > ORACLE_BUDGET:
        raise DomainError(f"oracle bound {n_max} exceeds budget {ORACLE_BUDGET}")
    mask = (1 << (n_max + 1)) - 1
    reach = 1  # bit k set <=> k is a sum of generators
    for g in gens:
        while True:
            grown = (reach | (reach << g)) & mask
            if grown == reach:
                break
            reach = grown
    bits = np.frombuffer(
        reach.to_bytes((n_max // 8) + 1, "little"), dtype=np.uint8
    )
    return np.unpackbits(bits, bitorder="little")[: n_max + 1].astype(bool)


def sylvester_frobenius(a: int, b: int) -> int:
    """Closed form for two coprime generators: ab - a - b."""
    if math.gcd(a, b) != 1:
        raise NotNumericalSemigroupError(f"gcd({a}, {b}) != 1")
    return a * b - a - b


def sylvester_genus(a: int, b: int) -> int:
    """Closed form for two coprime generators: (a-1)(b-1)/2."""
    if math.gcd(a, b) != 1:
        raise NotNumericalSemigroupError(f"gcd({a}, {b}) != 1")
    return (a - 1) * (b - 1) // 2
