"""Exact invariants of numerical semigroups generated by primes in intervals.

The core object is the Apery set of a semigroup with respect to its smallest
generator; Frobenius number, genus, gaps, membership and atom counts all read
off it exactly.  On top sit the interval semigroups (primes in [p, p+lam*p]),
Wilf quotient verification, constrained prime decompositions, and the tail
semigroups of all primes from p_n on.
"""

from .errors import (
    BudgetError,
    ConfigurationError,
    DecompositionError,
    DomainError,
    InvariantViolationError,
    NotNumericalSemigroupError,
    OutOfRangeError,
)
from .goldbach import (
    DecompCertificate,
    OddScanResult,
    TailProfile,
    TailScanRow,
    binary_decomp,
    decompose_m,
    decomposition_reach,
    exceptional_evens,
    odd_membership_scan,
    sn_scan,
    tail_frobenius,
    ternary_decomp,
)
from .intervals import (
    LambdaSemigroup,
    NarrowBoundResult,
    StaircasePoint,
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
from .primes import (
    BoundCheck,
    BoundsReport,
    PrimeTable,
    PrimeWindow,
    baker_window,
    build_table,
    extend_table,
    table_for_nth_prime,
    verify_literature_bounds,
)
from .semigroup import (
    AperyProfile,
    GeneratorSet,
    apery_set,
    atoms,
    brute_force_membership,
    normalize_generators,
    sylvester_frobenius,
    sylvester_genus,
)
from .wilf import (
    SmallCasesReport,
    SpRangeRow,
    WilfReport,
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
    sporadic_prime_family,
    verify_sp_range,
    wilf_report,
)

__version__ = "0.1.0"
