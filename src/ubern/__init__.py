"""Exact arithmetic for divided universal Bernoulli numbers.

The weight-n divided universal Bernoulli number is a polynomial in
indeterminates c_1, ..., c_n with one exact rational coefficient per
partition of n.  This package computes those polynomials, provides the
p-adic valuation machinery their coefficients obey, and mechanically
verifies a family of Kummer-type congruences modulo prime powers.
"""

from .bernoulli import (
    DEFAULT_N_CEILING,
    SparsePoly,
    cache_blocks,
    classical_bernoulli,
    divided_ubern,
    format_rational,
    gamma,
    parse_rational,
    read_coefficient_cache,
    specialize,
    tau,
    tau_valuation,
    tau_valuations_below,
    write_coefficient_cache,
)
from .congruences import (
    CongruenceFailure,
    CongruenceReport,
    check_corollary_3_4,
    poly_congruent,
    reports_agree,
    rhs_theorem_3_5,
    rhs_theorem_4_8,
    rhs_theorem_4_9,
    tau_pure,
    verify_classical_kummer,
    verify_theorem_3_5,
    verify_theorem_4_8,
    verify_theorem_4_9,
)
from .errors import CacheError, CeilingExceeded, PreconditionError
from .lemmas import SWEEPS, LemmaSweepResult, run_sweep
from .padic import (
    INFINITY,
    digit_sum,
    double_factorial,
    f_sum,
    f_term,
    factorial_unit_mod,
    g_func,
    is_prime,
    vp,
    vp_factorial,
)
from .partitions import (
    Partition,
    count_partitions,
    enumerate_partitions,
    enumerate_partitions_bounded,
    is_reduced,
    reduce_partition,
)

__version__ = "0.1.0"
