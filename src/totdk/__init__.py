"""Exact verification of Spence's totative-sum formula via Dedekind sums.

The library computes every identity in the chain both by brute force over
the totatives of n and by closed form, in exact rational arithmetic, and
ships a fast O(log a) Dedekind-sum evaluator built on the reciprocity law.
"""

from .arith import (
    ENUMERATION_BOUND,
    Sieve,
    coprime_residues,
    divisors,
    factorize,
    moebius,
    omega,
    radical,
    squarefree_divisors,
    totatives,
    totient,
)
from .dedekind import (
    NAIVE_BOUND,
    dedekind_fast,
    dedekind_fast_with_depth,
    dedekind_naive,
    reciprocity_rhs,
    sawtooth,
)
from .errors import DomainError, InvariantViolation, ResourceLimitError
from .rational import format_rational, parse_rational, rat_frac
from .spence import (
    CHAIN_IDENTITIES,
    IdentityResult,
    delange_closed_form,
    delange_double_sum,
    mobius_transform_sum,
    nu,
    nu_weighted_sum_bruteforce,
    s_closed_form,
    s_double_sum,
    spence_closed_form,
    sum_j_aj_bruteforce,
    sum_squares_totatives,
    sum_squares_totatives_bruteforce,
    theta,
    verify_chain,
)
from .verify import VerificationReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "CHAIN_IDENTITIES",
    "DomainError",
    "ENUMERATION_BOUND",
    "IdentityResult",
    "InvariantViolation",
    "NAIVE_BOUND",
    "ResourceLimitError",
    "Sieve",
    "VerificationReport",
    "coprime_residues",
    "dedekind_fast",
    "dedekind_fast_with_depth",
    "dedekind_naive",
    "delange_closed_form",
    "delange_double_sum",
    "divisors",
    "factorize",
    "format_rational",
    "moebius",
    "mobius_transform_sum",
    "nu",
    "nu_weighted_sum_bruteforce",
    "omega",
    "parse_rational",
    "radical",
    "rat_frac",
    "reciprocity_rhs",
    "run_suite",
    "s_closed_form",
    "s_double_sum",
    "sawtooth",
    "spence_closed_form",
    "squarefree_divisors",
    "sum_j_aj_bruteforce",
    "sum_squares_totatives",
    "sum_squares_totatives_bruteforce",
    "theta",
    "totatives",
    "totient",
    "verify_chain",
]
