"""Exact verification of Spence's totative-sum formula via Dedekind sums.

The library computes every identity in the chain both by brute force over
the totatives of n and by closed form, in Python ints and fractions.Fraction,
whose str() is the "p/q" text that reports and the CLI print.  It ships a fast
O(log a) Dedekind-sum evaluator built on the continued-fraction closed form of
Hickerson and Knuth.
"""

from .arith import (
    ENUMERATION_BOUND,
    coprime_residues,
    distinct_primes,
)
from .dedekind import (
    NAIVE_BOUND,
    dedekind_fast,
    dedekind_naive,
)
from .errors import DomainError, InvariantViolation, ResourceLimitError
from .spence import (
    CHAIN_IDENTITIES,
    IdentityResult,
    delange_closed_form,
    nu,
    s_closed_form,
    s_double_sum,
    spence_closed_form,
    sum_j_aj_bruteforce,
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
    "VerificationReport",
    "coprime_residues",
    "dedekind_fast",
    "dedekind_naive",
    "delange_closed_form",
    "distinct_primes",
    "nu",
    "run_suite",
    "s_closed_form",
    "s_double_sum",
    "spence_closed_form",
    "sum_j_aj_bruteforce",
    "theta",
    "verify_chain",
]
