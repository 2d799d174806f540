"""Integer arguments: a numpy integer is read as a Python int, a float is refused.

Every exact function reads its integer arguments through operator.index at its
validation point, so no sum is taken in fixed-width numpy arithmetic and no
float is floor-divided into a wrong "exact" value.
"""

import dataclasses
import inspect
from fractions import Fraction

import numpy as np
import pytest

import totdk
import totdk.bench
import totdk.verify
from totdk import (
    IdentityResult,
    dedekind_fast,
    dedekind_naive,
    delange_closed_form,
    nu,
    run_suite,
    s_closed_form,
    spence_closed_form,
    theta,
)
from totdk.bench import generate_pairs

# Each exact function of arith, spence and dedekind that takes an integer,
# with integer arguments to call it at; theta's and nu's x is a Fraction.
_INTEGER_CALLS = {
    "coprime_residues": (30,),
    "dedekind_fast": (5, 12),
    "dedekind_naive": (5, 12),
    "delange_closed_form": (30,),
    "distinct_primes": (360,),
    "nu": (30, Fraction(41, 3)),
    "s_closed_form": (30,),
    "s_double_sum": (30,),
    "spence_closed_form": (30,),
    "sum_j_aj_bruteforce": (30,),
    "theta": (30, Fraction(41, 3)),
    "verify_chain": (30,),
}


def _typed(value):
    """value with the type of every part spelled out, Fraction parts and
    IdentityResult fields included, so == compares types as well as values."""
    if isinstance(value, np.ndarray):
        return np.ndarray, value.dtype, value.tolist()
    if isinstance(value, Fraction):
        return Fraction, type(value.numerator), type(value.denominator), value
    if isinstance(value, (list, tuple)):
        return type(value), [_typed(v) for v in value]
    if isinstance(value, IdentityResult):
        return IdentityResult, [_typed(getattr(value, f.name)) for f in dataclasses.fields(value)]
    return type(value), value


def test_every_exact_function_taking_an_integer_is_listed():
    modules = {"totdk.arith", "totdk.spence", "totdk.dedekind"}
    functions = {
        name
        for name in totdk.__all__
        if inspect.isfunction(getattr(totdk, name)) and getattr(totdk, name).__module__ in modules
    }
    assert functions == set(_INTEGER_CALLS)


@pytest.mark.parametrize("name", sorted(_INTEGER_CALLS))
def test_numpy_integers_are_read_as_ints_and_floats_are_refused(name):
    fn, args = getattr(totdk, name), _INTEGER_CALLS[name]
    expected = _typed(fn(*args))
    for i, v in enumerate(args):
        if not isinstance(v, int):
            continue
        assert _typed(fn(*args[:i], np.int64(v), *args[i + 1 :])) == expected, i
        with pytest.raises(TypeError):
            fn(*args[:i], float(v), *args[i + 1 :])


@pytest.mark.parametrize("fn", [theta, nu])
def test_theta_and_nu_read_x_as_a_fraction_of_ints(fn):
    assert _typed(fn(30, np.int64(41))) == _typed(fn(30, 41))
    for x in (41.0, 0.1, np.float64(41)):
        with pytest.raises(TypeError):
            fn(30, x)


def test_closed_forms_of_a_numpy_n_near_the_enumeration_bound_are_exact():
    # In int64, phi(n) * 8 * n * phi(n) wraps around for n this large.
    n = 1_999_993
    assert spence_closed_form(np.int64(n)) == spence_closed_form(n) == 2666636666778999860
    assert s_closed_form(np.int64(n)) == s_closed_form(n)
    assert delange_closed_form(np.int64(n)) == delange_closed_form(n)


def test_naive_dedekind_sum_of_numpy_arguments_is_exact():
    # The terms (2r - a) * (2k - a) summed over 3.1 million k overflow int64.
    expected = Fraction(1601665116667, 6200000)
    assert dedekind_fast(1, 3_100_000) == expected
    assert dedekind_naive(np.int64(1), np.int64(3_100_000)) == expected


@pytest.mark.parametrize(
    "suite,start,end", [("spence", 2, 40), ("chain", 2, 40), ("dedekind", 1, 12)]
)
def test_run_suite_reads_its_range_and_workers_as_ints(monkeypatch, suite, start, end):
    as_ints = run_suite(suite, start, end, workers=2)
    as_numpy = run_suite(suite, np.int64(start), np.int64(end), workers=np.int64(2))
    for fmt in ("json", "csv"):
        assert as_numpy.render(fmt) == as_ints.render(fmt)

    def no_shard(job):
        raise AssertionError("a shard started")

    monkeypatch.setattr(totdk.verify, "_run_shard", no_shard)
    for first, last, workers in ((float(start), end, 1), (start, float(end), 1), (start, end, 1.0)):
        with pytest.raises(TypeError):
            run_suite(suite, first, last, workers=workers)


def test_generate_pairs_reads_its_arguments_as_ints(monkeypatch):
    expected = generate_pairs(3, 100, 1)
    assert _typed(generate_pairs(np.int64(3), np.int64(100), np.int64(1))) == _typed(expected)

    def no_draw(seed):
        raise AssertionError("a pair was drawn")

    monkeypatch.setattr(totdk.bench, "lcg_states", no_draw)
    for args in ((3.0, 100, 1), (3, 100.0, 1), (3, 100, 1.0)):
        with pytest.raises(TypeError):
            generate_pairs(*args)
