"""The package's export list."""

import inspect

import totdk
from totdk import arith


def test_star_import_and_every_export_resolves():
    namespace = {}
    exec("from totdk import *", namespace)
    for name in totdk.__all__:
        assert name in namespace
        assert namespace[name] is getattr(totdk, name)
    assert len(set(totdk.__all__)) == len(totdk.__all__)


def test_no_export_takes_a_prime_source():
    # The primes of n come from the open `with Sieve(...):` scope, never from an argument.
    for name in totdk.__all__:
        obj = getattr(totdk, name)
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, Exception)):
            assert not {"sieve", "primes"} & set(inspect.signature(obj).parameters), name
    for fn in (arith.distinct_primes, arith.coprime_residues):
        assert list(inspect.signature(fn).parameters) == ["n"]
