"""The package's export list."""

import totdk


def test_star_import_and_every_export_resolves():
    namespace = {}
    exec("from totdk import *", namespace)
    for name in totdk.__all__:
        assert name in namespace
        assert namespace[name] is getattr(totdk, name)
    assert len(set(totdk.__all__)) == len(totdk.__all__)
