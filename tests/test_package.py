"""The package's export list."""

import reslice


def test_every_exported_name_resolves():
    assert len(set(reslice.__all__)) == len(reslice.__all__)
    assert [name for name in reslice.__all__ if not hasattr(reslice, name)] == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from reslice import *", namespace)
    assert set(reslice.__all__) <= set(namespace)
