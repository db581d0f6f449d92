"""The package's export list."""

import types

import esphere


def test_all_names_exactly_the_public_attributes():
    public = {
        name
        for name, value in vars(esphere).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(esphere.__all__) == len(set(esphere.__all__)) == 43
    assert set(esphere.__all__) == public | {"__version__"}


def test_star_import_resolves_every_name():
    namespace: dict[str, object] = {}
    exec("from esphere import *", namespace)
    for name in esphere.__all__:
        assert namespace[name] is getattr(esphere, name)
