"""The package's export list and the README's library example."""

import re
import types
from pathlib import Path

import pytest

import esphere


def test_all_names_exactly_the_public_attributes():
    public = {
        name
        for name, value in vars(esphere).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(esphere.__all__) == len(set(esphere.__all__)) == 37
    assert set(esphere.__all__) == public | {"__version__"}


def test_star_import_resolves_every_name():
    namespace: dict[str, object] = {}
    exec("from esphere import *", namespace)
    for name in esphere.__all__:
        assert namespace[name] is getattr(esphere, name)


def test_readme_library_example_gives_the_values_its_comments_state():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    namespace: dict[str, object] = {}
    exec(blocks[0], namespace)
    assert namespace["joint"].as_tuple() == pytest.approx((1 / 8, 3 / 8, 3 / 8, 1 / 8), abs=1e-15)
    assert namespace["report"].compatible
    assert not namespace["report"].separated
    assert namespace["s"] == 4.0
    assert namespace["cols"]["separated"][3]
    assert sum(namespace["counts"]) == 1_000_000
