"""The package's export list, the README's library example, and the test configuration."""

import ast
import re
import shutil
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import esphere

ROOT = Path(__file__).resolve().parents[1]


def test_all_names_exactly_the_public_attributes():
    public = {
        name
        for name, value in vars(esphere).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(esphere.__all__) == len(set(esphere.__all__)) == 35
    assert set(esphere.__all__) == public | {"__version__"}


def test_star_import_resolves_every_name():
    namespace: dict[str, object] = {}
    exec("from esphere import *", namespace)
    for name in esphere.__all__:
        assert namespace[name] is getattr(esphere, name)


def test_readme_library_example_gives_the_values_its_comments_state():
    readme = (ROOT / "README.md").read_text()
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


@pytest.mark.parametrize("module", ["sphere.py", "operational.py", "validation.py"])
def test_model_modules_import_no_numpy(module):
    tree = ast.parse((ROOT / "src" / "esphere" / module).read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    assert "numpy" not in imported


def _local_imports(node: ast.AST, scope: str = "") -> set[tuple[str, str]]:
    """(enclosing function or class, imported module) for every import below module level."""
    found = set()
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        if isinstance(child, ast.Import) and scope:
            found |= {(scope, alias.name) for alias in child.names}
        elif isinstance(child, ast.ImportFrom) and scope:
            found.add((scope, "." * child.level + (child.module or "")))
        found |= _local_imports(child, inner)
    return found


def test_the_only_function_level_import_is_the_thread_pool():
    # a local import on a point-call path would add its lookup to every call
    found = {
        (f"{path.stem}.{scope}", module)
        for path in sorted((ROOT / "src" / "esphere").glob("*.py"))
        for scope, module in _local_imports(ast.parse(path.read_text()))
    }
    assert found == {("singlet._run_blocks", "concurrent.futures")}


def test_a_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # The project's warning filters must let hypothesis explain a failing
    # example without turning a third-party import warning into an error.
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_case.py").write_text(textwrap.dedent(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 10

        def test_passes():
            pass
        """
    ))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_case.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
