"""The top-level namespace: what it exports, and what its users import from it."""

import ast
import re
from pathlib import Path

import pytest

import passivekey

ROOT = Path(__file__).parent.parent


def top_level_imports(source: str) -> set[str]:
    """Names imported ``from passivekey import ...`` anywhere in source."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "passivekey"
        for alias in node.names
    }


def test_all_has_no_duplicates():
    assert len(passivekey.__all__) == len(set(passivekey.__all__))


def test_every_name_in_all_resolves():
    for name in passivekey.__all__:
        assert hasattr(passivekey, name), name


@pytest.mark.parametrize("path", ["tests/test_acceptance.py", "tests/conftest.py"])
def test_callers_import_only_exported_names(path):
    names = top_level_imports((ROOT / path).read_text())
    assert names
    assert names <= set(passivekey.__all__)


def test_readme_imports_only_exported_names():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    names = set().union(*map(top_level_imports, blocks))
    assert names
    assert names <= set(passivekey.__all__)


def imported_but_unused(source: str) -> set[str]:
    """Names a module binds by import and never reads (`from __future__` aside)."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


# perfbench's tracer wraps channel.series_sum, which the closed-form channel
# no longer calls; the name stays until the harness re-pins its boundaries
BENCHMARK_ONLY = {"src/passivekey/channel.py": {"series_sum"}}


@pytest.mark.parametrize("path", sorted(
    p.relative_to(ROOT).as_posix()
    for p in (ROOT / "src" / "passivekey").glob("*.py")
    if p.name != "__init__.py"
))
def test_every_import_is_used(path):
    # an import kept for nothing, or only so that an outside patch of the
    # name still resolves, is dead code in the module that holds it; the one
    # exception is named, and the check fails once it is no longer needed
    assert imported_but_unused((ROOT / path).read_text()) == BENCHMARK_ONLY.get(path, set())


def imported_modules(source: str) -> set[str]:
    """Dotted names source imports: each module, and module.name of a from-import."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names |= {base, *(f"{base}.{alias.name}" for alias in node.names)}
    return {name.strip(".") for name in names} - {""}


@pytest.mark.parametrize("path", sorted(
    p.relative_to(ROOT).as_posix()
    for p in (ROOT / "src" / "passivekey").glob("*.py")
    if p.name not in ("__init__.py", "cli.py")
))
def test_chain_does_not_import_the_oracle(path):
    # the oracle checks the key-rate chain, so the chain must not depend on it;
    # only the entry points (the CLI and the package namespace) import it
    imported = imported_modules((ROOT / path).read_text())
    assert not [name for name in imported if "oracle" in name.split(".")]


def test_unused_import_check_sees_a_dead_import():
    assert imported_but_unused(
        "import math, os.path\nfrom .photonics import delta_n as d, x\nmath.pi\nx\n"
    ) == {"os", "d"}


def test_oracle_import_check_sees_every_form():
    for source in ("from .oracle import _count", "from . import oracle",
                   "import passivekey.oracle", "from passivekey.oracle import x"):
        assert "oracle" in {part for name in imported_modules(source)
                            for part in name.split(".")}, source
