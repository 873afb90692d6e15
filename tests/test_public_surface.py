"""Guard against regrowth of public names that only tests reach.

Every name a ``repro`` module lists in ``__all__``, and every public
method or property of a class listed there, must be referenced outside
``tests/``: in ``src/``, ``examples/``, ``benchmarks/``, ``perfbench/``,
``README.md``, the ``Makefile`` or ``.github/``.  Dunder names such as
``__version__`` are conventions for tools and are not checked.  A name's own
``def``/``class`` line or module-level assignment, its ``__all__``
entries and the import statements that re-export it are not references.
Names that exist for the tests alone are listed in :data:`KEPT_FOR_TESTS`,
each with its reason.

The same scan refuses module-level imports that their module never uses.
"""

from __future__ import annotations

import ast
import functools
import re
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
CORPUS_DIRS = ("src", "examples", "benchmarks", "perfbench", ".github")
CORPUS_FILES = ("README.md", "Makefile")
CORPUS_SUFFIXES = {".py", ".md", ".yml", ".yaml", ".toml", ".cfg", ".txt"}
WORD = re.compile(r"\w+")

# Qualified name -> why it stays although only tests call it.
KEPT_FOR_TESTS: Dict[str, str] = {
    "repro.censorship.deployment.CensorDeployment.can_cause":
        "ground truth the integration test checks identified censors against",
    "repro.netsim.middlebox.TransparentMiddlebox":
        "the no-op middlebox the session tests substitute for a censor",
    "repro.obs.export.unescape_label_value":
        "inverse the exposition test round-trips escape_label_value through",
    "repro.routing.policy.is_valley_free":
        "oracle the routing tests check every computed path against",
    "repro.sat.solver.check_model":
        "oracle the solver tests verify every emitted model with",
    "repro.serve.server.healthz_snapshot":
        "the serve tests' /healthz probe",
    "repro.topology.classification.agreement_with_ground_truth":
        "oracle the topology generator tests score classification with",
    "repro.topology.countries.countries_in_region":
        "region lookup the country-table test checks coverage through",
}


def _corpus_files() -> Iterator[Path]:
    for name in CORPUS_DIRS:
        directory = ROOT / name
        if directory.is_dir():
            for path in sorted(directory.rglob("*")):
                if path.is_file() and path.suffix in CORPUS_SUFFIXES:
                    yield path
    for name in CORPUS_FILES:
        path = ROOT / name
        if path.is_file():
            yield path


def _non_references(tree: ast.AST) -> Iterator[str]:
    """Words of a module that name a definition rather than use it."""
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            yield node.name
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield from alias.name.split(".")
                if alias.asname:
                    yield alias.asname
    for node in getattr(tree, "body", []):
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, ast.AnnAssign)
            else []
        )
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id
        if _is_all(node):
            for element in node.value.elts:
                yield from WORD.findall(element.value)


def _is_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in node.targets
    )


@functools.lru_cache(maxsize=None)
def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _reference_counts() -> Counter:
    counts: Counter = Counter()
    for path in _corpus_files():
        text = path.read_text(encoding="utf-8")
        counts.update(WORD.findall(text))
        if path.suffix == ".py":
            counts.subtract(_non_references(_parse(path)))
    return counts


def _public_surface() -> Iterator[Tuple[str, str]]:
    """``(qualified name, bare name)`` for every exported name and every
    public member of an exported class."""
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = _parse(path)
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        exported: List[str] = []
        for node in tree.body:
            if _is_all(node):
                exported = [element.value for element in node.value.elts]
        for name in exported:
            if not name.startswith("__"):
                yield f"{module}.{name}", name
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name in exported:
                for member in node.body:
                    if isinstance(
                        member, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and not member.name.startswith("_"):
                        yield (
                            f"{module}.{node.name}.{member.name}",
                            member.name,
                        )


@pytest.fixture(scope="module")
def counts() -> Counter:
    return _reference_counts()


@pytest.fixture(scope="module")
def surface() -> Dict[str, str]:
    return dict(_public_surface())


def test_every_public_name_has_a_caller_outside_tests(counts, surface):
    unreferenced = sorted(
        qualified
        for qualified, name in surface.items()
        if counts[name] <= 0 and qualified not in KEPT_FOR_TESTS
    )
    assert not unreferenced, (
        "public names referenced only by tests (delete them, or list them "
        "in KEPT_FOR_TESTS with the reason):\n  " + "\n  ".join(unreferenced)
    )


def test_kept_names_exist_and_are_still_test_only(counts, surface):
    test_words = set()
    for path in (ROOT / "tests").rglob("*.py"):
        if path != Path(__file__).resolve():
            test_words.update(WORD.findall(path.read_text(encoding="utf-8")))
    stale = sorted(
        qualified
        for qualified in KEPT_FOR_TESTS
        if qualified not in surface
        or counts[surface[qualified]] > 0
        or surface[qualified] not in test_words
    )
    assert not stale, (
        "KEPT_FOR_TESTS entries that are gone, have a caller outside "
        "tests, or no test uses:\n  " + "\n  ".join(stale)
    )


def _python_sources() -> Iterator[Path]:
    for name in ("src", "tests", *CORPUS_DIRS[1:]):
        directory = ROOT / name
        if directory.is_dir():
            yield from sorted(directory.rglob("*.py"))


def test_no_module_imports_an_unused_name():
    """A module-level import must be used by its module: loaded as a
    name, or named in a string that parses as an expression (a quoted
    annotation).  Exempt are ``__init__.py`` re-exports, ``__all__``
    names, and names another module imports from it."""
    imported_from = set()
    for path in _python_sources():
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom) and node.module:
                imported_from.update(
                    (node.module, alias.name) for alias in node.names
                )
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _parse(path)
        module = ".".join(
            path.relative_to(PACKAGE.parent).with_suffix("").parts
        )
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(
                node.value, str
            ):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(
                    name.id
                    for name in ast.walk(quoted)
                    if isinstance(name, ast.Name)
                )
        for node in tree.body:
            if _is_all(node):
                used.update(element.value for element in node.value.elts)
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and (
                node.module == "__future__"
            ):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and (module, name) not in imported_from:
                    unused.append(
                        f"{path.relative_to(ROOT)}:{node.lineno} {name}"
                    )
    assert not unused, (
        "module-level imports their module never uses:\n  "
        + "\n  ".join(unused)
    )
