"""Unused-import check over the package, its tests and its benchmarks,
with the standard library only.

    python tests/test_lint.py [PATH ...]
        (default: src/repro, tests and benchmarks)

prints ``file:line: 'name' imported but unused`` for each finding and
exits 1 if there is any.  An import counts as used when its bound name
appears as a name anywhere in the module -- in code, in a string
annotation, or in a docstring's doctest examples (which run in the
module's globals) -- or is listed in ``__all__``.  Imports in an
``__init__.py`` are the package's re-exports and always count.
"""

from __future__ import annotations

import ast
import doctest
import os
import sys
from pathlib import Path
from typing import Iterable, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: What ``make lint`` and the tier-1 tests check (``perfbench/`` is not).
LINTED = (ROOT / "src" / "repro", ROOT / "tests", ROOT / "benchmarks")


def _bindings(tree: ast.AST) -> Iterator[Tuple[str, int]]:
    """(bound name, line) for every import statement in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0],
                       node.lineno)
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _names_in_source(source: str) -> Set[str]:
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return set()
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _annotation_strings(tree: ast.AST) -> Iterator[str]:
    annotations: List[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for inner in ast.walk(annotation):
            if isinstance(inner, ast.Constant) \
                    and isinstance(inner.value, str):
                yield inner.value


def _used_names(tree: ast.AST) -> Set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for text in _annotation_strings(tree):
        used |= _names_in_source(text)
    parser = doctest.DocTestParser()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and ">>>" in node.value:
            for example in parser.get_examples(node.value):
                used |= _names_in_source(example.source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used |= {element.value for element in ast.walk(node.value)
                     if isinstance(element, ast.Constant)
                     and isinstance(element.value, str)}
    return used


def unused_imports(path: Path) -> List[Tuple[int, str]]:
    """(line, name) of every import in ``path`` that nothing uses."""
    if path.name == "__init__.py":
        return []
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used_names(tree)
    return sorted({(line, name) for name, line in _bindings(tree)
                   if name not in used})


def findings(roots: Iterable[Path]) -> List[str]:
    found = []
    for root in roots:
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        for path in files:
            for line, name in unused_imports(path):
                found.append("%s:%d: %r imported but unused"
                             % (os.path.relpath(path, ROOT), line, name))
    return found


def test_package_has_no_unused_imports():
    assert findings([ROOT / "src" / "repro"]) == []


def test_tests_and_benchmarks_have_no_unused_imports():
    assert findings([ROOT / "tests", ROOT / "benchmarks"]) == []


def test_checker_sees_every_kind_of_use(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "import os\n"
        "import os.path as osp\n"
        "from typing import Dict, List, Optional\n"
        "from collections import OrderedDict, deque\n"
        "from json import dumps\n"
        "__all__ = ['dumps']\n"
        "def f(x: 'Optional[int]') -> Dict:\n"
        "    '''\n"
        "    >>> deque([1])\n"
        "    deque([1])\n"
        "    '''\n"
        "    return os.getcwd()\n")
    assert unused_imports(module) == [(2, "osp"), (3, "List"),
                                      (4, "OrderedDict")]
    package = tmp_path / "__init__.py"
    package.write_text("from json import loads\n")
    assert unused_imports(package) == []


def main(argv: List[str]) -> int:
    roots = [Path(arg).resolve() for arg in argv] or list(LINTED)
    found = findings(roots)
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
