"""Offline unused-import check: the subset of ruff's F401 this repo needs.

Flags every name a module imports and never uses.  A use is any load
of the bound name (``name`` or ``name.attr``) anywhere in the module,
or a name inside a string annotation (``"MachineState"``,
``Optional["Foo"]``).  ``__init__.py`` files are checked like any
module: a package re-exports only the names its ``__all__`` lists.
Skipped: ``from __future__`` imports, star imports, names listed in
``__all__``, and imports on a line marked ``# noqa: F401``.  The check
is module-wide, not scope-aware: a name imported in one function and
loaded in another counts as used.

Usage: python scripts/check_imports.py PATH [PATH ...]
Prints one ``file:line: 'name' imported but unused`` line per finding
and exits 1 if there is any; exits 0 on a clean tree.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Set, Tuple

NOQA = "# noqa: F401"


def _annotations(tree: ast.AST) -> Iterator[ast.expr]:
    """Every annotation expression in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _string_annotation_names(tree: ast.AST) -> Set[str]:
    """Names loaded inside string annotations."""
    names: Set[str] = set()
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names |= _loaded_names(parsed)
    return names


def _loaded_names(tree: ast.AST) -> Set[str]:
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }


def _exported(tree: ast.Module) -> Set[str]:
    """The string entries of a module-level ``__all__``."""
    out: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets) and node.value is not None:
                for elt in ast.walk(node.value):
                    if isinstance(elt, ast.Constant) and isinstance(
                        elt.value, str
                    ):
                        out.add(elt.value)
    return out


def _imports(tree: ast.Module) -> Iterator[Tuple[str, int, int]]:
    """``(bound name, statement line, alias line)`` per imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield bound, node.lineno, alias.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno, alias.lineno


def unused_imports(path: Path) -> List[Tuple[int, str]]:
    """``(line, name)`` of each unused import in the module at ``path``."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used = _loaded_names(tree) | _string_annotation_names(tree)
    used |= _exported(tree)
    out = []
    for name, stmt_line, alias_line in _imports(tree):
        if name in used:
            continue
        if any(NOQA in lines[line - 1] for line in {stmt_line, alias_line}):
            continue
        out.append((alias_line, name))
    return sorted(out)


def _modules(roots: List[str]) -> Iterator[Path]:
    for root in roots:
        path = Path(root)
        yield from [path] if path.is_file() else sorted(path.rglob("*.py"))


def main(argv: List[str]) -> int:
    if not argv:
        print("usage: python scripts/check_imports.py PATH [PATH ...]",
              file=sys.stderr)
        return 2
    found = 0
    for path in _modules(argv):
        for line, name in unused_imports(path):
            print(f"{path}:{line}: {name!r} imported but unused")
            found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
