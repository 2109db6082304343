"""IR pretty-printer, statement paths, and taint annotations.

``dump(program)`` renders the IR as readable pseudo-code;
``dump(program, report=analyze(program))`` marks what the toolchain
will transform: ``!`` on secret registers, ``[linearize]`` on secret
branches, ``[DS: name]`` on secret-indexed accesses.  Used by the
mini-compiler example and handy when writing new IR programs.

Every statement also has a **stable path** — a string like
``body[2].then[0]`` that identifies its position in the program tree.
Unlike ``id(stmt)`` (which is only meaningful within one process and
can alias when the same frozen statement object appears twice), paths
are deterministic across processes and survive serialization, so
diagnostics (:mod:`repro.analysis.ctlint`) can point at exact program
points.  ``statement_paths`` enumerates them in pre-order,
``path_index`` maps ``id(stmt)`` back to the path of its first
occurrence, and ``dump(..., paths=True)`` annotates every rendered
statement with its path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from repro.lang import ir

if TYPE_CHECKING:
    from repro.lang.taint import TaintReport

_INDENT = "    "


# ---------------------------------------------------------------------------
# Stable statement paths
# ---------------------------------------------------------------------------


def _iter_with_paths(body, prefix: str) -> Iterator[Tuple[str, object]]:
    for i, stmt in enumerate(body):
        path = f"{prefix}[{i}]"
        yield path, stmt
        if isinstance(stmt, ir.If):
            yield from _iter_with_paths(stmt.then_body, f"{path}.then")
            yield from _iter_with_paths(stmt.else_body, f"{path}.else")
        elif isinstance(stmt, ir.For):
            yield from _iter_with_paths(stmt.body, f"{path}.body")


def statement_paths(program: ir.Program) -> List[Tuple[str, object]]:
    """``(path, statement)`` pairs in pre-order (deterministic).

    Paths are rooted at ``body`` and index into structured statements
    with ``.then`` / ``.else`` / ``.body`` segments, e.g.
    ``body[0].body[2].then[1]`` is the second statement of the then
    branch of the third statement of the loop opening the program.
    """
    return list(_iter_with_paths(program.body, "body"))


def path_index(program: ir.Program) -> Dict[int, str]:
    """Map ``id(stmt)`` to its stable path (first occurrence wins).

    The inverse direction of :func:`statement_paths`: analysis passes
    that key intermediate results by object identity use this to
    translate them into cross-process-stable locations.  If the same
    (frozen, hence hash-equal) statement *object* is spliced into the
    tree twice, the first pre-order occurrence is reported — the
    location is still a true occurrence of the statement.
    """
    index: Dict[int, str] = {}
    for path, stmt in statement_paths(program):
        index.setdefault(id(stmt), path)
    return index


def statement_at(program: ir.Program, path: str):
    """Return the statement at ``path`` (raises ``KeyError`` if absent)."""
    for candidate, stmt in statement_paths(program):
        if candidate == path:
            return stmt
    raise KeyError(f"no statement at path {path!r} in {program.name!r}")


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _operand(report: Optional[TaintReport], operand: ir.Operand) -> str:
    if isinstance(operand, int):
        return str(operand)
    if report is not None and operand in report.tainted_regs:
        return f"{operand}!"
    return operand


def _access_tag(stmt, report: Optional[TaintReport]) -> str:
    """Annotation for a ``Load``/``Store``: explicit or taint-driven DS."""
    if getattr(stmt, "ds", False):
        return "  [ds]"
    if report is not None and stmt.array in report.secret_indexed_arrays:
        return f"  [DS: {stmt.array}]"
    return ""


def render_stmt(stmt, report: Optional[TaintReport] = None) -> str:
    """One-line rendering of a single statement (no indentation).

    Structured statements render their header only (``if c:`` /
    ``for i in range(n):``) — used for diagnostic snippets.
    """
    return _stmt_lines(stmt, report, 0)[0].strip()


def _stmt_lines(
    stmt,
    report: Optional[TaintReport],
    depth: int,
    path: str = "",
    paths: bool = False,
) -> List[str]:
    pad = _INDENT * depth
    fmt = lambda x: _operand(report, x)  # noqa: E731 - local shorthand
    loc = f"  @{path}" if paths and path else ""

    def _inner(body, sub: str, d: int) -> List[str]:
        lines: List[str] = []
        for i, inner in enumerate(body):
            lines.extend(
                _stmt_lines(inner, report, d, f"{path}.{sub}[{i}]", paths)
            )
        return lines

    if isinstance(stmt, ir.Const):
        return [f"{pad}{fmt(stmt.dst)} = {stmt.value}{loc}"]
    if isinstance(stmt, ir.BinOp):
        return [
            f"{pad}{fmt(stmt.dst)} = {fmt(stmt.a)} {stmt.op} "
            f"{fmt(stmt.b)}{loc}"
        ]
    if isinstance(stmt, ir.Select):
        return [
            f"{pad}{fmt(stmt.dst)} = {fmt(stmt.cond)} ? "
            f"{fmt(stmt.if_true)} : {fmt(stmt.if_false)}{loc}"
        ]
    if isinstance(stmt, ir.Load):
        tag = _access_tag(stmt, report)
        return [
            f"{pad}{fmt(stmt.dst)} = {stmt.array}[{fmt(stmt.index)}]{tag}{loc}"
        ]
    if isinstance(stmt, ir.Store):
        tag = _access_tag(stmt, report)
        return [
            f"{pad}{stmt.array}[{fmt(stmt.index)}] = {fmt(stmt.value)}{tag}{loc}"
        ]
    if isinstance(stmt, ir.If):
        tag = ""
        if report is not None and report.is_secret_branch(stmt):
            tag = "  [linearize]"
        lines = [f"{pad}if {fmt(stmt.cond)}:{tag}{loc}"]
        if stmt.then_body:
            lines.extend(_inner(stmt.then_body, "then", depth + 1))
        else:
            lines.append(f"{pad}{_INDENT}pass")
        if stmt.else_body:
            lines.append(f"{pad}else:")
            lines.extend(_inner(stmt.else_body, "else", depth + 1))
        return lines
    if isinstance(stmt, ir.For):
        lines = [f"{pad}for {stmt.var} in range({fmt(stmt.count)}):{loc}"]
        lines.extend(_inner(stmt.body, "body", depth + 1))
        if not stmt.body:
            lines.append(f"{pad}{_INDENT}pass")
        return lines
    return [f"{pad}<unknown {stmt!r}>"]


def dump(
    program: ir.Program,
    report: Optional[TaintReport] = None,
    paths: bool = False,
) -> str:
    """Render a program (optionally taint-annotated) as pseudo-code.

    ``paths=True`` suffixes every statement with its stable path
    (``@body[1].then[0]``), matching what
    :mod:`repro.analysis.ctlint` findings report.
    """
    lines = [f"program {program.name}:"]
    if program.inputs:
        lines.append(f"{_INDENT}inputs : {', '.join(program.inputs)}")
    if program.secret_inputs:
        secrets = ", ".join(f"{name}!" for name in program.secret_inputs)
        lines.append(f"{_INDENT}secrets: {secrets}")
    for decl in program.arrays:
        mark = "!" if decl.secret else ""
        extra = ""
        if report is not None and decl.name in report.tainted_arrays:
            extra = "  (contents tainted)"
        lines.append(
            f"{_INDENT}array  : {decl.name}{mark}[{decl.size}]{extra}"
        )
    lines.append(f"{_INDENT}body:")
    for i, stmt in enumerate(program.body):
        lines.extend(_stmt_lines(stmt, report, 2, f"body[{i}]", paths))
    if program.outputs:
        lines.append(f"{_INDENT}return {', '.join(program.outputs)}")
    if program.output_arrays:
        lines.append(
            f"{_INDENT}return arrays {', '.join(program.output_arrays)}"
        )
    return "\n".join(lines)
