"""A tiny IR for secret-carrying programs.

The paper integrates its instructions into Constantine [9], an LLVM
pass that *automatically* transforms programs into constant-time form.
This package reproduces that toolchain layer in miniature: programs
are written in a small structured IR, a taint analysis
(:mod:`repro.lang.taint`) finds secret-dependent branches and
accesses, and the executor (:mod:`repro.lang.executor`) runs the
program either natively (insecure) or transformed — control-flow
linearization for tainted branches, data-flow linearization through a
mitigation context for tainted accesses — with no change to the
program text.

IR shape
--------

A :class:`Program` declares scalar *inputs* (each public or secret),
word *arrays* (initial contents supplied at run time), a ``body`` of
statements, and named *outputs*.  Operands are register names
(strings) or integer literals.  Statements:

=================  ====================================================
``Const(d, v)``     d = v
``BinOp(d,op,a,b)`` d = a <op> b   (arith/logic/compare; see OPS)
``Select(d,c,a,b)`` d = c ? a : b  (branchless by construction)
``Load(d,arr,i)``   d = arr[i]
``Store(arr,i,v)``  arr[i] = v
``If(c,then,else)`` structured branch (linearized when c is secret)
``For(v,n,body)``   v = 0..n-1     (n must be public — a secret trip
                    count is a termination channel and is rejected)
=================  ====================================================

The IR is deliberately side-effect-structured (no goto) so that
control-flow linearization is a local transformation, exactly the
subset Constantine's region-based linearization handles best.

``Load``/``Store`` additionally carry a ``ds`` flag: when set, the
access is *explicitly* data-flow linearized — the executor routes it
through the array's registered dataflow linearization set in every
mode, and the symbolic relational checker models it as a constant
observation.  The automatic repair pipeline
(:mod:`repro.analysis.repair`) emits these flags; hand-written
programs normally leave them False and rely on the executor's
taint-driven ``mitigate=True`` routing instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple, Union

from repro.errors import ConfigurationError

Operand = Union[str, int]

#: op name -> (function, instruction cost in ALU ops)
OPS = {
    "add": (lambda a, b: a + b, 1),
    "sub": (lambda a, b: a - b, 1),
    "mul": (lambda a, b: a * b, 3),
    "div": (lambda a, b: a // b if b else 0, 24),
    "mod": (lambda a, b: a % b if b else 0, 24),
    "and": (lambda a, b: a & b, 1),
    "or": (lambda a, b: a | b, 1),
    "xor": (lambda a, b: a ^ b, 1),
    "shl": (lambda a, b: a << b, 1),
    "shr": (lambda a, b: a >> b, 1),
    "lt": (lambda a, b: int(a < b), 1),
    "le": (lambda a, b: int(a <= b), 1),
    "gt": (lambda a, b: int(a > b), 1),
    "ge": (lambda a, b: int(a >= b), 1),
    "eq": (lambda a, b: int(a == b), 1),
    "ne": (lambda a, b: int(a != b), 1),
}


@dataclass(frozen=True)
class Const:
    dst: str
    value: int


@dataclass(frozen=True)
class BinOp:
    dst: str
    op: str
    a: Operand
    b: Operand

    def __post_init__(self):
        if self.op not in OPS:
            raise ConfigurationError(
                f"unknown op {self.op!r}; choices: {sorted(OPS)}"
            )


@dataclass(frozen=True)
class Select:
    dst: str
    cond: Operand
    if_true: Operand
    if_false: Operand


@dataclass(frozen=True)
class Load:
    dst: str
    array: str
    index: Operand
    #: explicit data-flow linearization: route this access through the
    #: array's registered DS in *every* execution mode (the repair
    #: pipeline's output; the executor's mitigate=True routing is
    #: taint-driven and does not need the flag)
    ds: bool = False


@dataclass(frozen=True)
class Store:
    array: str
    index: Operand
    value: Operand
    ds: bool = False


@dataclass(frozen=True)
class If:
    cond: Operand
    then_body: Tuple = ()
    else_body: Tuple = ()


@dataclass(frozen=True)
class For:
    var: str
    count: Operand
    body: Tuple = ()


Statement = Union[Const, BinOp, Select, Load, Store, If, For]


@dataclass(frozen=True)
class ArrayDecl:
    """A word array; ``secret`` marks its *contents* as secret."""

    name: str
    size: int
    secret: bool = False

    def __post_init__(self):
        if self.size <= 0:
            raise ConfigurationError(f"array {self.name!r} size {self.size}")


def _read(operand: Operand, defined: set, program: str) -> None:
    if isinstance(operand, str) and operand not in defined:
        raise ConfigurationError(
            f"program {program!r} reads register {operand!r} before it is "
            "assigned on every path to the read"
        )


def _scan(
    body: Tuple, arrays: set, written: set, defined: set, program: str
) -> None:
    """Walk ``body`` once: collect what it touches, check what it reads.

    ``arrays`` gains the arrays ``body`` accesses and ``written`` every
    register it writes anywhere.  ``defined`` holds the registers
    assigned on every path to the start of ``body`` and ends holding
    those assigned on every path through it: an ``If`` defines what
    both arms define, and a ``For`` body's writes (its variable
    included) outlive the loop only for a positive literal count.
    """
    for stmt in body:
        if isinstance(stmt, If):
            _read(stmt.cond, defined, program)
            then_defined = set(defined)
            else_defined = set(defined)
            _scan(stmt.then_body, arrays, written, then_defined, program)
            _scan(stmt.else_body, arrays, written, else_defined, program)
            defined |= then_defined & else_defined
        elif isinstance(stmt, For):
            _read(stmt.count, defined, program)
            written.add(stmt.var)
            body_defined = defined | {stmt.var}
            _scan(stmt.body, arrays, written, body_defined, program)
            if isinstance(stmt.count, int) and stmt.count > 0:
                defined |= body_defined
        elif isinstance(stmt, Store):
            _read(stmt.index, defined, program)
            _read(stmt.value, defined, program)
            arrays.add(stmt.array)
        elif isinstance(stmt, (Const, BinOp, Select, Load)):
            if isinstance(stmt, BinOp):
                _read(stmt.a, defined, program)
                _read(stmt.b, defined, program)
            elif isinstance(stmt, Select):
                _read(stmt.cond, defined, program)
                _read(stmt.if_true, defined, program)
                _read(stmt.if_false, defined, program)
            elif isinstance(stmt, Load):
                _read(stmt.index, defined, program)
                arrays.add(stmt.array)
            written.add(stmt.dst)
            defined.add(stmt.dst)


@dataclass(frozen=True)
class Program:
    """A complete IR program.

    Construction rejects, with :class:`ConfigurationError`, a
    ``Load``/``Store`` of an undeclared array, an operand register that
    is not assigned on every path to its read, and an output register
    that is neither an input nor written anywhere in the body (the
    executor reads an unwritten output as 0).
    """

    name: str
    inputs: Tuple[str, ...] = ()
    secret_inputs: Tuple[str, ...] = ()
    arrays: Tuple[ArrayDecl, ...] = ()
    body: Tuple = ()
    outputs: Tuple[str, ...] = ()
    output_arrays: Tuple[str, ...] = field(default=())

    def __post_init__(self):
        names = [a.name for a in self.arrays]
        declared = set(names)
        if len(declared) != len(names):
            raise ConfigurationError(f"duplicate array names in {self.name!r}")
        overlap = set(self.inputs) & set(self.secret_inputs)
        if overlap:
            raise ConfigurationError(
                f"inputs {sorted(overlap)} declared both public and secret"
            )
        unknown = set(self.output_arrays) - declared
        if unknown:
            raise ConfigurationError(
                f"output arrays {sorted(unknown)} not declared"
            )
        arrays: set = set()
        written = set(self.all_inputs)
        _scan(self.body, arrays, written, set(written), self.name)
        undeclared = arrays - declared
        if undeclared:
            raise ConfigurationError(
                f"program {self.name!r} accesses undeclared array(s) "
                f"{sorted(undeclared)}"
            )
        unwritten = [name for name in self.outputs if name not in written]
        if unwritten:
            raise ConfigurationError(
                f"program {self.name!r} output(s) {unwritten} are neither "
                "inputs nor written by any statement"
            )

    def array(self, name: str) -> ArrayDecl:
        for decl in self.arrays:
            if decl.name == name:
                return decl
        raise ConfigurationError(f"no array named {name!r}")

    @property
    def all_inputs(self) -> Tuple[str, ...]:
        return self.inputs + self.secret_inputs
