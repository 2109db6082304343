"""The IR executor: native or automatically constant-time-transformed.

One interpreter, two modes:

* ``mitigate=False`` — run the program as written: branches take one
  side, secret-indexed accesses go straight to the cache.  This is the
  insecure baseline.
* ``mitigate=True`` — apply the paper's two transformations on the
  fly, exactly where the taint analysis says they are needed:

  - **control-flow linearization** (Sec. 2.3 rule i): a secret ``If``
    executes *both* sides under a predicate; register writes become
    selects against the old value, stores become predicated
    read-modify-writes, so both paths leave identical footprints;
  - **data-flow linearization** (rule ii): accesses whose index is
    secret (or that execute under a secret predicate) go through the
    mitigation context — software-CT sweeps or the BIA algorithms,
    whichever context the caller supplies.

The program text is identical in both modes; swapping the context
swaps the mitigation — the same experiment design as the paper's
modified-Constantine toolchain.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.ct.context import MitigationContext
from repro.ct.ds import DataflowLinearizationSet
from repro.errors import ProtocolError
from repro.lang import ir
from repro.lang.taint import TaintReport, analyze

MASK32 = 0xFFFFFFFF


class Executor:
    """Run one :class:`~repro.lang.ir.Program` on a mitigation context."""

    def __init__(
        self,
        program: ir.Program,
        ctx: MitigationContext,
        mitigate: bool = True,
    ) -> None:
        self.program = program
        self.ctx = ctx
        self.machine = ctx.machine
        self.mitigate = mitigate
        self.report: TaintReport = analyze(program, strict=mitigate)
        self._regs: Dict[str, int] = {}
        self._bases: Dict[str, int] = {}
        self._sizes: Dict[str, int] = {}
        self._ds: Dict[str, DataflowLinearizationSet] = {}

    # -- plumbing ---------------------------------------------------------------

    def _value(self, operand: ir.Operand) -> int:
        if isinstance(operand, int):
            return operand
        try:
            return self._regs[operand]
        except KeyError:
            raise ProtocolError(
                f"register {operand!r} read before assignment"
            ) from None

    def _is_secret(self, operand: ir.Operand) -> bool:
        return isinstance(operand, str) and operand in self.report.tainted_regs

    def _addr(self, array: str, index: int, dead: bool = False) -> int:
        size = self._sizes[array]
        if not 0 <= index < size:
            if dead:
                # A suppressed (dead-predicate) path may compute garbage
                # indices from registers whose writes were predicated
                # away; real linearized code points such accesses at a
                # decoy location.  Index 0 of the same array keeps the
                # access inside its DS.
                index = 0
            else:
                raise ProtocolError(
                    f"{array}[{index}] out of bounds (size {size})"
                )
        return self._bases[array] + 4 * index

    def _bind_inputs(self, inputs: Dict[str, int]) -> None:
        """Load the input registers (no machine state is touched)."""
        program = self.program
        missing = set(program.all_inputs) - set(inputs)
        if missing:
            raise ProtocolError(f"missing inputs: {sorted(missing)}")
        self._regs = {name: int(inputs[name]) for name in program.all_inputs}

    def _init_arrays(self, arrays: Dict[str, Sequence[int]]) -> None:
        """Allocate, populate and register every declared array.

        This is the machine-state half of setup: every word is stored
        through the cache hierarchy, so the simulated state (and the
        cycle counter) after initialisation is exactly what real
        initialisation code would leave behind.
        """
        for decl in self.program.arrays:
            data = list(arrays.get(decl.name, [0] * decl.size))
            if len(data) != decl.size:
                raise ProtocolError(
                    f"array {decl.name!r} initial data has {len(data)} "
                    f"words, declared {decl.size}"
                )
            base = self.machine.allocator.alloc_words(decl.size, decl.name)
            self._bases[decl.name] = base
            self._sizes[decl.name] = decl.size
            self.ctx.plain_store_words(
                [base + 4 * i for i in range(len(data))],
                [word & MASK32 for word in data],
            )
            self._ds[decl.name] = self.ctx.register_ds(
                base, 4 * decl.size, decl.name
            )

    def _setup(
        self, inputs: Dict[str, int], arrays: Dict[str, Sequence[int]]
    ) -> None:
        self._bind_inputs(inputs)
        self._init_arrays(arrays)

    def _collect_outputs(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            name: self._regs.get(name, 0) for name in self.program.outputs
        }
        for name in self.program.output_arrays:
            base, size = self._bases[name], self._sizes[name]
            out[name] = [
                self.machine.memory.read_word(base + 4 * i)
                for i in range(size)
            ]
        return out

    # -- execution -----------------------------------------------------------------

    def run(
        self,
        inputs: Dict[str, int],
        arrays: Optional[Dict[str, Sequence[int]]] = None,
    ) -> Dict[str, object]:
        """Execute; returns ``{output: value}`` (+ output arrays)."""
        self._setup(inputs, arrays or {})
        self._walk(self.program.body, pred=None)
        return self._collect_outputs()

    def _walk(self, body: Tuple, pred: Optional[bool]) -> None:
        for stmt in body:
            self._exec(stmt, pred)

    def _assign(self, dst: str, value: int, pred: Optional[bool]) -> None:
        """Register write, predicated under linearized control flow."""
        value &= MASK32
        if pred is None:
            self._regs[dst] = value
        else:
            self.machine.execute(1)  # the cmov
            old = self._regs.get(dst, 0)
            self._regs[dst] = value if pred else old

    def _exec(self, stmt, pred: Optional[bool]) -> None:
        machine = self.machine
        if isinstance(stmt, ir.Const):
            machine.execute(1)
            self._assign(stmt.dst, stmt.value, pred)
        elif isinstance(stmt, ir.BinOp):
            fn, cost = ir.OPS[stmt.op]
            machine.execute(cost)
            self._assign(
                stmt.dst, fn(self._value(stmt.a), self._value(stmt.b)), pred
            )
        elif isinstance(stmt, ir.Select):
            machine.execute(1)
            picked = (
                self._value(stmt.if_true)
                if self._value(stmt.cond)
                else self._value(stmt.if_false)
            )
            self._assign(stmt.dst, picked, pred)
        elif isinstance(stmt, ir.Load):
            self._exec_load(stmt, pred)
        elif isinstance(stmt, ir.Store):
            self._exec_store(stmt, pred)
        elif isinstance(stmt, ir.If):
            self._exec_if(stmt, pred)
        elif isinstance(stmt, ir.For):
            count = self._value(stmt.count)
            for i in range(count):
                machine.execute(2)  # loop control
                self._regs[stmt.var] = i
                self._walk(stmt.body, pred)
        else:  # pragma: no cover - exhaustive over the IR
            raise ProtocolError(f"unknown statement {stmt!r}")

    def _secure_access(self, stmt, pred: Optional[bool]) -> bool:
        """Does this access need data-flow linearization?

        An explicit ``ds`` flag (the repair pipeline's output) routes
        the access through its DS in *every* mode; otherwise routing is
        the mitigated-mode taint rule.
        """
        if stmt.ds:
            return True
        return self.mitigate and (
            self._is_secret(stmt.index) or pred is not None
        )

    def _exec_load(self, stmt: ir.Load, pred: Optional[bool]) -> None:
        machine = self.machine
        machine.execute(1)  # address generation
        index = self._value(stmt.index)
        addr = self._addr(stmt.array, index, dead=pred is False)
        if self._secure_access(stmt, pred):
            value = self.ctx.load(self._ds[stmt.array], addr)
        else:
            value = machine.load_word(addr)
        self._assign(stmt.dst, value, pred)

    def _exec_store(self, stmt: ir.Store, pred: Optional[bool]) -> None:
        machine = self.machine
        machine.execute(1)  # address generation
        index = self._value(stmt.index)
        addr = self._addr(stmt.array, index, dead=pred is False)
        value = self._value(stmt.value) & MASK32
        if self._secure_access(stmt, pred):
            if pred is None:
                self.ctx.store(self._ds[stmt.array], addr, value)
            else:
                # predicated store: commit value only if the (secret)
                # predicate holds, with a footprint identical either way
                self.ctx.rmw(
                    self._ds[stmt.array],
                    addr,
                    lambda cur, v=value, p=pred: v if p else cur,
                )
        else:
            machine.store_word(addr, value)

    def _exec_if(self, stmt: ir.If, pred: Optional[bool]) -> None:
        cond = bool(self._value(stmt.cond))
        linearize = self.mitigate and self.report.is_secret_branch(stmt)
        if not linearize:
            self.machine.execute(1)  # the branch
            self._walk(stmt.then_body if cond else stmt.else_body, pred)
            return
        # Control-flow linearization: run BOTH sides; the taken
        # predicate folds into the enclosing one (Sec. 2.3's Merge).
        self.machine.execute(2)  # predicate materialization
        base = True if pred is None else pred
        self._walk(stmt.then_body, base and cond)
        self._walk(stmt.else_body, base and not cond)


def run_program(
    program: ir.Program,
    ctx: MitigationContext,
    inputs: Dict[str, int],
    arrays: Optional[Dict[str, Sequence[int]]] = None,
    mitigate: bool = True,
) -> Dict[str, object]:
    """One-shot convenience wrapper around :class:`Executor`."""
    return Executor(program, ctx, mitigate=mitigate).run(inputs, arrays)


class WarmStart:
    """Array setup split from the run that follows it — cycle-exact.

    Array initialisation stores every word through the full cache
    hierarchy.  A template executes those stores on its context's
    machine; :meth:`resume` then runs a program on that context (the
    sanitizer's warm-up, one template per secret, so the setup stays
    out of the observation window), binding the input registers per
    run (they never touch the machine).  :meth:`run` instead continues
    from a :meth:`~repro.ct.context.MitigationContext.fork` of the
    template, which preserves the machine's exact state *and counters*;
    nothing in the package calls it since rebuilding per run measured
    faster (EXPERIMENTS.md), and it stays while perfbench's tracer
    wraps it.

    The program run after the setup may differ from the template's as
    long as it declares the same arrays.
    """

    def __init__(
        self,
        program: ir.Program,
        ctx: MitigationContext,
        arrays: Optional[Dict[str, Sequence[int]]] = None,
        mitigate: bool = True,
    ) -> None:
        self.program = program
        self.mitigate = mitigate
        self._ctx = ctx
        warmer = Executor(program, ctx, mitigate=mitigate)
        warmer._init_arrays(arrays or {})
        self._bases = warmer._bases
        self._sizes = warmer._sizes
        self._ds = warmer._ds

    def resume(
        self,
        ctx: MitigationContext,
        inputs: Dict[str, int],
        program: Optional[ir.Program] = None,
        mitigate: Optional[bool] = None,
    ) -> Dict[str, object]:
        """Execute on ``ctx``: the template's own context (the
        sanitizer's warm-up, one template per secret) or a fork of it."""
        program = program or self.program
        if program.arrays != self.program.arrays:
            raise ProtocolError(
                f"program {program.name!r} declares different arrays "
                f"than the warmed template {self.program.name!r}"
            )
        executor = Executor(
            program,
            ctx,
            mitigate=self.mitigate if mitigate is None else mitigate,
        )
        executor._bases = dict(self._bases)
        executor._sizes = dict(self._sizes)
        executor._ds = dict(self._ds)
        executor._bind_inputs(inputs)
        executor._walk(program.body, pred=None)
        return executor._collect_outputs()

    def run(
        self,
        inputs: Dict[str, int],
        program: Optional[ir.Program] = None,
        mitigate: Optional[bool] = None,
    ) -> Tuple[MitigationContext, Dict[str, object]]:
        """Fork the template and execute; returns ``(fork, outputs)``."""
        ctx = self._ctx.fork()
        return ctx, self.resume(ctx, inputs, program, mitigate)
