"""Interval (value-range) abstract interpretation over the mini-IR.

The silent-leak case the paper's hardware cannot repair is a *dataflow
linearization set that is too small*: Algorithms 2/3 sweep exactly the
registered DS, so a secret-indexed access that can reach a line outside
it bypasses the mitigation entirely (the runtime raises
``ProtocolError``, but only on the secret input that actually escapes —
precisely the input an attacker supplies).  This module proves the
property *statically*: a classic interval domain with widening bounds
every ``Load``/``Store`` index, and :func:`prove_ds_covers` checks the
reachable address range of an access against a concrete
:class:`~repro.ct.ds.DataflowLinearizationSet`.

Abstraction
-----------

* Registers hold intervals ``[lo, hi]`` with ``±inf`` endpoints;
  program inputs are unbounded (``TOP``) — soundness never assumes
  anything about what a caller passes in.
* The executor masks every register write to 32 bits
  (``& 0xFFFFFFFF``), so transfer results escaping ``[0, 2**32 - 1]``
  are widened to exactly that range (sound and much more precise than
  ``TOP`` for wrap-around cases).
* Array *contents* are 32-bit words (stores are masked), so loads
  evaluate to ``[0, 2**32 - 1]`` regardless of index.
* ``If`` joins both branch post-states (no path pruning), ``For``
  iterates its body to a fixpoint, widening after
  :data:`WIDEN_DELAY` rounds so nested loops terminate.

The analysis is deliberately small: modulus/division by a positive
bound and loop counters are what the shipped programs use to stay in
bounds, and those transfer functions are exact here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import params
from repro.ct.ds import DataflowLinearizationSet
from repro.lang import ir
from repro.lang.pretty import path_index

INF = math.inf
MASK32 = 0xFFFFFFFF
#: Register width: a shift amount of this or more bounds nothing useful,
#: so the shift transfers treat it as unbounded instead of building
#: ``2 ** amount`` (about 512 MiB for an amount near ``2 ** 32``).
WORD_BITS = 32

#: Plain joins before widening kicks in (precision/termination knob).
WIDEN_DELAY = 3

#: Hard cap on loop fixpoint rounds; hitting it forces a widen-to-top
#: step, so analysis terminates on any program.
MAX_LOOP_ITERS = 24

#: Refuse to enumerate DS lines for wider index ranges than this
#: (coverage is then reported unproven rather than looping forever).
MAX_COVERAGE_LINES = 1 << 16


# ---------------------------------------------------------------------------
# The domain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """A closed integer interval ``[lo, hi]`` (endpoints may be ±inf)."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:  # pragma: no cover - constructor guard
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def top() -> "Interval":
        return Interval(-INF, INF)

    @staticmethod
    def const(v: int) -> "Interval":
        return Interval(v, v)

    @staticmethod
    def word() -> "Interval":
        """Any 32-bit word (array contents, masked register writes)."""
        return Interval(0, MASK32)

    # -- queries -----------------------------------------------------------

    @property
    def is_bounded(self) -> bool:
        return self.lo > -INF and self.hi < INF

    @property
    def is_const(self) -> bool:
        return self.lo == self.hi

    def contains(self, v: int) -> bool:
        return self.lo <= v <= self.hi

    def within(self, lo: int, hi: int) -> bool:
        """Is the whole interval inside ``[lo, hi]``?"""
        return self.lo >= lo and self.hi <= hi

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        lo = "-inf" if self.lo == -INF else str(int(self.lo))
        hi = "+inf" if self.hi == INF else str(int(self.hi))
        return f"[{lo}, {hi}]"

    # -- lattice operations ------------------------------------------------

    def join(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def widen(self, newer: "Interval") -> "Interval":
        """Standard interval widening: jump unstable bounds to ±inf."""
        lo = self.lo if newer.lo >= self.lo else -INF
        hi = self.hi if newer.hi <= self.hi else INF
        return Interval(lo, hi)

    # -- masking -----------------------------------------------------------

    def masked(self) -> "Interval":
        """The abstraction of ``value & 0xFFFFFFFF``.

        Exact when the interval already sits inside the 32-bit range;
        anything that can wrap collapses to the full word range.
        """
        if self.within(0, MASK32):
            return self
        return Interval.word()


def _mul_bound(a: float, b: float) -> float:
    """``a * b`` with the convention ``±inf * 0 == 0`` (interval-safe)."""
    if a == 0 or b == 0:
        return 0
    return a * b


def _binop_interval(op: str, a: Interval, b: Interval) -> Interval:
    """Transfer function for :data:`repro.lang.ir.OPS` (pre-masking)."""
    if op == "add":
        return Interval(a.lo + b.lo, a.hi + b.hi)
    if op == "sub":
        return Interval(a.lo - b.hi, a.hi - b.lo)
    if op == "mul":
        corners = [
            _mul_bound(x, y) for x in (a.lo, a.hi) for y in (b.lo, b.hi)
        ]
        return Interval(min(corners), max(corners))
    if op == "mod":
        # Python: a % b in [0, b-1] for b > 0, any a.  OPS maps b == 0
        # to 0, which the [0, b-1] bound absorbs.  Negative moduli give
        # negative results — fall back to TOP for soundness.
        if b.lo >= 0 and b.hi < INF:
            if b.hi <= 0:
                return Interval.const(0)  # only b == 0 possible -> 0
            return Interval(0, b.hi - 1)
        return Interval.top()
    if op == "div":
        # Floor division; OPS maps b == 0 to 0.  Positive divisors
        # keep monotonicity: extremes at the operand corners.
        if b.lo >= 1:
            corners = []
            for x in (a.lo, a.hi):
                for y in (b.lo, b.hi):
                    if x in (-INF, INF):
                        corners.append(x if y != INF else (0 if x > 0 else x))
                    elif y == INF:
                        corners.append(0 if x >= 0 else -1)
                    else:
                        corners.append(x // y)
            return Interval(min(corners), max(corners))
        if b.lo >= 0 and b.hi == 0:
            return Interval.const(0)  # only b == 0 possible
        return Interval.top()
    if op in ("lt", "le", "gt", "ge", "eq", "ne"):
        return Interval(0, 1)
    if op == "and":
        # For any integer x and non-negative m, ``x & m`` lies in
        # [0, m] (two's-complement sign extension only clears bits of
        # m) — so one non-negative operand already bounds the result.
        bounds = [x.hi for x in (a, b) if x.lo >= 0]
        if bounds:
            return Interval(0, min(bounds))
        return Interval.top()
    if op in ("or", "xor"):
        # Non-negative |/^ cannot exceed the next power of two above
        # both operands' maxima.
        if a.lo >= 0 and b.lo >= 0:
            if a.hi == INF or b.hi == INF:
                return Interval(0, INF)
            bits = max(int(a.hi), int(b.hi)).bit_length()
            return Interval(0, (1 << bits) - 1)
        return Interval.top()
    if op == "shl":
        if b.lo >= 0 and b.hi < WORD_BITS:
            lo = min(
                _mul_bound(a.lo, 2 ** int(b.lo)),
                _mul_bound(a.lo, 2 ** int(b.hi)),
            )
            hi = max(
                _mul_bound(a.hi, 2 ** int(b.lo)),
                _mul_bound(a.hi, 2 ** int(b.hi)),
            )
            return Interval(lo, hi)
        return Interval.top()
    if op == "shr":
        if b.lo >= 0:
            # A right shift is floor division by ``2 ** b``.  Amounts of
            # WORD_BITS or more leave the divisor unbounded above, and
            # ``2 ** WORD_BITS`` still bounds it below.
            return _binop_interval(
                "div",
                a,
                Interval(
                    2 ** int(min(b.lo, WORD_BITS)),
                    INF if b.hi >= WORD_BITS else 2 ** int(b.hi),
                ),
            )
        return Interval.top()
    return Interval.top()  # pragma: no cover - exhaustive over OPS


# ---------------------------------------------------------------------------
# The abstract interpreter
# ---------------------------------------------------------------------------

Env = Dict[str, Interval]


@dataclass
class IntervalReport:
    """Result of :func:`analyze_intervals`.

    ``access_intervals`` maps ``id(stmt)`` of every ``Load``/``Store``
    to the join of its index interval over all abstract visits;
    ``access_paths`` carries the stable path for each (for
    diagnostics); ``final_env`` is the register environment at program
    exit; ``for_count_intervals`` maps ``id(stmt)`` of every ``For``
    to the bound on its trip count (the symbolic checker reads these
    as unroll limits for loops with non-constant counts).
    """

    program: ir.Program
    access_intervals: Dict[int, Interval]
    access_paths: Dict[int, str]
    final_env: Env
    for_count_intervals: Dict[int, Interval] = field(default_factory=dict)

    def trip_count_interval(self, stmt) -> Interval:
        """The trip-count bound of one ``For`` statement."""
        try:
            return self.for_count_intervals[id(stmt)]
        except KeyError:
            raise KeyError(
                f"statement {stmt!r} is not an analyzed loop of "
                f"{self.program.name!r}"
            ) from None

    def index_interval(self, stmt) -> Interval:
        """The index bound of one ``Load``/``Store`` statement."""
        try:
            return self.access_intervals[id(stmt)]
        except KeyError:
            raise KeyError(
                f"statement {stmt!r} is not an analyzed access of "
                f"{self.program.name!r}"
            ) from None

    def accesses(self) -> List[Tuple[str, object, Interval]]:
        """``(path, stmt, interval)`` for every access, in path order."""
        by_id = {}
        for path, stmt in _walk_accesses(self.program):
            if id(stmt) in self.access_intervals:
                by_id.setdefault(id(stmt), (path, stmt))
        return [
            (path, stmt, self.access_intervals[id(stmt)])
            for path, stmt in by_id.values()
        ]


def _walk_accesses(program: ir.Program):
    from repro.lang.pretty import statement_paths

    for path, stmt in statement_paths(program):
        if isinstance(stmt, (ir.Load, ir.Store)):
            yield path, stmt


class _Interpreter:
    def __init__(self, program: ir.Program) -> None:
        self.program = program
        self.accesses: Dict[int, Interval] = {}
        self.for_counts: Dict[int, Interval] = {}

    # -- operand evaluation ------------------------------------------------

    @staticmethod
    def _value(env: Env, operand: ir.Operand) -> Interval:
        if isinstance(operand, int):
            return Interval.const(operand)
        return env.get(operand, Interval.top())

    # -- env lattice helpers -----------------------------------------------

    @staticmethod
    def _join_env(a: Env, b: Env) -> Env:
        out: Env = {}
        for key in set(a) | set(b):
            ia, ib = a.get(key), b.get(key)
            if ia is None or ib is None:
                # A register defined on only one path may hold *any*
                # prior value on the other (reading undefined registers
                # is a runtime error anyway) — keep the defined bound
                # joined with nothing, i.e. the defined one, only if
                # both agree; otherwise drop to the join with TOP-free
                # behaviour: use the defined interval (sound for the
                # paths where the read is legal).
                out[key] = ia if ia is not None else ib
            else:
                out[key] = ia.join(ib)
        return out

    @staticmethod
    def _widen_env(older: Env, newer: Env) -> Env:
        out: Env = {}
        for key in set(older) | set(newer):
            io, iw = older.get(key), newer.get(key)
            if io is None:
                out[key] = iw
            elif iw is None:
                out[key] = io
            else:
                out[key] = io.widen(iw)
        return out

    # -- statement transfer ------------------------------------------------

    def _record_access(self, stmt, index: Interval) -> None:
        prev = self.accesses.get(id(stmt))
        self.accesses[id(stmt)] = index if prev is None else prev.join(index)

    def _exec(self, stmt, env: Env) -> Env:
        if isinstance(stmt, ir.Const):
            env[stmt.dst] = Interval.const(stmt.value).masked()
        elif isinstance(stmt, ir.BinOp):
            result = _binop_interval(
                stmt.op, self._value(env, stmt.a), self._value(env, stmt.b)
            )
            env[stmt.dst] = result.masked()
        elif isinstance(stmt, ir.Select):
            picked = self._value(env, stmt.if_true).join(
                self._value(env, stmt.if_false)
            )
            env[stmt.dst] = picked.masked()
        elif isinstance(stmt, ir.Load):
            self._record_access(stmt, self._value(env, stmt.index))
            env[stmt.dst] = Interval.word()
        elif isinstance(stmt, ir.Store):
            self._record_access(stmt, self._value(env, stmt.index))
        elif isinstance(stmt, ir.If):
            then_env = self._walk(stmt.then_body, dict(env))
            else_env = self._walk(stmt.else_body, dict(env))
            merged = self._join_env(then_env, else_env)
            env.clear()
            env.update(merged)
        elif isinstance(stmt, ir.For):
            self._exec_for(stmt, env)
        return env

    def _walk(self, body: Tuple, env: Env) -> Env:
        for stmt in body:
            env = self._exec(stmt, env)
        return env

    def _exec_for(self, stmt: ir.For, env: Env) -> None:
        count = self._value(env, stmt.count)
        prev = self.for_counts.get(id(stmt))
        self.for_counts[id(stmt)] = (
            count if prev is None else prev.join(count)
        )
        if count.hi <= 0:
            # The loop can only run zero times; var untouched.
            return
        var_iv = Interval(0, count.hi - 1)
        # Fixpoint over the loop body: ``state`` abstracts the
        # environment at the loop head over *all* iterations seen so
        # far (including zero iterations, so the post-state join is
        # the plain exit state).
        state = dict(env)
        for round_no in range(MAX_LOOP_ITERS):
            body_env = dict(state)
            body_env[stmt.var] = var_iv
            out_env = self._walk(stmt.body, body_env)
            merged = self._join_env(state, out_env)
            if merged == state:
                break
            if round_no >= WIDEN_DELAY:
                state = self._widen_env(state, merged)
            else:
                state = merged
        else:  # pragma: no cover - widening converges first in practice
            state = {k: Interval.top() for k in state}
        # One more body pass from the stable head state so access
        # intervals are recorded against the post-fixpoint bounds.
        body_env = dict(state)
        body_env[stmt.var] = var_iv
        self._walk(stmt.body, body_env)
        env.clear()
        env.update(state)
        # After the loop the counter holds its last value (or is
        # absent when count == 0); keep it bounded by the trip range
        # joined with any prior binding.
        prior = state.get(stmt.var)
        env[stmt.var] = var_iv if prior is None else var_iv.join(prior)

    def run(self) -> IntervalReport:
        env: Env = {
            name: Interval.top() for name in self.program.all_inputs
        }
        final_env = self._walk(self.program.body, env)
        return IntervalReport(
            program=self.program,
            access_intervals=dict(self.accesses),
            access_paths={
                sid: path
                for sid, path in path_index(self.program).items()
                if sid in self.accesses
            },
            final_env=final_env,
            for_count_intervals=dict(self.for_counts),
        )


def analyze_intervals(program: ir.Program) -> IntervalReport:
    """Bound every register and access index of ``program``."""
    return _Interpreter(program).run()


# ---------------------------------------------------------------------------
# DS coverage proofs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverageProof:
    """Outcome of :func:`prove_ds_covers` (truthy iff proven covered)."""

    covered: bool
    index_interval: Interval
    #: first few line base addresses the access can reach but the DS
    #: does not contain (empty when covered or unproven-by-width)
    missing_lines: Tuple[int, ...]
    reason: str

    def __bool__(self) -> bool:
        return self.covered


def prove_ds_covers(
    program: ir.Program,
    access,
    ds: DataflowLinearizationSet,
    base: int = 0,
    report: Optional[IntervalReport] = None,
    word_size: int = params.WORD_SIZE,
) -> CoverageProof:
    """Prove that ``ds`` covers every address ``access`` can touch.

    ``access`` is a ``Load``/``Store`` statement of ``program`` (or its
    stable path string); ``base`` is the byte address the accessed
    array is (or would be) allocated at, mirroring how the executor
    registers ``DataflowLinearizationSet.from_range(base, 4 * size)``.
    Returns a :class:`CoverageProof`; ``covered=False`` either names
    the concrete missing lines (the silent-leak case Algorithms 2/3
    cannot repair) or explains why the bound was too weak to decide.
    """
    if isinstance(access, str):
        from repro.lang.pretty import statement_at

        access = statement_at(program, access)
    if not isinstance(access, (ir.Load, ir.Store)):
        raise TypeError(f"access must be a Load/Store, got {access!r}")
    if report is None:
        report = analyze_intervals(program)
    interval = report.index_interval(access)
    if not interval.is_bounded:
        return CoverageProof(
            False,
            interval,
            (),
            f"index interval {interval} is unbounded; coverage unprovable",
        )
    lo, hi = int(interval.lo), int(interval.hi)
    first = base + word_size * lo
    last = base + word_size * hi + (word_size - 1)
    n_lines = (last // params.LINE_SIZE) - (first // params.LINE_SIZE) + 1
    if n_lines > MAX_COVERAGE_LINES:
        return CoverageProof(
            False,
            interval,
            (),
            f"index interval {interval} spans {n_lines} lines "
            f"(> {MAX_COVERAGE_LINES}); coverage unprovable",
        )
    missing: List[int] = []
    line = (first // params.LINE_SIZE) * params.LINE_SIZE
    while line <= last:
        if line not in ds:
            missing.append(line)
            if len(missing) >= 8:
                break
        line += params.LINE_SIZE
    if missing:
        return CoverageProof(
            False,
            interval,
            tuple(missing),
            f"index interval {interval} reaches "
            f"{len(missing)}{'+' if len(missing) >= 8 else ''} line(s) "
            f"outside DS {ds.name!r}",
        )
    return CoverageProof(
        True, interval, (), f"index interval {interval} covered by DS"
    )
