"""Lockstep relational path exploration with speculative semantics.

One explorer runs *two* symbolic executions of the same program at
once: public inputs are shared terms, secret inputs (and secret array
contents) are paired ``@A``/``@B`` variables.  Both executions follow
the same path (Binsec/Rel-style self-composition): at every branch the
condition *pair* is first emitted as an observation — if the solver
finds secrets making the two directions differ, that is already the
leak — and exploration then forks on the shared direction.

Leakage model
-------------

What the attacker of this repo's threat model sees (Sec. 2.4: a
line-granularity cache observer plus the timing channel):

========================  =============================================
``Load`` / ``Store``      the accessed **cache line** (``addr >> 6``
                          with the executor's concrete page-aligned
                          array bases), unless the access is DS-routed
``If``                    the branch **direction** (native branches
                          execute one side; which one is visible in
                          time and footprint)
DS-routed access          a constant: Algorithms 2/3 sweep the whole
                          registered DS, so the observable footprint
                          is the same for every secret by construction
========================  =============================================

``mitigate=True`` models the executor's transformed semantics: secret
branches are *linearized* (both sides execute, register writes merge
through ``ite`` — no branch, no observation, no fork) and accesses
with a secret index or under a secret predicate are DS-routed, exactly
the :class:`repro.lang.executor.Executor` rules.  ``mitigate=False``
is the insecure native semantics where every observable leaks.

Speculation
-----------

With ``spec_window > 0`` every *architectural* branch additionally
explores its mispredicted direction transiently for up to
``spec_window`` statements (a one-misprediction transient-execution
model): the transient walk runs on a scratch copy of the state, its
memory observations are checked under the path condition *without*
the branch constraint (a mispredict happens regardless of the real
direction), and its effects are squashed.  A program whose sequential
observations all prove equal but whose transient ones do not is
speculatively unsafe — the Spectre-era gap between sequential and
speculative constant-time.

Loops unroll to their concrete trip count; symbolic trip counts fall
back to the interval analysis' trip-count facts
(:attr:`repro.analysis.intervals.IntervalReport.for_count_intervals`)
with a per-iteration exit guard, and anything unbounded truncates the
exploration (the result is then at best *unknown*, never a false
proof).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import params
from repro.analysis.intervals import IntervalReport, analyze_intervals
from repro.analysis.symrel import expr
from repro.analysis.symrel.expr import ArrayState, Term
from repro.analysis.symrel.solve import CheckOutcome, Solver
from repro.errors import ProtocolError
from repro.lang import ir
from repro.lang.pretty import path_index
from repro.lang.taint import TaintReport, analyze

#: Abandon exploration beyond this many complete paths (result is then
#: "bounded": no refutation found does not count as a proof).
MAX_PATHS = 128

#: Unroll bound for loops whose trip count is symbolic but bounded.
MAX_UNROLL = 64

#: Total symbolic statement budget across all paths.
MAX_STEPS = 200_000


@dataclass(frozen=True)
class Observation:
    """One attacker observable, as a term pair plus provenance."""

    kind: str  # "addr" | "branch"
    a: Term
    b: Term
    stmt_path: str
    speculative: bool = False

    def describe(self) -> str:
        tag = "transient " if self.speculative else ""
        return f"{tag}{self.kind} observation at {self.stmt_path}"


@dataclass
class Refutation:
    """A solver model that distinguishes the two executions."""

    observation: Observation
    outcome: CheckOutcome


@dataclass
class ExplorationResult:
    """Everything one relational exploration produced."""

    program: str
    mitigate: bool
    spec_window: int
    #: sequential refutation (None if none found)
    refutation: Optional[Refutation] = None
    #: speculative-only refutation (None if none found)
    spec_refutation: Optional[Refutation] = None
    #: True iff every path completed and every sequential observation
    #: was *proved* equal (no unknowns, no truncation)
    complete: bool = True
    #: True iff additionally every transient observation proved equal
    spec_complete: bool = True
    truncated: List[str] = field(default_factory=list)
    #: the observations the solver could neither prove nor refute, in
    #: check order; the repair driver localizes from these
    unknown_obs: List[Observation] = field(default_factory=list)
    paths: int = 0
    steps: int = 0
    observations_checked: int = 0

    @property
    def proved(self) -> bool:
        return self.refutation is None and self.complete

    @property
    def spec_proved(self) -> bool:
        return (
            self.proved
            and self.spec_refutation is None
            and self.spec_complete
        )


def array_bases(program: ir.Program, base: int = 0x10000) -> Dict[str, int]:
    """Concrete array base addresses, mirroring the executor's setup.

    :class:`repro.memory.backing.Allocator` is a page-aligned bump
    allocator and :meth:`repro.lang.executor.Executor._setup` allocates
    arrays in declaration order, so the addresses every run will use
    are statically known.  ``tests/analysis/test_symrel.py`` pins this
    mirror against a real machine.
    """
    bases: Dict[str, int] = {}
    nxt = base
    for decl in program.arrays:
        bases[decl.name] = nxt
        pages = -(-(decl.size * params.WORD_SIZE) // params.PAGE_SIZE)
        nxt += pages * params.PAGE_SIZE
    return bases


class _PathBudgetExceeded(Exception):
    pass


@dataclass
class _State:
    """The paired symbolic machine state along one path."""

    regs: Tuple[Dict[str, Term], Dict[str, Term]]
    arrays: Tuple[Dict[str, ArrayState], Dict[str, ArrayState]]
    path: Tuple[Term, ...]

    def copy(self) -> "_State":
        return _State(
            regs=(dict(self.regs[0]), dict(self.regs[1])),
            arrays=(dict(self.arrays[0]), dict(self.arrays[1])),
            path=self.path,
        )


class RelationalExplorer:
    """Explore one program relationally; check observations eagerly."""

    def __init__(
        self,
        program: ir.Program,
        mitigate: bool,
        solver: Optional[Solver] = None,
        spec_window: int = 0,
        intervals: Optional[IntervalReport] = None,
        taint: Optional[TaintReport] = None,
        max_paths: int = MAX_PATHS,
        max_steps: int = MAX_STEPS,
    ) -> None:
        self.program = program
        self.mitigate = mitigate
        self.solver = solver or Solver()
        self.spec_window = spec_window
        self.max_paths = max_paths
        self.max_steps = max_steps
        # Mitigated mode transforms where taint says to; native mode
        # keeps taint=None so nothing is linearized implicitly.  A
        # caller with precomputed facts passes them in to avoid
        # re-walking the program (the ctcheck fact-sharing path).
        self.taint: Optional[TaintReport] = (
            (taint or analyze(program, strict=False)) if mitigate else None
        )
        self.intervals = intervals or analyze_intervals(program)
        self.bases = array_bases(program)
        self.sizes = {d.name: d.size for d in program.arrays}
        self.paths_of = path_index(program)
        self.result = ExplorationResult(
            program=program.name,
            mitigate=mitigate,
            spec_window=spec_window,
        )

    # -- plumbing ----------------------------------------------------------

    def _initial_state(self) -> _State:
        regs_a: Dict[str, Term] = {}
        regs_b: Dict[str, Term] = {}
        for name in self.program.inputs:
            shared = expr.var(name)
            regs_a[name] = shared
            regs_b[name] = shared
        for name in self.program.secret_inputs:
            regs_a[name] = expr.var(name, side="A")
            regs_b[name] = expr.var(name, side="B")
        arrays_a: Dict[str, ArrayState] = {}
        arrays_b: Dict[str, ArrayState] = {}
        for decl in self.program.arrays:
            if decl.secret:
                arrays_a[decl.name] = expr.array_init(
                    decl.name, "A", decl.size
                )
                arrays_b[decl.name] = expr.array_init(
                    decl.name, "B", decl.size
                )
            else:
                shared_state = expr.array_init(decl.name, None, decl.size)
                arrays_a[decl.name] = shared_state
                arrays_b[decl.name] = shared_state
        return _State(
            regs=(regs_a, regs_b), arrays=(arrays_a, arrays_b), path=()
        )

    def _value(self, state: _State, side: int, operand: ir.Operand) -> Term:
        if isinstance(operand, int):
            return expr.const(operand)
        try:
            return state.regs[side][operand]
        except KeyError:
            raise ProtocolError(
                f"register {operand!r} read before assignment "
                f"(symbolic, program {self.program.name!r})"
            ) from None

    def _stmt_path(self, stmt) -> str:
        return self.paths_of.get(id(stmt), "")

    def _addr_term(self, array: str, index: Term) -> Term:
        addr = expr.op(
            "add",
            expr.const(self.bases[array]),
            expr.op("mul", index, expr.const(params.WORD_SIZE)),
        )
        return expr.op("shr", addr, expr.const(params.LINE_BITS))

    # -- observation checking ----------------------------------------------

    def _check_observation(self, state: _State, obs: Observation) -> None:
        """Solve one observation pair; record refutations/unknowns."""
        if obs.speculative and self.result.spec_refutation is not None:
            return  # one speculative witness is enough
        self.result.observations_checked += 1
        outcome = self.solver.check_pair(state.path, obs.a, obs.b)
        if outcome.refuted:
            refutation = Refutation(observation=obs, outcome=outcome)
            if obs.speculative:
                if self.result.spec_refutation is None:
                    self.result.spec_refutation = refutation
            else:
                if self.result.refutation is None:
                    self.result.refutation = refutation
                raise _SequentialLeak()
        elif not outcome.proved:
            self.result.unknown_obs.append(obs)
            if obs.speculative:
                self.result.spec_complete = False
            else:
                self.result.complete = False

    # -- execution ---------------------------------------------------------

    def run(self) -> ExplorationResult:
        state = self._initial_state()
        try:
            self._walk(self.program.body, state)
        except _SequentialLeak:
            pass
        except _PathBudgetExceeded:
            self.result.complete = False
            self.result.spec_complete = False
            self.result.truncated.append(
                f"exploration budget exceeded "
                f"({self.result.paths} paths, {self.result.steps} steps)"
            )
        return self.result

    def _step(self) -> None:
        self.result.steps += 1
        if self.result.steps > self.max_steps:
            raise _PathBudgetExceeded()

    def _walk(self, body: Tuple, state: _State, rest: Tuple = ()) -> None:
        """Execute ``body`` then ``rest`` stacks of statements.

        ``rest`` is the continuation beyond the current structured
        statement — forks re-enter ``_walk`` with the remaining
        program, so every fork explores a *complete* path.

        Straight-line statements advance an index into ``body``
        iteratively: a fully unrolled loop is one long flat tuple, and
        stepping it must be O(1) per statement (no per-statement tail
        slice) and must not grow the Python stack (a 512-iteration
        unroll would otherwise overflow the recursion limit).  Only
        genuine forks recurse, bounded by branch-nesting depth.
        """
        i = 0
        while True:
            if i >= len(body):
                if not rest:
                    self.result.paths += 1
                    if self.result.paths > self.max_paths:
                        raise _PathBudgetExceeded()
                    return
                body, rest = rest[0], rest[1:]
                i = 0
                continue
            stmt = body[i]
            i += 1
            self._step()
            if isinstance(stmt, ir.If):
                self._exec_if(stmt, state, (body[i:],) + rest)
                return
            if isinstance(stmt, ir.For):
                self._exec_for(stmt, state, (body[i:],) + rest)
                return
            self._exec_simple(stmt, state)

    # -- straight-line statements ------------------------------------------
    #
    # One executor serves all three walks.  ``preds`` is the per-side
    # merge-predicate pair of a linearized region (``None`` outside
    # one): register writes merge through ``ite`` and stores commit
    # only where the predicate holds.  ``speculative`` marks the
    # transient walk: its observations are checked as transient and
    # its accesses add no in-bounds constraint.

    def _assign(
        self,
        state: _State,
        preds: Optional[Tuple[Term, Term]],
        dst: str,
        values: Tuple[Term, Term],
    ) -> None:
        for side in (0, 1):
            value = values[side]
            if preds is not None:
                old = state.regs[side].get(dst, expr.const(0))
                value = expr.ite(preds[side], value, old)
            state.regs[side][dst] = value

    def _exec_simple(
        self,
        stmt,
        state: _State,
        preds: Optional[Tuple[Term, Term]] = None,
        speculative: bool = False,
    ) -> None:
        if isinstance(stmt, (ir.Load, ir.Store)):
            self._exec_access(stmt, state, preds, speculative)
            return
        if isinstance(stmt, ir.Const):
            value = expr.const(stmt.value & 0xFFFFFFFF)
            values = (value, value)
        elif isinstance(stmt, ir.BinOp):
            values = tuple(
                expr.op(
                    stmt.op,
                    self._value(state, side, stmt.a),
                    self._value(state, side, stmt.b),
                )
                for side in (0, 1)
            )
        elif isinstance(stmt, ir.Select):
            values = tuple(
                expr.ite(
                    expr.bool_term(self._value(state, side, stmt.cond)),
                    self._value(state, side, stmt.if_true),
                    self._value(state, side, stmt.if_false),
                )
                for side in (0, 1)
            )
        else:  # pragma: no cover - exhaustive over the IR
            raise ProtocolError(f"unknown statement {stmt!r}")
        self._assign(state, preds, stmt.dst, values)

    def _ds_routed(self, stmt, preds: Optional[Tuple[Term, Term]]) -> bool:
        """Mirror :meth:`Executor._secure_access`.

        An explicit ``ds`` flag (the repair pipeline's output) routes
        the access in *every* mode — including the native variant the
        repair driver re-proves — otherwise routing is the
        mitigated-mode taint rule: a secret index or a linearized
        region.
        """
        if stmt.ds:
            return True
        return self.mitigate and (
            preds is not None
            or (
                isinstance(stmt.index, str)
                and stmt.index in self.taint.tainted_regs
            )
        )

    def _exec_access(
        self,
        stmt,
        state: _State,
        preds: Optional[Tuple[Term, Term]],
        speculative: bool,
    ) -> None:
        """One ``Load``/``Store``: bound, observe, then read or write.

        The native executor raises ``ProtocolError`` on an
        out-of-bounds access, so completed runs — the ones the
        relational property quantifies over — satisfy the bound; under
        a linearized predicate the dead side decoys to index 0 instead
        of trapping, so the constraint is predicated.  Transiently the
        trap does not fire before the cache is touched (that is the
        whole Spectre point), so a speculative access adds none.  A
        DS-routed access observes a constant (the whole-DS sweep), so
        there is nothing to check, in the transient walk too: the
        hardware sweep covers transient accesses.
        """
        indexes = (
            self._value(state, 0, stmt.index),
            self._value(state, 1, stmt.index),
        )
        if not speculative:
            size = expr.const(self.sizes[stmt.array])
            constraints = []
            for side in (0, 1):
                in_bounds = expr.op("lt", indexes[side], size)
                if preds is not None:
                    in_bounds = expr.op(
                        "or", expr.not_term(preds[side]), in_bounds
                    )
                if not (in_bounds.is_const and in_bounds.value):
                    constraints.append(in_bounds)
            if constraints:
                state.path = state.path + tuple(constraints)
        if not self._ds_routed(stmt, preds):
            self._check_observation(
                state,
                Observation(
                    "addr",
                    self._addr_term(stmt.array, indexes[0]),
                    self._addr_term(stmt.array, indexes[1]),
                    self._stmt_path(stmt),
                    speculative,
                ),
            )
        if isinstance(stmt, ir.Load):
            values = tuple(
                expr.read(state.arrays[side][stmt.array], indexes[side])
                for side in (0, 1)
            )
            self._assign(state, preds, stmt.dst, values)
            return
        for side in (0, 1):
            current = state.arrays[side][stmt.array]
            value = self._value(state, side, stmt.value)
            if preds is not None:
                # Predicated store: commit only if the predicate holds
                # (the executor's rmw with identical footprint).
                value = expr.ite(
                    preds[side], value, expr.read(current, indexes[side])
                )
            state.arrays[side][stmt.array] = expr.array_write(
                current, indexes[side], value
            )

    # -- branches ----------------------------------------------------------

    def _exec_if(self, stmt: ir.If, state: _State, rest: Tuple) -> None:
        if self.mitigate and self.taint.is_secret_branch(stmt):
            # Control-flow linearization: both sides execute under a
            # folded predicate; no branch, no observation, no fork.
            self._linearize(stmt, state, None)
            self._walk(rest[0], state, rest[1:])
            return
        bool_a = expr.bool_term(self._value(state, 0, stmt.cond))
        bool_b = expr.bool_term(self._value(state, 1, stmt.cond))
        obs = Observation(
            "branch", bool_a, bool_b, self._stmt_path(stmt)
        )
        self._check_observation(state, obs)
        directions = []
        if not (bool_a.is_const and bool_a.value == 0) and not (
            bool_b.is_const and bool_b.value == 0
        ):
            directions.append(True)
        if not (bool_a.is_const and bool_a.value == 1) and not (
            bool_b.is_const and bool_b.value == 1
        ):
            directions.append(False)
        if self.spec_window > 0:
            # Transient execution of each direction this path will not
            # (or may not) take architecturally, under the path
            # condition WITHOUT the branch constraint.
            for taken in (True, False):
                body = stmt.then_body if taken else stmt.else_body
                if body:
                    self._transient_walk(state, body)
        for taken in directions:
            branch_state = (
                state if taken is directions[-1] else state.copy()
            )
            constraints = []
            for cond in (bool_a, bool_b):
                constraint = (
                    cond if taken else expr.not_term(cond)
                )
                if not (constraint.is_const and constraint.value):
                    constraints.append(constraint)
            if any(c.is_const and c.value == 0 for c in constraints):
                continue
            branch_state.path = branch_state.path + tuple(constraints)
            if len(directions) > 1 and self.solver.satisfiable(
                branch_state.path
            ) is False:
                continue
            body = stmt.then_body if taken else stmt.else_body
            self._walk(body, branch_state, rest)

    def _linearize(
        self,
        stmt: ir.If,
        state: _State,
        preds: Optional[Tuple[Term, Term]],
    ) -> None:
        """Execute both arms of a secret ``If`` under merge predicates.

        Each side merges through its own condition, conjoined with the
        enclosing region's ``preds`` when the ``If`` is nested in one
        (``None`` at the top of a region).
        """
        conds = (
            expr.bool_term(self._value(state, 0, stmt.cond)),
            expr.bool_term(self._value(state, 1, stmt.cond)),
        )
        for body, negate in ((stmt.then_body, False), (stmt.else_body, True)):
            if not body:
                continue
            arm = tuple(expr.not_term(c) if negate else c for c in conds)
            if preds is not None:
                arm = (
                    expr.op("and", preds[0], arm[0]),
                    expr.op("and", preds[1], arm[1]),
                )
            self._walk_predicated(body, state, arm)

    def _walk_predicated(
        self, body: Tuple, state: _State, preds: Tuple[Term, Term]
    ) -> None:
        """Straight-line walk under per-side predicates (no forking).

        Inside a linearized region nested ``If``s are themselves
        linearized (taint marks every branch under a secret one as
        secret) and ``For`` trip counts are public-and-equal — the
        strict taint pass rejects the rest before execution.
        """
        for stmt in body:
            self._step()
            if isinstance(stmt, ir.If):
                self._linearize(stmt, state, preds)
            elif isinstance(stmt, ir.For):
                raise ProtocolError(
                    f"loop over {stmt.var!r} under a secret branch in "
                    f"{self.program.name!r}: strict taint rejects this "
                    "program; the symbolic linearizer cannot model it"
                )
            else:
                self._exec_simple(stmt, state, preds)

    # -- loops -------------------------------------------------------------

    def _exec_for(self, stmt: ir.For, state: _State, rest: Tuple) -> None:
        count_a = self._value(state, 0, stmt.count)
        count_b = self._value(state, 1, stmt.count)
        if count_a.is_const and count_b.is_const:
            if count_a.value != count_b.value:
                raise ProtocolError(
                    f"loop over {stmt.var!r}: trip counts diverge "
                    "across the relational pair (secret trip count?)"
                )
            parts: List = []
            for i in range(count_a.value):
                parts.append(ir.Const(stmt.var, i))
                parts.extend(stmt.body)
            self._walk(tuple(parts), state, rest)
            return
        # Symbolic trip count: take the unroll bound from the interval
        # analysis' trip-count facts (plus the term's own range), and
        # guard every unrolled iteration with an exit branch.
        bound = min(
            count_a.hi,
            count_b.hi,
            self._interval_trip_bound(stmt),
        )
        if bound > MAX_UNROLL:
            self.result.complete = False
            self.result.spec_complete = False
            self.result.truncated.append(
                f"loop at {self._stmt_path(stmt)}: symbolic trip count "
                f"bound {bound} exceeds MAX_UNROLL={MAX_UNROLL}; "
                "not unrolled"
            )
            self._walk((), state, rest)
            return
        body = self._guarded_unroll(stmt, int(bound))
        self._walk(body, state, rest)

    def _interval_trip_bound(self, stmt: ir.For) -> float:
        interval = self.intervals.for_count_intervals.get(id(stmt))
        if interval is None or not interval.is_bounded:
            return float("inf")
        return interval.hi

    @staticmethod
    def _guarded_unroll(stmt: ir.For, bound: int) -> Tuple:
        """Unroll ``bound`` iterations, each under an ``i < count`` guard."""
        body: Tuple = ()
        for i in reversed(range(bound)):
            guard = ir.BinOp(f"__live_{stmt.var}", "gt", stmt.count, i)
            iteration = (ir.Const(stmt.var, i),) + stmt.body + body
            body = (guard, ir.If(f"__live_{stmt.var}", iteration, ()))
        return body

    # -- speculation -------------------------------------------------------

    def _transient_walk(self, state: _State, body: Tuple) -> None:
        """Mispredicted-direction execution on a scratch state."""
        try:
            self._transient_body(state.copy(), body, [self.spec_window])
        except ProtocolError:
            # A transient walk can read registers the architectural
            # path never defines (the direction is dead code) — the
            # hardware would forward garbage; give up on this window.
            pass

    def _transient_body(
        self, state: _State, body: Tuple, budget: List[int]
    ) -> None:
        for stmt in body:
            if budget[0] <= 0:
                return
            budget[0] -= 1
            self._step()
            if isinstance(stmt, ir.If):
                # No nested misprediction (one-mispredict model): a
                # concrete condition follows its direction; a symbolic
                # one explores both under the transient budget.
                cond_a = expr.bool_term(self._value(state, 0, stmt.cond))
                if cond_a.is_const:
                    chosen = (
                        stmt.then_body if cond_a.value else stmt.else_body
                    )
                    self._transient_body(state, chosen, budget)
                else:
                    self._transient_body(state.copy(), stmt.then_body, budget)
                    self._transient_body(state, stmt.else_body, budget)
            elif isinstance(stmt, ir.For):
                count = self._value(state, 0, stmt.count)
                trips = count.value if count.is_const else budget[0]
                for i in range(min(trips, budget[0])):
                    unrolled = (ir.Const(stmt.var, i),) + stmt.body
                    self._transient_body(state, unrolled, budget)
            else:
                self._exec_simple(stmt, state, speculative=True)


class _SequentialLeak(Exception):
    """Raised to unwind exploration after the first sequential model."""
