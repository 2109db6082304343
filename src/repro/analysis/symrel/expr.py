"""Symbolic 32-bit bitvector terms for the relational checker.

Terms mirror the executor's value semantics *exactly*: every register
write is masked to 32 bits, operations are computed on Python ints
first (so ``sub`` wraps through two's complement and comparisons see
the masked, non-negative register values), and ``div``/``mod`` by zero
yield zero, matching :data:`repro.lang.ir.OPS`.

Design points
-------------

* **Hash-consing** — terms are interned, so structural equality is
  identity (``a is b``) and the solver's common "both observations are
  the same public term" case is O(1).  The two sides of the relational
  pair share every secret-independent subterm automatically.
* **Constructor simplification** — ``op()`` constant-folds, applies
  algebraic identities (``x ^ x``, ``x & 0``, ``mod`` by a power of
  two becomes ``and``, …) and keeps a conservative value range per
  node, which lets comparisons whose operand ranges are disjoint fold
  to constants (``(k & 63) >= 64`` is ``0`` without a solver call).
* **Bit-influence analysis** — :func:`influence` over-approximates
  which *input-variable bits* can affect a term's value.  When the
  union over a constraint set is narrow the solver decides it by
  exhaustive enumeration of exactly those bits (sound and complete).

Array state is modelled as an immutable write chain over a symbolic or
concrete initial store; ``read`` simplifies through the chain while
indices are concrete and otherwise defers to concrete evaluation under
a candidate model (the solver never needs a rewriting array theory).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.lang import ir

MASK32 = 0xFFFFFFFF
WIDTH = 32

#: Variable key: ``(name, element_index_or_None, side)`` where side is
#: ``None`` for shared (public) variables and ``"A"``/``"B"`` for the
#: paired secret copies of the two lockstep executions.
VarKey = Tuple[str, Optional[int], Optional[str]]

_COMPARES = ("lt", "le", "gt", "ge", "eq", "ne")


def _apply_op(op: str, a: int, b: int) -> int:
    """Evaluate one IR op on raw ints, masked — executor semantics.

    :data:`repro.lang.ir.OPS` defines every op, shifts by huge amounts
    included, so a candidate model with a huge shift count costs no
    more than a small one.
    """
    return ir.OPS[op][0](a, b) & MASK32


class Term:
    """One interned node of a symbolic expression DAG."""

    __slots__ = ("kind", "args", "lo", "hi")

    def __init__(self, kind: str, args: Tuple, lo: int, hi: int) -> None:
        self.kind = kind
        self.args = args
        #: conservative value bounds (always within [0, 2**32-1] for
        #: maskable kinds; raw for literal consts)
        self.lo = lo
        self.hi = hi

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind == "const":
            return str(self.args[0])
        if self.kind == "var":
            name, index, side = self.args
            label = name if index is None else f"{name}[{index}]"
            return label if side is None else f"{label}@{side}"
        if self.kind == "op":
            opname, a, b = self.args
            return f"({a!r} {opname} {b!r})"
        if self.kind == "ite":
            c, t, f = self.args
            return f"ite({c!r}, {t!r}, {f!r})"
        state, idx = self.args
        return f"read({state!r}, {idx!r})"

    @property
    def is_const(self) -> bool:
        return self.kind == "const"

    @property
    def value(self) -> int:
        if self.kind != "const":
            raise ValueError(f"{self!r} is not a constant")
        return self.args[0]


class ArrayState:
    """Immutable array store: an init node or a write chain link."""

    __slots__ = ("kind", "args")

    def __init__(self, kind: str, args: Tuple) -> None:
        self.kind = kind  # "init" | "write"
        self.args = args

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind == "init":
            name, side, size, concrete = self.args
            tag = "" if side is None else f"@{side}"
            return f"{name}{tag}[{size}]"
        prev, idx, val = self.args
        return f"{prev!r}[{idx!r}:={val!r}]"


_TERMS: Dict[Tuple, Term] = {}
_STATES: Dict[Tuple, ArrayState] = {}

#: Monotonic generation counter, bumped whenever the intern tables are
#: cleared or swapped.  Pointer-keyed caches (the solver's memo tables)
#: are only valid while the epoch is unchanged: after a swap, a dead
#: term's ``id`` can be reused by a fresh allocation.
_EPOCH = 0


def intern_epoch() -> int:
    """The current intern-table generation (see :func:`intern_scope`)."""
    return _EPOCH


def clear_intern_tables() -> None:
    """Drop the intern tables (test hygiene / long-lived processes)."""
    global _EPOCH
    _TERMS.clear()
    _STATES.clear()
    _EPOCH += 1


@contextmanager
def intern_scope() -> Iterator[None]:
    """Run one check under fresh, private intern tables.

    Hash-consing makes structural equality pointer identity — but only
    while every term of a comparison was interned into the *same*
    table.  The tables therefore must not be cleared mid-check, and
    without clearing they grow without bound across a multi-program
    run (``ctcheck --all`` interns every term of every program
    forever).  ``intern_scope`` resolves the tension: the body runs
    against empty tables (pointer equality holds for everything built
    inside), and on exit the scope's tables are dropped wholesale and
    the previous tables restored untouched — memory stays flat per
    check, and an outer scope's terms remain valid afterwards.

    The epoch bump on entry *and* exit invalidates pointer-keyed
    solver memos on both edges (a term id from a dropped table may be
    reused by a later allocation).
    """
    global _TERMS, _STATES, _EPOCH
    saved = (_TERMS, _STATES)
    _TERMS, _STATES = {}, {}
    _EPOCH += 1
    try:
        yield
    finally:
        _TERMS, _STATES = saved
        _EPOCH += 1


def intern_table_size() -> int:
    """Number of live interned nodes (memory-flatness tests)."""
    return len(_TERMS) + len(_STATES)


def const(value: int) -> Term:
    # Hottest constructor by far; the key is inlined (same shape
    # ``_intern`` would build) to skip its per-argument dispatch.
    value = int(value)
    key = ("const", value)
    term = _TERMS.get(key)
    if term is None:
        term = _TERMS[key] = Term("const", (value,), value, value)
    return term


def var(name: str, index: Optional[int] = None, side: Optional[str] = None) -> Term:
    key = ("var", name, index, side)
    term = _TERMS.get(key)
    if term is None:
        term = _TERMS[key] = Term("var", (name, index, side), 0, MASK32)
    return term


def array_init(
    name: str,
    side: Optional[str],
    size: int,
    concrete: Optional[Tuple[int, ...]] = None,
) -> ArrayState:
    key = ("init", name, side, size, concrete)
    state = _STATES.get(key)
    if state is None:
        state = _STATES[key] = ArrayState(
            "init", (name, side, size, concrete)
        )
    return state


def array_write(state: ArrayState, index: Term, value: Term) -> ArrayState:
    key = ("write", id(state), id(index), id(value))
    out = _STATES.get(key)
    if out is None:
        out = _STATES[key] = ArrayState("write", (state, index, value))
    return out


def _is_pow2(v: int) -> bool:
    return v > 0 and (v & (v - 1)) == 0


def _bounds(opname: str, a: Term, b: Term) -> Tuple[int, int]:
    """Conservative post-mask bounds for ``op(a, b)``.

    Anything that could wrap, go negative, or is otherwise hard to
    bound collapses to the full word range — soundness over precision.
    """
    full = (0, MASK32)
    alo, ahi, blo, bhi = a.lo, a.hi, b.lo, b.hi
    if opname == "add":
        lo, hi = alo + blo, ahi + bhi
        return (lo, hi) if 0 <= lo and hi <= MASK32 else full
    if opname == "sub":
        lo, hi = alo - bhi, ahi - blo
        return (lo, hi) if 0 <= lo and hi <= MASK32 else full
    if opname == "mul":
        if alo >= 0 and blo >= 0:
            lo, hi = alo * blo, ahi * bhi
            return (lo, hi) if hi <= MASK32 else full
        return full
    if opname == "div":
        if alo >= 0 and blo >= 0:
            # b == 0 maps to 0, which [0, ahi] absorbs.
            return (0, ahi)
        return full
    if opname == "mod":
        if blo >= 0:
            return (0, max(bhi - 1, 0))
        return full
    if opname in _COMPARES:
        return (0, 1)
    if opname == "and":
        if alo >= 0 and blo >= 0:
            return (0, min(ahi, bhi))
        if alo >= 0:
            return (0, ahi)
        if blo >= 0:
            return (0, bhi)
        return full
    if opname in ("or", "xor"):
        if alo >= 0 and blo >= 0:
            bits = max(ahi, bhi).bit_length()
            return (0, (1 << bits) - 1)
        return full
    if opname == "shl":
        if alo >= 0 and blo >= 0:
            if bhi >= WIDTH:
                return full
            hi = ahi << bhi
            return (alo << blo, hi) if hi <= MASK32 else full
        return full
    if opname == "shr":
        if alo >= 0 and blo >= 0:
            return (0, ahi >> blo)
        return full
    return full  # pragma: no cover - exhaustive over OPS


def _fold_compare(opname: str, a: Term, b: Term) -> Optional[Term]:
    """Fold a comparison whose operand ranges already decide it."""
    if opname == "lt":
        if a.hi < b.lo:
            return const(1)
        if a.lo >= b.hi:
            return const(0)
    elif opname == "le":
        if a.hi <= b.lo:
            return const(1)
        if a.lo > b.hi:
            return const(0)
    elif opname == "gt":
        if a.lo > b.hi:
            return const(1)
        if a.hi <= b.lo:
            return const(0)
    elif opname == "ge":
        if a.lo >= b.hi:
            return const(1)
        if a.hi < b.lo:
            return const(0)
    elif opname == "eq":
        if a is b:
            return const(1)
        if a.hi < b.lo or a.lo > b.hi:
            return const(0)
    elif opname == "ne":
        if a is b:
            return const(0)
        if a.hi < b.lo or a.lo > b.hi:
            return const(1)
    return None


def op(opname: str, a: Term, b: Term) -> Term:
    """Build ``a <op> b`` with constant folding and identities."""
    if a.is_const and b.is_const:
        return const(_apply_op(opname, a.value, b.value))
    if opname in _COMPARES:
        folded = _fold_compare(opname, a, b)
        if folded is not None:
            return folded
    # Identities.  ``a``/``b`` non-const here unless stated otherwise.
    if opname == "add":
        if a.is_const and a.value == 0:
            return b
        if b.is_const and b.value == 0:
            return a
    elif opname == "sub":
        if b.is_const and b.value == 0:
            return a
        if a is b:
            return const(0)
    elif opname == "mul":
        for x, y in ((a, b), (b, a)):
            if x.is_const:
                if x.value == 0:
                    return const(0)
                if x.value == 1:
                    return y
    elif opname == "and":
        if a is b:
            return a
        for x, y in ((a, b), (b, a)):
            if x.is_const:
                if x.value == 0:
                    return const(0)
                if x.value == MASK32:
                    return y
                # y already inside the mask: the and is a no-op
                if x.value >= 0 and y.hi <= x.value and _is_pow2(x.value + 1):
                    return y
    elif opname == "or":
        if a is b:
            return a
        for x, y in ((a, b), (b, a)):
            if x.is_const and x.value == 0:
                return y
    elif opname == "xor":
        if a is b:
            return const(0)
        for x, y in ((a, b), (b, a)):
            if x.is_const and x.value == 0:
                return y
    elif opname == "mod":
        if b.is_const and b.value == 1:
            return const(0)
        if b.is_const and _is_pow2(b.value) and a.lo >= 0:
            return op("and", a, const(b.value - 1))
        if b.is_const and b.value > 0 and 0 <= a.lo and a.hi < b.value:
            return a
    elif opname == "div":
        if b.is_const and b.value == 1:
            return a
        if b.is_const and _is_pow2(b.value) and a.lo >= 0:
            return op("shr", a, const(b.value.bit_length() - 1))
    elif opname in ("shl", "shr"):
        if b.is_const and b.value == 0:
            return a
    key = ("op", opname, id(a), id(b))
    term = _TERMS.get(key)
    if term is None:
        lo, hi = _bounds(opname, a, b)
        term = _TERMS[key] = Term("op", (opname, a, b), lo, hi)
    return term


def ite(cond: Term, if_true: Term, if_false: Term) -> Term:
    if cond.is_const:
        return if_true if cond.value else if_false
    if cond.lo >= 1:
        return if_true
    if cond.hi == 0:
        return if_false
    if if_true is if_false:
        return if_true
    key = ("ite", id(cond), id(if_true), id(if_false))
    term = _TERMS.get(key)
    if term is None:
        term = _TERMS[key] = Term(
            "ite",
            (cond, if_true, if_false),
            min(if_true.lo, if_false.lo),
            max(if_true.hi, if_false.hi),
        )
    return term


def read(state: ArrayState, index: Term) -> Term:
    """A load from ``state`` at ``index``, simplified through writes."""
    while index.is_const and state.kind == "write":
        prev, widx, wval = state.args
        if widx.is_const:
            if widx.value == index.value:
                return wval
            state = prev
            continue
        break
    if index.is_const and state.kind == "init":
        name, side, size, concrete = state.args
        i = index.value
        if 0 <= i < size:
            if concrete is not None:
                return const(concrete[i] & MASK32)
            return var(name, i, side)
        # Out-of-bounds concrete read: the explorer constrains indices
        # in bounds, so this only appears on infeasible paths.
        return const(0)
    key = ("read", id(state), id(index))
    term = _TERMS.get(key)
    if term is None:
        term = _TERMS[key] = Term("read", (state, index), 0, MASK32)
    return term


def bool_term(term: Term) -> Term:
    """Normalize a term to its truth value (0 or 1)."""
    if term.is_const:
        return const(1 if term.value else 0)
    if term.kind == "op" and term.args[0] in _COMPARES:
        return term
    if term.lo >= 1:
        return const(1)
    return op("ne", term, const(0))


def not_term(term: Term) -> Term:
    """``1 - bool(term)`` — the negated truth value."""
    return op("eq", bool_term(term), const(0))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate(term: Term, model: Dict[VarKey, int], _memo: Optional[Dict] = None) -> int:
    """Concretely evaluate ``term`` under ``model`` (missing vars = 0)."""
    memo = {} if _memo is None else _memo
    return _eval(term, model, memo)


def _eval(term: Term, model: Dict[VarKey, int], memo: Dict) -> int:
    hit = memo.get(id(term))
    if hit is not None:
        return hit
    kind = term.kind
    if kind == "const":
        out = term.args[0]
    elif kind == "var":
        out = model.get(term.args, 0) & MASK32
    elif kind == "op":
        opname, a, b = term.args
        out = _apply_op(
            opname, _eval(a, model, memo), _eval(b, model, memo)
        )
    elif kind == "ite":
        c, t, f = term.args
        out = (
            _eval(t, model, memo)
            if _eval(c, model, memo)
            else _eval(f, model, memo)
        )
    else:  # read
        state, idx = term.args
        out = _eval_read(state, _eval(idx, model, memo), model, memo)
    memo[id(term)] = out
    return out


def _eval_read(
    state: ArrayState, index: int, model: Dict[VarKey, int], memo: Dict
) -> int:
    while state.kind == "write":
        prev, widx, wval = state.args
        if _eval(widx, model, memo) == index:
            return _eval(wval, model, memo)
        state = prev
    name, side, size, concrete = state.args
    if 0 <= index < size:
        if concrete is not None:
            return concrete[index] & MASK32
        return model.get((name, index, side), 0) & MASK32
    return 0


# ---------------------------------------------------------------------------
# Free variables and bit influence
# ---------------------------------------------------------------------------


def free_vars(terms: Iterable[Term]) -> List[VarKey]:
    """Every variable key appearing in ``terms`` (deterministic order)."""
    seen: Dict[VarKey, None] = {}
    visited: set = set()

    def walk_state(state: ArrayState) -> None:
        if id(state) in visited:
            return
        visited.add(id(state))
        if state.kind == "init":
            name, side, size, concrete = state.args
            if concrete is None:
                for i in range(size):
                    seen.setdefault((name, i, side))
        else:
            prev, widx, wval = state.args
            walk_state(prev)
            walk(widx)
            walk(wval)

    def walk(term: Term) -> None:
        if id(term) in visited:
            return
        visited.add(id(term))
        if term.kind == "var":
            seen.setdefault(term.args)
        elif term.kind == "op":
            walk(term.args[1])
            walk(term.args[2])
        elif term.kind == "ite":
            for child in term.args:
                walk(child)
        elif term.kind == "read":
            walk_state(term.args[0])
            walk(term.args[1])

    for t in terms:
        walk(t)
    return list(seen)


_ALL = MASK32


def _mask_up_to_msb(mask: int) -> int:
    """All bits up to (and including) the highest set bit of ``mask``."""
    if mask == 0:
        return 0
    return (1 << mask.bit_length()) - 1


def influence(terms: Iterable[Term]) -> Dict[VarKey, int]:
    """Over-approximate which variable bits can affect ``terms``.

    Returns ``{var_key: bitmask}``; a variable bit outside its mask
    provably cannot change any listed term's value, so exhaustive
    enumeration over exactly the masked bits is a complete decision
    procedure for properties of these terms.
    """
    out: Dict[VarKey, int] = {}

    def add(key: VarKey, mask: int) -> None:
        if mask:
            out[key] = out.get(key, 0) | mask

    def walk_state(state: ArrayState, relevance: int) -> None:
        if state.kind == "init":
            name, side, size, concrete = state.args
            if concrete is None:
                for i in range(size):
                    add((name, i, side), relevance)
            return
        prev, widx, wval = state.args
        walk_state(prev, relevance)
        walk(widx, _ALL)
        walk(wval, relevance)

    def walk(term: Term, relevance: int) -> None:
        if relevance == 0 or term.kind == "const":
            return
        if term.kind == "var":
            add(term.args, relevance)
            return
        if term.kind == "ite":
            c, t, f = term.args
            walk(c, _ALL)
            walk(t, relevance)
            walk(f, relevance)
            return
        if term.kind == "read":
            state, idx = term.args
            walk(idx, _ALL)
            walk_state(state, relevance)
            return
        opname, a, b = term.args
        if opname == "and":
            walk(a, relevance & (b.hi if b.is_const else _ALL))
            walk(b, relevance & (a.hi if a.is_const else _ALL))
        elif opname == "or":
            walk(a, relevance & ~(b.value if b.is_const else 0) & _ALL)
            walk(b, relevance & ~(a.value if a.is_const else 0) & _ALL)
        elif opname == "xor":
            walk(a, relevance)
            walk(b, relevance)
        elif opname in ("add", "sub", "mul"):
            below = _mask_up_to_msb(relevance)
            walk(a, below)
            walk(b, below)
        elif opname == "shl":
            if b.is_const:
                walk(a, relevance >> b.value if b.value < WIDTH else 0)
            else:
                walk(a, _ALL)
                walk(b, _ALL)
        elif opname == "shr":
            if b.is_const:
                shift = min(b.value, WIDTH)
                walk(a, (relevance << shift) & _ALL)
            else:
                walk(a, _ALL)
                walk(b, _ALL)
        else:
            # div/mod/compares: any input bit can flip the result.
            walk(a, _ALL)
            walk(b, _ALL)

    for t in terms:
        walk(t, _ALL)
    return out


def mirror_key(key: VarKey) -> VarKey:
    """Swap a variable key between the A and B sides (shared: no-op)."""
    name, index, side = key
    if side == "A":
        return (name, index, "B")
    if side == "B":
        return (name, index, "A")
    return key
