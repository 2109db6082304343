"""The built-in relational constraint solver (no SMT dependency).

The relational checker reduces to one decision problem per observation
pair: under the current path condition, can the two sides' observation
terms evaluate differently?  Three tiers, cheapest first:

1. **Structural equality** — terms are interned, so a secret-free
   observation (both sides share every subterm) is decided by a single
   identity check.  This is the common case for mitigated programs.
2. **Exhaustive enumeration over influential bits** — bit-influence
   analysis (:func:`~repro.analysis.symrel.expr.influence`) bounds
   which variable bits can matter; when the union is narrow
   (:data:`MAX_EXHAUSTIVE_BITS`) every assignment of exactly those bits is
   enumerated.  Sound *and complete*: the result is a proof or a
   model, never a guess.
3. **Directed candidate search** — for wide constraints, a refutation
   search: one side's secret variables are swept through a pool of
   values derived from the constants appearing in the constraint
   (boundary values, powers of two), observations are bucketed by
   value, and any two path-feasible assignments landing in different
   buckets yield a concrete secret pair.  Finding a model refutes;
   exhausting the budget proves nothing — the outcome is *unknown*.

Every model the solver returns has been re-checked by concrete
evaluation of the full constraint, so a reported counterexample is
never an artifact of the search strategy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.symrel import expr
from repro.analysis.symrel.expr import Term, VarKey
from repro.params import WORD_MASK

#: Enumerate exhaustively when the influential bits across the whole
#: constraint fit in this budget (2**14 = 16384 evaluations worst case).
MAX_EXHAUSTIVE_BITS = 14

#: Evaluation budget for the directed candidate search.
MAX_CANDIDATE_EVALS = 20_000

#: Cap on the per-variable candidate pool.
MAX_POOL = 24


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


@dataclass
class CheckOutcome:
    """Result of one solver query.

    ``status`` is ``"equal"`` (proved over all inputs), ``"diff"``
    (``model`` is a concrete witness), or ``"unknown"`` (the constraint
    was too wide for the complete tier and the search found nothing).
    """

    status: str
    model: Optional[Dict[VarKey, int]] = None
    method: str = ""
    evals: int = 0

    @property
    def proved(self) -> bool:
        return self.status == "equal"

    @property
    def refuted(self) -> bool:
        return self.status == "diff"


@dataclass
class SolverStats:
    queries: int = 0
    structural: int = 0
    exhaustive: int = 0
    candidate: int = 0
    unknown: int = 0
    evals: int = 0
    #: queries answered from the pointer-keyed memo tables without
    #: re-running a decision tier (see :class:`Solver`)
    memo_hits: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


def _collect_consts(terms: Iterable[Term]) -> List[int]:
    out: set = set()
    seen: set = set()

    def walk_state(state) -> None:
        if id(state) in seen:
            return
        seen.add(id(state))
        if state.kind == "init":
            concrete = state.args[3]
            if concrete is not None:
                out.update(concrete)
        else:
            prev, widx, wval = state.args
            walk_state(prev)
            walk(widx)
            walk(wval)

    def walk(term: Term) -> None:
        if id(term) in seen:
            return
        seen.add(id(term))
        if term.kind == "const":
            out.add(term.args[0])
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
    return sorted(v for v in out if 0 <= v <= WORD_MASK)


def _candidate_pool(terms: Sequence[Term]) -> List[int]:
    """Boundary-biased candidate values for the refutation search."""
    pool: set = {0, 1, 2, 3}
    for c in _collect_consts(terms):
        pool.update({c, c - 1, c + 1, 2 * c})
    pool.update(1 << i for i in (2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 31))
    pool.add(WORD_MASK)
    ordered = sorted(v for v in pool if 0 <= v <= WORD_MASK)
    if len(ordered) > MAX_POOL:
        # Keep the small boundary values and a spread of the rest.
        head = ordered[: MAX_POOL // 2]
        tail = ordered[MAX_POOL // 2 :]
        step = max(1, len(tail) // (MAX_POOL - len(head)))
        ordered = head + tail[::step][: MAX_POOL - len(head)]
    return ordered


class Solver:
    """Decides observation-pair equality under a path condition.

    Verdicts are memoized across queries: hash-consing makes terms
    pointer-unique, so a whole ``(path, a, b)`` query keys on a tuple
    of ``id``s — building the key is O(path length) with no term
    traversal.  The two paired walks of one program (native then
    mitigated), and the repair driver's re-proof after each transform
    round, re-issue mostly-identical queries over shared subterms;
    those come back as ``memo_hits`` without re-entering a decision
    tier.  Memos are valid only within one intern-table generation
    (:func:`repro.analysis.symrel.expr.intern_epoch`): a table swap
    can recycle a dead term's ``id``, so both tables are dropped
    whenever the epoch moves.
    """

    def __init__(self) -> None:
        self.stats = SolverStats()
        self._pair_memo: Dict[Tuple, CheckOutcome] = {}
        self._sat_memo: Dict[Tuple, Optional[bool]] = {}
        self._epoch = expr.intern_epoch()

    def _fresh_memo(self) -> None:
        """Drop the memos if the intern tables turned over."""
        epoch = expr.intern_epoch()
        if epoch != self._epoch:
            self._epoch = epoch
            self._pair_memo.clear()
            self._sat_memo.clear()

    # -- public API --------------------------------------------------------

    def check_pair(
        self, path: Sequence[Term], a: Term, b: Term
    ) -> CheckOutcome:
        """Can ``a != b`` hold under ``path`` (all terms nonzero)?"""
        self.stats.queries += 1
        if a is b:
            self.stats.structural += 1
            return CheckOutcome("equal", method="structural")
        self._fresh_memo()
        key = (id(a), id(b)) + tuple(id(t) for t in path)
        hit = self._pair_memo.get(key)
        if hit is not None:
            self.stats.memo_hits += 1
            return hit
        outcome = self._decide_pair(path, a, b)
        self._pair_memo[key] = outcome
        return outcome

    def _decide_pair(
        self, path: Sequence[Term], a: Term, b: Term
    ) -> CheckOutcome:
        constraint = list(path) + [a, b]
        outcome = self._try_exhaustive(constraint, path, a, b)
        if outcome is not None:
            return outcome
        outcome = self._candidate_search(path, a, b)
        if outcome is not None:
            return outcome
        self.stats.unknown += 1
        return CheckOutcome("unknown", method="budget-exhausted")

    def satisfiable(self, path: Sequence[Term]) -> Optional[bool]:
        """Is the path condition satisfiable?  ``None`` = undecided.

        Constant-folded terms decide instantly; otherwise the complete
        exhaustive tier runs when narrow enough.  ``None`` keeps the
        explorer sound: an undecided path is still explored (a proof
        on an infeasible path is vacuous, and every reported model is
        re-validated concretely).
        """
        self._fresh_memo()
        key = tuple(id(t) for t in path)
        if key in self._sat_memo:
            self.stats.memo_hits += 1
            return self._sat_memo[key]
        verdict = self._decide_satisfiable(path)
        self._sat_memo[key] = verdict
        return verdict

    def _decide_satisfiable(self, path: Sequence[Term]) -> Optional[bool]:
        live: List[Term] = []
        for term in path:
            if term.is_const:
                if term.value == 0:
                    return False
                continue
            live.append(term)
        if not live:
            return True
        infl = expr.influence(live)
        total_bits = sum(_popcount(mask) for mask in infl.values())
        if total_bits > MAX_EXHAUSTIVE_BITS:
            return None
        for model, _ in self._enumerate(infl):
            memo: Dict = {}
            if all(expr.evaluate(t, model, memo) for t in live):
                return True
        return False

    # -- tier 2: exhaustive ------------------------------------------------

    def _enumerate(self, infl: Dict[VarKey, int]):
        """Yield every assignment over exactly the influential bits."""
        keys = sorted(infl, key=str)
        bit_slots: List[Tuple[VarKey, int]] = []
        for key in keys:
            mask = infl[key]
            for bit in range(mask.bit_length()):
                if mask >> bit & 1:
                    bit_slots.append((key, bit))
        total = len(bit_slots)
        for packed in range(1 << total):
            model: Dict[VarKey, int] = {}
            for slot, (key, bit) in enumerate(bit_slots):
                if packed >> slot & 1:
                    model[key] = model.get(key, 0) | (1 << bit)
            yield model, packed

    def _try_exhaustive(
        self,
        constraint: Sequence[Term],
        path: Sequence[Term],
        a: Term,
        b: Term,
    ) -> Optional[CheckOutcome]:
        infl = expr.influence(constraint)
        total_bits = sum(_popcount(mask) for mask in infl.values())
        if total_bits > MAX_EXHAUSTIVE_BITS:
            return None
        evals = 0
        for model, _ in self._enumerate(infl):
            evals += 1
            memo: Dict = {}
            if not all(expr.evaluate(t, model, memo) for t in path):
                continue
            if expr.evaluate(a, model, memo) != expr.evaluate(
                b, model, memo
            ):
                self.stats.exhaustive += 1
                self.stats.evals += evals
                return CheckOutcome(
                    "diff", model=model, method="exhaustive", evals=evals
                )
        self.stats.exhaustive += 1
        self.stats.evals += evals
        return CheckOutcome("equal", method="exhaustive", evals=evals)


    # -- tier 3: directed candidate search ---------------------------------

    def _verify(
        self,
        path: Sequence[Term],
        a: Term,
        b: Term,
        model: Dict[VarKey, int],
    ) -> bool:
        memo: Dict = {}
        if not all(expr.evaluate(t, model, memo) for t in path):
            return False
        return expr.evaluate(a, model, memo) != expr.evaluate(
            b, model, memo
        )

    def _candidate_search(
        self, path: Sequence[Term], a: Term, b: Term
    ) -> Optional[CheckOutcome]:
        constraint = list(path) + [a, b]
        keys = expr.free_vars(constraint)
        a_keys = [k for k in keys if k[2] == "A"]
        if not a_keys:
            return None
        pool = _candidate_pool(constraint)
        evals = 0
        budget = MAX_CANDIDATE_EVALS

        # Sweep side-A secret variables (one at a time, then pairs)
        # from an all-zeros base; bucket the observation value of side
        # A under each assignment.  Two buckets that differ give the
        # two sides' assignments of a refuting model.
        sweeps: List[Iterable[Tuple[Tuple[VarKey, int], ...]]] = [
            (((k, v),) for k in a_keys for v in pool),
        ]
        if len(a_keys) > 1:
            sweeps.append(
                ((k1, v1), (k2, v2))
                for (k1, k2) in itertools.combinations(a_keys[:6], 2)
                for v1 in pool[:8]
                for v2 in pool[:8]
            )
        buckets: Dict[int, Dict[VarKey, int]] = {}
        for sweep in sweeps:
            for assignment in itertools.chain(((),), sweep):
                if evals >= budget:
                    break
                model_a = dict(assignment)
                evals += 1
                value = expr.evaluate(a, model_a, {})
                if value in buckets:
                    continue
                buckets[value] = model_a
                if len(buckets) < 2:
                    continue
                for other_value, other in buckets.items():
                    if other_value == value:
                        continue
                    model = dict(model_a)
                    for key, v in other.items():
                        model[expr.mirror_key(key)] = v
                    evals += 1
                    if self._verify(path, a, b, model):
                        self.stats.candidate += 1
                        self.stats.evals += evals
                        return CheckOutcome(
                            "diff",
                            model=model,
                            method="candidate",
                            evals=evals,
                        )
        self.stats.evals += evals
        return None
