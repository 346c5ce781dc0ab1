"""Explicit crossing-change unknotting of the (i, j, k) family.

States are the parameter triples themselves.  Four moves act on them; the
table ``_MOVES`` is the single source of their rules (guard, target, cost),
read by both ``next_step`` and ``UnknottingStep``.

* ``Reduce``: while j > i, undo a full twist; i(i-1)/2 crossing changes.
* ``A``: when 2 <= k+j < i, slide the top strand around for free and drop
  the braid index; (i, j, k) -> (i-1, j, j+k-1), zero changes.
* ``C``: when i = k+1, absorb the descending tail into the last block with
  i-1 changes; -> (i, j-1, 0).
* ``B``: when i < k+j < 2i-1 and i != k+1, the slide first needs the i-1
  crossings on one overstrand changed; -> (i-1, j-1, j+k-i-1).

Every move either preserves or lowers the quantity ((i-1)(j-1)+k)/2 by
exactly its change count, so a full sequence down to a terminal (i, 1, 0)
state spends exactly half the classical crossing count of the start state.
``verify_theorem2`` checks that this explicit cost meets the invariant
lower bound with equality across a whole parameter range.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterable, Iterator, NamedTuple

from .braid import (BraidWord, _Checked, _cycles, _occupants, component_count,
                    make_ijk)
from .gauss import (GaussDiagram, MultiComponentError, _splice, _sweep,
                    gauss_from_closure)
from .invariants import bound_from_p, u_and_p


class StepKind(Enum):
    REDUCE = "Reduce"
    A = "A"
    B = "B"
    C = "C"


_REDUCE = StepKind.REDUCE

# kind -> (guard, target, cost), each a function of (i, j, k), in the order
# next_step tries them: Reduce's guard overlaps C's and B's.
_MOVES = {
    StepKind.REDUCE: (lambda i, j, k: j > i,
                      lambda i, j, k: (i, j - i, k),
                      lambda i, j, k: i * (i - 1) // 2),
    StepKind.A: (lambda i, j, k: j >= 2 and 2 <= k + j < i,
                 lambda i, j, k: (i - 1, j, j + k - 1),
                 lambda i, j, k: 0),
    StepKind.C: (lambda i, j, k: j >= 2 and i == k + 1,
                 lambda i, j, k: (i, j - 1, 0),
                 lambda i, j, k: i - 1),
    StepKind.B: (lambda i, j, k: j >= 2 and i < k + j < 2 * i - 1 and i != k + 1,
                 lambda i, j, k: (i - 1, j - 1, j + k - i - 1),
                 lambda i, j, k: i - 1),
}


class NotAKnotError(MultiComponentError):
    """The state closes to a link with more than one component."""

    def __init__(self, state: "IJKState", components: int):
        super().__init__(components)
        self.args = (f"{state} closes to {components} link components, need exactly 1",)
        self.state = state


class TerminalStateError(Exception):
    """The state is already the unknot (j = 1, k = 0)."""


class _IJKState(NamedTuple):
    i: int
    j: int
    k: int


class IJKState(_Checked, _IJKState):
    __slots__ = ()

    def __new__(cls, i: int, j: int, k: int) -> IJKState:
        if (not type(i) is type(j) is type(k) is int
                or i < 2 or j < 1 or not 0 <= k < i):
            raise ValueError(f"invalid state ({i!r},{j!r},{k!r}): need integers "
                             "i >= 2, j >= 1, 0 <= k < i")
        return tuple.__new__(cls, (i, j, k))

    def __str__(self) -> str:
        return f"({self.i},{self.j},{self.k})"

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.i, self.j, self.k)

    @property
    def is_terminal(self) -> bool:
        return self.j == 1 and self.k == 0

    def crossing_count(self) -> int:
        return (self.i - 1) * (self.j - 1) + self.k

    def braid_word(self) -> BraidWord:
        return make_ijk(self.i, self.j, self.k)


class _UnknottingStep(NamedTuple):
    kind: StepKind
    before: IJKState
    after: IJKState
    changes: int


class UnknottingStep(_Checked, _UnknottingStep):
    """One move; its kind's guard, target and cost are checked on build."""

    __slots__ = ()

    def __new__(cls, kind: StepKind, before: IJKState, after: IJKState,
                changes: int) -> UnknottingStep:
        guard, target, cost = _MOVES[kind]
        # states are (i, j, k) tuples, so target's plain triple compares equal
        if not (guard(*before) and after == target(*before)
                and type(changes) is int and changes == cost(*before)):
            raise ValueError(
                f"invalid {kind.value} step {before} -> {after} ({changes} changes)")
        return tuple.__new__(cls, (kind, before, after, changes))

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "before": list(self.before),
            "after": list(self.after),
            "changes": self.changes,
        }


class _UnknottingSequence(NamedTuple):
    start: IJKState
    steps: tuple[UnknottingStep, ...]


class UnknottingSequence(_Checked, _UnknottingSequence):
    """A chained run of steps ending at a terminal (i, 1, 0) state.

    ``total_changes`` is forced to equal half the start state's classical
    crossing count; ``op_count`` counts the A/B/C moves, full-twist
    reductions excluded.  Both are worked out from ``start`` and ``steps``.
    """

    __slots__ = ()

    def __new__(cls, start: IJKState,
                steps: Iterable[UnknottingStep]) -> UnknottingSequence:
        steps = tuple(steps)
        state = start
        for step in steps:
            if step.before != state:
                raise ValueError(f"steps do not chain at {step.before}")
            state = step.after
        if not state.is_terminal:
            raise ValueError(f"sequence ends at non-terminal state {state}")
        self = tuple.__new__(cls, (start, steps))
        _check_total(start, self.total_changes)
        return self

    @property
    def total_changes(self) -> int:
        return sum(step.changes for step in self.steps)

    @property
    def op_count(self) -> int:
        return sum(1 for step in self.steps if step.kind is not _REDUCE)

    def states(self) -> tuple[IJKState, ...]:
        return (self.start,) + tuple(step.after for step in self.steps)

    def to_json_dict(self) -> dict:
        return {
            "start": list(self.start),
            "steps": [step.to_json_dict() for step in self.steps],
            "total_changes": self.total_changes,
            "op_count": self.op_count,
        }


def _check_total(start: IJKState, total: int) -> None:
    """A chain from ``start`` to a terminal state changes half its crossings."""
    crossings = start.crossing_count()
    if 2 * total != crossings:
        raise ValueError(f"change total {total} is not half of {crossings} crossings")


def next_step(state: IJKState) -> UnknottingStep:
    """The first move whose guard holds, trying Reduce, A, C, B in turn.

    Raises TerminalStateError at (i, 1, 0) and NotAKnotError when no guard
    holds, which is where the j = 1 (k > 0) and k + j = i links land.  The
    guards do not test the component count: a link may still take moves,
    but moves keep the count, so its chain ends at a state with none.
    """
    if state.is_terminal:
        raise TerminalStateError(f"{state} is already the unknot")
    for kind, (guard, target, cost) in _MOVES.items():
        if guard(*state):
            return UnknottingStep(kind, state, IJKState(*target(*state)), cost(*state))
    raise NotAKnotError(state, component_count(state.braid_word()))


def unknotting_sequence(i: int, j: int, k: int) -> UnknottingSequence:
    """Full move chain from (i, j, k) down to a terminal state."""
    start = state = IJKState(i, j, k)
    steps: list[UnknottingStep] = []
    while not state.is_terminal:
        try:
            step = next_step(state)
        except NotAKnotError as error:
            # moves keep the component count, so the start is the link
            raise NotAKnotError(start, error.components) from None
        steps.append(step)
        state = step.after
    return UnknottingSequence(start, steps)


class VerifyRow(NamedTuple):
    i: int
    j: int
    k: int
    lower: int
    upper: int
    formula: int
    passed: bool
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {"i": self.i, "j": self.j, "k": self.k, "lower": self.lower,
                "upper": self.upper, "formula": self.formula,
                "pass": self.passed}


class VerifyReport(NamedTuple):
    max_i: int
    rows: tuple[VerifyRow, ...]

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def _table_lines(self) -> Iterator[str]:
        """The table's lines, each ending in a newline: the header, one
        line per row, then the count of rows that pass."""
        yield "i j k lower upper formula pass\n"
        good = 0
        for row in self.rows:
            good += row.passed
            status = "ok" if row.passed else f"FAIL ({row.detail})"
            yield (f"{row.i} {row.j} {row.k} {row.lower} {row.upper} "
                   f"{row.formula} {status}\n")
        yield f"{good}/{len(self.rows)} knots pass\n"


def _fold(state: IJKState, step: UnknottingStep | None, trace: Callable[[], GaussDiagram],
          records: dict) -> tuple[int, str, int | None]:
    """``state``'s record, kept in ``records``: the change total of its move
    chain, the chain's first complaint in chain order, and ``state``'s lower
    bound, None for a link.

    ``step`` is ``state``'s move, None at a terminal state.  A terminal
    state's total is 0; any other state's is the move's cost plus the total
    on record for the state the move reaches, which must already be in
    ``records``.  Each total must be half the state's crossing count, as
    for an UnknottingSequence.  The complaint is the state's own, a link or a
    nonzero u read from its diagram ``trace()``, or else the next state's.
    """
    total, complaint = 0, ""
    if step is not None:
        total, complaint, _ = records[step.after]
        total += step.changes
    _check_total(state, total)
    try:
        u, p = u_and_p(trace())
        if not u.is_zero:
            complaint = f"intermediate {state} has nonzero u"
        lower = bound_from_p(p)
    except MultiComponentError as error:
        complaint = f"intermediate {state} has {error.components} components"
        lower = None
    records[state] = record = (total, complaint, lower)
    return record


def _row(state: IJKState, record: tuple[int, str, int | None]) -> VerifyRow:
    """The row of a knot state from its chain record: the record's bound,
    its chain's total and the closed formula must agree, and the chain
    must have no complaint."""
    upper, complaint, lower = record
    # a knot's permutation is one i-cycle, a product of i-1 transpositions,
    # so its (i-1)j + k letters have i-1's parity and its crossing count
    # (i-1)(j-1) + k is even; _fold would raise on an odd one
    formula = state.crossing_count() // 2
    problems: list[str] = []
    if not lower == upper == formula:
        problems.append(
            f"bounds disagree: lower={lower} upper={upper} formula={formula}")
    if complaint:
        problems.append(complaint)
    return VerifyRow(*state, lower, upper, formula, not problems,
                     "; ".join(problems))


def verify_row(i: int, j: int, k: int) -> VerifyRow:
    """Cross-check one knot state: invariant lower bound, explicit sequence
    cost, and the closed formula must agree, and every intermediate state
    must stay a knot with vanishing u.  The sequence's steps are folded
    from its terminal state up, tracing each state once.  A link start
    raises NotAKnotError from unknotting_sequence, as no move can bring a
    link to the terminal unknot.
    """
    return _verify_sequence(unknotting_sequence(i, j, k))


def _verify_sequence(sequence: UnknottingSequence) -> VerifyRow:
    """``verify_row`` of the start of ``sequence``, folding the steps the
    sequence already made."""
    records: dict = {}
    for state, step in zip(reversed(sequence.states()), (None, *sequence.steps[::-1])):
        _fold(state, step, lambda: gauss_from_closure(state.braid_word()), records)
    return _row(sequence.start, records[sequence.start])


def verify_theorem2(max_i: int) -> VerifyReport:
    """The row of every one-component (i, j, k) with 2 <= i <= ``max_i``,
    1 <= j <= i and 0 <= k < i, in parameter order, each folded once
    into one shared dict of records.

    Rows with the same i share the virtual block and every ascending
    block, so each i's blocks are swept once, the j-th as j reaches it.
    Each row copies that trace, sweeps its own k-letter tail and splices
    its diagram along the one cycle its knot-state filter walked; the
    diagram is checked as the row's record is folded.  With j <= i no row
    takes Reduce, so each row makes its one move, which reaches an earlier
    row whose record it folds from, and no word is traced whole.
    """
    if type(max_i) is not int:
        raise ValueError(f"max_i must be an integer, got {max_i!r}")
    if max_i < 2:
        raise ValueError(f"max_i must be >= 2, got {max_i}")
    records: dict = {}
    rows = []
    for i in range(2, max_i + 1):
        letters = make_ijk(i, i, i - 1).letters
        blocks, tails = letters[:i * (i - 1)], letters[i * (i - 1):]
        visits, occupant, signs = [[] for _ in range(i)], list(range(i)), []
        for j in range(1, i + 1):
            _sweep(blocks[(j - 1) * (i - 1):j * (i - 1)], visits, occupant, signs)
            for k in range(i):
                cycle, *others = _cycles(_occupants(i, range(k, 0, -1), occupant))
                if others:
                    continue
                row_visits, row_signs = [strand.copy() for strand in visits], signs.copy()
                _sweep(tails[i - 1 - k:], row_visits, occupant.copy(), row_signs)
                state = IJKState(i, j, k)
                step = None if state.is_terminal else next_step(state)
                rows.append(_row(state, _fold(state, step, lambda: _splice(
                    row_visits, cycle, row_signs), records)))
    return VerifyReport(max_i, tuple(rows))
