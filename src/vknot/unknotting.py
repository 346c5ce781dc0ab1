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
from typing import Iterable, Iterator, NamedTuple

from .braid import (BraidWord, _Checked, _block_indices, _cycles, _occupants,
                    component_count, make_ijk)
from .gauss import MultiComponentError, gauss_from_closure
from .invariants import IndexPolynomial, bound_from_p, u_and_p


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


class NotAKnotError(ValueError):
    """The state closes to a link with more than one component."""

    def __init__(self, state: "IJKState", components: int):
        super().__init__(
            f"{state} closes to {components} link components, need exactly 1")
        self.state = state
        self.components = components


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
    total_changes: int
    op_count: int


class UnknottingSequence(_UnknottingSequence):
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
        total = sum(step.changes for step in steps)
        crossings = start.crossing_count()
        if 2 * total != crossings:
            raise ValueError(
                f"change total {total} is not half of {crossings} crossings")
        ops = sum(1 for step in steps if step.kind is not _REDUCE)
        return tuple.__new__(cls, (start, steps, total, ops))

    def __getnewargs__(self) -> tuple:  # copy and pickle pass only the inputs
        return self[:2]

    @classmethod
    def _make(cls, iterable: Iterable) -> UnknottingSequence:
        """Rebuild from ``start`` and ``steps``; the totals given with them
        must be the ones worked out."""
        values = tuple(iterable)
        sequence = cls(*values[:2])
        if values[2:] != sequence[2:]:
            raise ValueError(f"totals {values[2:]} differ from the worked-out "
                             f"{sequence[2:]}")
        return sequence

    def states(self) -> tuple[IJKState, ...]:
        return (self.start,) + tuple(step.after for step in self.steps)

    def to_json_dict(self) -> dict:
        return {
            "start": list(self.start),
            "steps": [step.to_json_dict() for step in self.steps],
            "total_changes": self.total_changes,
            "op_count": self.op_count,
        }


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


def _walk(start: IJKState,
          first_steps: dict[IJKState, UnknottingStep]) -> tuple[UnknottingStep, ...]:
    """The move chain from ``start`` down to a terminal state.

    Each state's first move is read from ``first_steps`` or made by
    ``next_step`` and kept there, so callers that share the dict compute
    each state's move once.
    """
    steps: list[UnknottingStep] = []
    state = start
    while not state.is_terminal:
        step = first_steps.get(state)
        if step is None:
            try:
                step = first_steps[state] = next_step(state)
            except NotAKnotError as error:
                # moves keep the component count, so the start is the link
                raise NotAKnotError(start, error.components) from None
        steps.append(step)
        state = step.after
    return tuple(steps)


def unknotting_sequence(i: int, j: int, k: int) -> UnknottingSequence:
    """Full move chain from (i, j, k) down to a terminal state."""
    start = IJKState(i, j, k)
    return UnknottingSequence(start, _walk(start, {}))


def knot_parameter_triples(max_i: int) -> Iterator[tuple[int, int, int]]:
    """One-component (i, j, k) with 2 <= i <= max_i, 1 <= j <= i, 0 <= k < i."""
    for i in range(2, max_i + 1):
        for j in range(1, i + 1):
            # the j ascending blocks are shared by every k; only the tail differs
            blocks = _occupants(i, _block_indices(i, j, 0))
            for k in range(i):
                if len(_cycles(_occupants(i, _block_indices(i, 0, k), blocks))) == 1:
                    yield (i, j, k)


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

    def to_json_rows(self) -> list[dict]:
        return [row.to_json_dict() for row in self.rows]

    def format_table(self) -> str:
        lines = ["i j k lower upper formula pass"]
        for row in self.rows:
            status = "ok" if row.passed else f"FAIL ({row.detail})"
            lines.append(f"{row.i} {row.j} {row.k} {row.lower} {row.upper} "
                         f"{row.formula} {status}")
        good = sum(1 for row in self.rows if row.passed)
        lines.append(f"{good}/{len(self.rows)} knots pass")
        return "\n".join(lines) + "\n"


def _state_check(state: IJKState, cache: dict) -> tuple[str, IndexPolynomial | None]:
    """The state's complaint, empty when it is a knot with zero u, and its
    P, None for a link; traced once and kept in ``cache`` under the state's
    text (the state itself keys its first move there, and equals its plain
    (i, j, k) tuple)."""
    key = str(state)
    if key not in cache:
        try:
            u, p = u_and_p(gauss_from_closure(state.braid_word()))
        except MultiComponentError as error:
            cache[key] = (f"intermediate {state} has {error.components} components",
                          None)
        else:
            cache[key] = ("" if u.is_zero else f"intermediate {state} has nonzero u", p)
    return cache[key]


def verify_row(i: int, j: int, k: int, cache: dict | None = None) -> VerifyRow:
    """Cross-check one knot state: invariant lower bound, explicit sequence
    cost, and the closed formula must agree, and every intermediate state
    must stay a knot with vanishing u.

    ``cache``, when shared across rows, keeps each state's first move (keyed
    by the state) and its check message and P (keyed by its text, "(i,j,k)").
    A link start raises NotAKnotError from the walk, as no move can bring a
    link to the terminal unknot.
    """
    if cache is None:
        cache = {}
    state = IJKState(i, j, k)
    # a knot's permutation is one i-cycle, a product of i-1 transpositions,
    # so its (i-1)j + k letters have i-1's parity and its crossing count
    # (i-1)(j-1) + k is even; UnknottingSequence would raise on an odd one
    formula = state.crossing_count() // 2
    sequence = UnknottingSequence(state, _walk(state, cache))
    lower = bound_from_p(_state_check(state, cache)[1])
    upper = sequence.total_changes
    problems: list[str] = []
    if not lower == upper == formula:
        problems.append(
            f"bounds disagree: lower={lower} upper={upper} formula={formula}")
    for intermediate in sequence.states():
        message = _state_check(intermediate, cache)[0]
        if message:
            problems.append(message)
            break
    return VerifyRow(i, j, k, lower, upper, formula, not problems,
                     "; ".join(problems))


def verify_theorem2(max_i: int) -> VerifyReport:
    """Run verify_row over every knot state with i up to ``max_i``, in
    parameter order, sharing one state cache across the rows."""
    if max_i < 2:
        raise ValueError(f"max_i must be >= 2, got {max_i}")
    cache: dict = {}
    return VerifyReport(max_i, tuple(
        verify_row(i, j, k, cache) for i, j, k in knot_parameter_triples(max_i)))
