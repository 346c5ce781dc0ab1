"""Explicit crossing-change unknotting of the (i, j, k) family.

States are the parameter triples themselves.  Four moves act on them:

* ``Reduce``: while j > i, undo a full twist; i(i-1)/2 crossing changes.
* ``A``: when 2 <= k+j < i, slide the top strand around for free and drop
  the braid index; (i, j, k) -> (i-1, j, j+k-1), zero changes.
* ``B``: when i < k+j < 2i-1 and i != k+1, the slide first needs the i-1
  crossings on one overstrand changed; -> (i-1, j-1, j+k-i-1).
* ``C``: when i = k+1, absorb the descending tail into the last block with
  i-1 changes; -> (i, j-1, 0).

Every move either preserves or lowers the quantity ((i-1)(j-1)+k)/2 by
exactly its change count, so a full sequence down to a terminal (i, 1, 0)
state spends exactly half the classical crossing count of the start state.
``verify_theorem2`` checks that this explicit cost meets the invariant
lower bound with equality across a whole parameter range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator

from .braid import BraidWord, component_count, make_ijk
from .gauss import gauss_from_closure
from .invariants import u_invariant, vu_lower_bound


class StepKind(Enum):
    REDUCE = "Reduce"
    A = "A"
    B = "B"
    C = "C"


class NotAKnotError(ValueError):
    """The state closes to a link with more than one component."""

    def __init__(self, state: "IJKState", components: int):
        super().__init__(
            f"{state} closes to {components} link components, need exactly 1")
        self.state = state
        self.components = components


class TerminalStateError(Exception):
    """The state is already the unknot (j = 1, k = 0)."""


@dataclass(frozen=True)
class IJKState:
    i: int
    j: int
    k: int

    def __post_init__(self) -> None:
        if self.i < 2 or self.j < 1 or not 0 <= self.k < self.i:
            raise ValueError(
                f"invalid state ({self.i},{self.j},{self.k}): "
                "need i >= 2, j >= 1, 0 <= k < i")

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


@dataclass(frozen=True)
class UnknottingStep:
    """One move; the transition formula and its cost are checked on build."""

    kind: StepKind
    before: IJKState
    after: IJKState
    changes: int

    def __post_init__(self) -> None:
        i, j, k = self.before.as_tuple()
        kind = self.kind
        if kind is StepKind.REDUCE:
            ok = (j > i and self.after == IJKState(i, j - i, k)
                  and self.changes == i * (i - 1) // 2)
        elif kind is StepKind.A:
            ok = (j >= 2 and 2 <= k + j < i
                  and self.after == IJKState(i - 1, j, j + k - 1)
                  and self.changes == 0)
        elif kind is StepKind.B:
            ok = (j >= 2 and i < k + j < 2 * i - 1 and i != k + 1
                  and self.after == IJKState(i - 1, j - 1, j + k - i - 1)
                  and self.changes == i - 1)
        elif kind is StepKind.C:
            ok = (j >= 2 and i == k + 1
                  and self.after == IJKState(i, j - 1, 0)
                  and self.changes == i - 1)
        else:
            ok = False
        if not ok:
            raise ValueError(
                f"invalid {kind.value} step {self.before} -> {self.after} "
                f"({self.changes} changes)")

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "before": list(self.before.as_tuple()),
            "after": list(self.after.as_tuple()),
            "changes": self.changes,
        }


@dataclass(frozen=True)
class UnknottingSequence:
    """A chained run of steps ending at a terminal (i, 1, 0) state.

    ``total_changes`` is forced to equal half the start state's classical
    crossing count; ``op_count`` counts the A/B/C moves, full-twist
    reductions excluded.
    """

    start: IJKState
    steps: tuple[UnknottingStep, ...]
    total_changes: int = field(init=False)
    op_count: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        state = self.start
        for step in self.steps:
            if step.before != state:
                raise ValueError(f"steps do not chain at {step.before}")
            state = step.after
        if not state.is_terminal:
            raise ValueError(f"sequence ends at non-terminal state {state}")
        total = sum(step.changes for step in self.steps)
        crossings = self.start.crossing_count()
        if 2 * total != crossings:
            raise ValueError(
                f"change total {total} is not half of {crossings} crossings")
        object.__setattr__(self, "total_changes", total)
        object.__setattr__(
            self, "op_count",
            sum(1 for step in self.steps if step.kind is not StepKind.REDUCE))

    @property
    def final(self) -> IJKState:
        return self.steps[-1].after if self.steps else self.start

    def states(self) -> tuple[IJKState, ...]:
        return (self.start,) + tuple(step.after for step in self.steps)

    def to_json_dict(self) -> dict:
        return {
            "start": list(self.start.as_tuple()),
            "steps": [step.to_json_dict() for step in self.steps],
            "total_changes": self.total_changes,
            "op_count": self.op_count,
        }


def next_step(state: IJKState) -> UnknottingStep:
    """The unique applicable move for a one-component state.

    Raises TerminalStateError at (i, 1, 0) and NotAKnotError when the
    closure is a link; j = 1 with k > 0 and k + j = i always land there.
    """
    if state.is_terminal:
        raise TerminalStateError(f"{state} is already the unknot")
    components = component_count(state.braid_word())
    if components != 1:
        raise NotAKnotError(state, components)
    i, j, k = state.as_tuple()
    if j > i:
        return UnknottingStep(StepKind.REDUCE, state, IJKState(i, j - i, k),
                              i * (i - 1) // 2)
    if j < 2 or k + j == i:
        # both always close to links, so a count of 1 here is a bug upstream
        raise NotAKnotError(state, components)
    if k + j < i:
        return UnknottingStep(StepKind.A, state, IJKState(i - 1, j, j + k - 1), 0)
    if i == k + 1:
        return UnknottingStep(StepKind.C, state, IJKState(i, j - 1, 0), i - 1)
    return UnknottingStep(StepKind.B, state,
                          IJKState(i - 1, j - 1, j + k - i - 1), i - 1)


def unknotting_sequence(i: int, j: int, k: int) -> UnknottingSequence:
    """Full move chain from (i, j, k) down to a terminal state."""
    state = IJKState(i, j, k)
    steps: list[UnknottingStep] = []
    while True:
        try:
            step = next_step(state)
        except TerminalStateError:
            break
        steps.append(step)
        state = step.after
    return UnknottingSequence(IJKState(i, j, k), tuple(steps))


def knot_parameter_triples(max_i: int) -> Iterator[tuple[int, int, int]]:
    """One-component (i, j, k) with 2 <= i <= max_i, 1 <= j <= i, 0 <= k < i."""
    for i in range(2, max_i + 1):
        for j in range(1, i + 1):
            for k in range(i):
                if component_count(make_ijk(i, j, k)) == 1:
                    yield (i, j, k)


@dataclass(frozen=True)
class VerifyRow:
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


@dataclass(frozen=True)
class VerifyReport:
    max_i: int
    rows: tuple[VerifyRow, ...]

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def failures(self) -> list[VerifyRow]:
        return [row for row in self.rows if not row.passed]

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


def _state_check(state: IJKState, cache: dict) -> str:
    """Empty string when the state is a knot with zero u, else a complaint."""
    key = state.as_tuple()
    if key not in cache:
        word = state.braid_word()
        components = component_count(word)
        if components != 1:
            cache[key] = f"intermediate {state} has {components} components"
        elif not u_invariant(gauss_from_closure(word)).is_zero:
            cache[key] = f"intermediate {state} has nonzero u"
        else:
            cache[key] = ""
    return cache[key]


def verify_row(i: int, j: int, k: int, cache: dict | None = None) -> VerifyRow:
    """Cross-check one knot state: invariant lower bound, explicit sequence
    cost, and the closed formula must agree, and every intermediate state
    must stay a knot with vanishing u."""
    if cache is None:
        cache = {}
    state = IJKState(i, j, k)
    crossings = state.crossing_count()
    formula = crossings // 2
    problems: list[str] = []
    if crossings % 2:
        problems.append(f"odd crossing count {crossings}")
    lower = vu_lower_bound(gauss_from_closure(state.braid_word()))
    sequence = unknotting_sequence(i, j, k)
    upper = sequence.total_changes
    if not lower == upper == formula:
        problems.append(
            f"bounds disagree: lower={lower} upper={upper} formula={formula}")
    for intermediate in sequence.states():
        message = _state_check(intermediate, cache)
        if message:
            problems.append(message)
            break
    return VerifyRow(i, j, k, lower, upper, formula, not problems,
                     "; ".join(problems))


def _verify_row_task(triple: tuple[int, int, int]) -> VerifyRow:
    return verify_row(*triple)


def verify_theorem2(max_i: int, workers: int | None = None) -> VerifyReport:
    """Run verify_row over every knot state with i up to ``max_i``.

    ``workers`` > 1 fans the rows out over processes; the rows come back in
    parameter order either way, so the report is identical.
    """
    if max_i < 2:
        raise ValueError(f"max_i must be >= 2, got {max_i}")
    triples = list(knot_parameter_triples(max_i))
    if workers is not None and workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = tuple(pool.map(_verify_row_task, triples, chunksize=8))
    else:
        cache: dict = {}
        rows = tuple(verify_row(i, j, k, cache) for i, j, k in triples)
    return VerifyReport(max_i, rows)
