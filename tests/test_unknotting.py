"""Unknotting states, moves, sequences, and the verification sweep."""

import inspect
import json
import random
import sys
from collections import Counter
from itertools import combinations, permutations
from math import gcd

import pytest

from vknot.braid import _block_indices, _occupants, component_count, make_ijk, make_vt
from vknot.cli import _json_rows, main
from vknot.gauss import MultiComponentError, gauss_from_closure
from vknot import gauss, unknotting
from vknot.invariants import (_arc_sums, bound_from_p, p_invariant, u_and_p,
                              u_invariant)
from vknot.unknotting import (
    IJKState,
    NotAKnotError,
    StepKind,
    TerminalStateError,
    UnknottingSequence,
    UnknottingStep,
    _fold,
    _row,
    next_step,
    unknotting_sequence,
    verify_row,
    verify_theorem2,
)

from oracles import (oracle_chain_p, oracle_cycle_count, oracle_first_move,
                     oracle_knot_states, oracle_move_rule, oracle_subset_word,
                     oracle_verify_row, replay_sequence)

# Every state with i <= 10, 1 <= j <= 3i and 0 <= k < i: knots, links,
# terminal states and repeated full twists.
ALL_STATES = [IJKState(i, j, k) for i in range(2, 11)
              for j in range(1, 3 * i + 1) for k in range(i)]


@pytest.fixture
def handed(monkeypatch):
    """(state, diagram) for each state _fold folds, its diagram traced once."""
    pairs = []
    real = unknotting._fold

    def fold(state, step, trace, records):
        diagram = trace()
        pairs.append((state, diagram))
        return real(state, step, lambda: diagram, records)

    monkeypatch.setattr(unknotting, "_fold", fold)
    return pairs


def _fold_word(state, records):
    """``state``'s record from _fold, with its move made and its whole word
    traced."""
    step = None if state.is_terminal else next_step(state)
    return _fold(state, step, lambda: gauss_from_closure(state.braid_word()), records)


def _shared_rows(triples):
    """Each triple's row, folded into one dict of records in the order
    given, which must put the state each move reaches before the move."""
    records: dict = {}
    rows = {}
    for triple in triples:
        state = IJKState(*triple)
        rows[triple] = _row(state, _fold_word(state, records))
    return rows


def _shuffled_rows(triples):
    """Each triple's row, folded into one dict of records in a seeded
    shuffled order; a row first folds, from its terminal state up, the
    states of its chain not yet on record."""
    shuffled = list(triples)
    random.Random(20).shuffle(shuffled)
    records: dict = {}
    rows = {}
    for triple in shuffled:
        start, *later = unknotting_sequence(*triple).states()
        for state in reversed(later):
            if state not in records:
                _fold_word(state, records)
        rows[triple] = _row(start, _fold_word(start, records))
    return rows


def _valid_state(i, j, k):
    return i >= 2 and j >= 1 and 0 <= k < i


class TestState:
    @pytest.mark.parametrize("i,j,k", [(1, 1, 0), (2, 0, 0), (2, 1, 2), (2, 1, -1)])
    def test_rejects_bad_parameters(self, i, j, k):
        with pytest.raises(ValueError):
            IJKState(i, j, k)

    def test_terminal_and_counts(self):
        assert IJKState(5, 1, 0).is_terminal
        assert not IJKState(2, 2, 1).is_terminal
        assert IJKState(3, 2, 2).crossing_count() == 4
        assert IJKState(3, 2, 2).braid_word() == make_ijk(3, 2, 2)


def test_knot_states_have_even_crossing_counts():
    # verify_row leans on this: a knot's permutation is one i-cycle, and a
    # full twist (j -> j + i) keeps the permutation and adds i(i-1) crossings
    knots = list(oracle_knot_states(40))
    assert [state for state in knots if state[0] <= 16] == [
        (row.i, row.j, row.k) for row in verify_theorem2(16).rows]
    assert [state for state in knots if state[0] <= 6] == [
        (i, j, k) for i in range(2, 7) for j in range(1, i + 1) for k in range(i)
        if oracle_cycle_count(make_ijk(i, j, k)) == 1]
    assert all(oracle_cycle_count(make_ijk(i, j + i, k)) == 1
               for i, j, k in knots if i <= 6)
    assert all(IJKState(i, j + twists * i, k).crossing_count() % 2 == 0
               for i, j, k in knots for twists in (0, 1))


class TestNextStep:
    def test_a_move(self):
        step = next_step(IJKState(3, 2, 0))
        assert step.kind is StepKind.A
        assert step.after == IJKState(2, 2, 1)
        assert step.changes == 0

    def test_c_move_small(self):
        step = next_step(IJKState(2, 2, 1))
        assert step.kind is StepKind.C
        assert step.after == IJKState(2, 1, 0)
        assert step.changes == 1

    def test_boundary_case_routes_to_c(self):
        # i = k + 1 always goes through C, costing i - 1 changes
        step = next_step(IJKState(3, 2, 2))
        assert step.kind is StepKind.C
        assert step.after == IJKState(3, 1, 0)
        assert step.changes == 2

    def test_b_move(self):
        step = next_step(IJKState(4, 3, 2))
        assert step.kind is StepKind.B
        assert step.after == IJKState(3, 2, 0)
        assert step.changes == 3

    def test_reduce_fires_first(self):
        step = next_step(IJKState(3, 5, 0))
        assert step.kind is StepKind.REDUCE
        assert step.after == IJKState(3, 2, 0)
        assert step.changes == 3

    def test_terminal(self):
        with pytest.raises(TerminalStateError):
            next_step(IJKState(2, 1, 0))
        with pytest.raises(TerminalStateError):
            next_step(IJKState(7, 1, 0))

    @pytest.mark.parametrize("i,j,k", [(4, 3, 1), (3, 1, 1), (3, 1, 2), (5, 3, 2)])
    def test_links_rejected(self, i, j, k):
        assert component_count(make_ijk(i, j, k)) > 1
        with pytest.raises(NotAKnotError) as info:
            next_step(IJKState(i, j, k))
        assert info.value.components == component_count(make_ijk(i, j, k))

    @pytest.mark.parametrize("i,j,k", [(3, 1, 1), (5, 3, 2)])
    def test_link_shapes_rejected_even_if_counted_as_knots(self, monkeypatch,
                                                           i, j, k):
        # j = 1 with k > 0 and k + j = i are links by the family's algebra;
        # next_step refuses them with a typed error, not an assert
        monkeypatch.setattr("vknot.unknotting.component_count", lambda word: 1)
        with pytest.raises(NotAKnotError):
            next_step(IJKState(i, j, k))


class TestAgainstOracleRules:
    def test_steps_build_exactly_when_the_oracle_accepts(self):
        for state in ALL_STATES:
            for kind in StepKind:
                applies, target, cost = oracle_move_rule(kind, *state.as_tuple())
                if applies:
                    step = UnknottingStep(kind, state, IJKState(*target), cost)
                    assert (step.after.as_tuple(), step.changes) == (target, cost)
                    with pytest.raises(ValueError):
                        UnknottingStep(kind, state, IJKState(*target), cost + 1)
                    with pytest.raises(ValueError):
                        UnknottingStep(kind, state, state, cost)
                else:
                    after = IJKState(*target) if _valid_state(*target) else state
                    with pytest.raises(ValueError):
                        UnknottingStep(kind, state, after, cost)

    def test_next_step_agrees_with_the_if_chain_on_knots(self):
        knots = 0
        for state in ALL_STATES:
            try:
                expected = oracle_first_move(*state.as_tuple())
            except MultiComponentError:
                continue
            knots += 1
            if expected is None:
                with pytest.raises(TerminalStateError):
                    next_step(state)
                continue
            step = next_step(state)
            assert (step.kind, step.after.as_tuple(), step.changes) == expected
        assert knots > 300

    def test_links_raise_with_their_component_count(self):
        for state in ALL_STATES:
            components = oracle_cycle_count(state.braid_word())
            if components == 1:
                continue
            with pytest.raises(NotAKnotError) as info:
                unknotting_sequence(*state.as_tuple())
            assert info.value.state == state
            assert info.value.components == components


class TestStepValidation:
    def test_valid_step_builds(self):
        UnknottingStep(StepKind.A, IJKState(3, 2, 0), IJKState(2, 2, 1), 0)

    def test_wrong_target_rejected(self):
        with pytest.raises(ValueError):
            UnknottingStep(StepKind.A, IJKState(3, 2, 0), IJKState(2, 2, 0), 0)

    def test_wrong_cost_rejected(self):
        with pytest.raises(ValueError):
            UnknottingStep(StepKind.C, IJKState(2, 2, 1), IJKState(2, 1, 0), 2)

    def test_b_requires_shifted_window(self):
        with pytest.raises(ValueError):
            # i = k + 1 territory belongs to C
            UnknottingStep(StepKind.B, IJKState(3, 2, 2), IJKState(2, 1, 0), 2)

    def test_reduce_requires_j_above_i(self):
        with pytest.raises(ValueError):
            UnknottingStep(StepKind.REDUCE, IJKState(3, 2, 0), IJKState(3, 2, 0), 3)


class TestSequence:
    def test_proof_route_3_2_0(self):
        sequence = unknotting_sequence(3, 2, 0)
        assert [s.kind for s in sequence.steps] == [StepKind.A, StepKind.C]
        assert sequence.total_changes == 1
        assert sequence.op_count == 2
        assert sequence.states()[-1] == IJKState(2, 1, 0)

    def test_unknot_is_empty(self):
        sequence = unknotting_sequence(2, 1, 0)
        assert sequence.steps == ()
        assert sequence.total_changes == 0
        assert sequence.op_count == 0

    def test_reduce_route_3_5_0(self):
        sequence = unknotting_sequence(3, 5, 0)
        assert [s.kind for s in sequence.steps] == \
               [StepKind.REDUCE, StepKind.A, StepKind.C]
        assert [s.changes for s in sequence.steps] == [3, 0, 1]
        assert sequence.total_changes == 4
        assert sequence.op_count == 2

    def test_totals_match_half_crossings(self):
        for i, j, k in oracle_knot_states(9):
            sequence = unknotting_sequence(i, j, k)
            assert sequence.total_changes == ((i - 1) * (j - 1) + k) // 2
            replay_sequence(sequence)

    def test_monotone_termination_witness(self):
        for i, j, k in oracle_knot_states(9):
            for step in unknotting_sequence(i, j, k).steps:
                if step.kind is StepKind.REDUCE:
                    assert step.after.j < step.before.j
                else:
                    assert (step.after.i < step.before.i
                            or step.after.j < step.before.j)

    def test_per_step_conservation(self):
        # A preserves the half-crossing budget; B, C, Reduce spend exactly
        # their change count
        for i, j, k in oracle_knot_states(9):
            for step in unknotting_sequence(i, j, k).steps:
                before = step.before.crossing_count() / 2
                after = step.after.crossing_count() / 2
                assert before - after == step.changes

    def test_intermediate_states_stay_knots_with_zero_u(self):
        for i, j, k in oracle_knot_states(6):
            for state in unknotting_sequence(i, j, k).states():
                word = state.braid_word()
                assert component_count(word) == 1
                assert u_invariant(gauss_from_closure(word)).is_zero

    def test_large_j_goes_through_repeated_reductions(self):
        sequence = unknotting_sequence(3, 8, 0)
        kinds = [s.kind for s in sequence.steps]
        assert kinds.count(StepKind.REDUCE) == 2
        assert sequence.total_changes == (2 * 7) // 2

    def test_not_a_knot(self):
        with pytest.raises(NotAKnotError):
            unknotting_sequence(4, 3, 1)

    def test_sequence_validation_rejects_broken_chain(self):
        good = unknotting_sequence(3, 2, 0)
        with pytest.raises(ValueError):
            UnknottingSequence(IJKState(3, 2, 0), good.steps[:1])


class TestVerify:
    def test_small_sweep_passes(self):
        report = verify_theorem2(3)
        triples = {(row.i, row.j, row.k) for row in report.rows}
        assert triples == {(2, 1, 0), (2, 2, 1), (3, 1, 0), (3, 2, 0),
                           (3, 2, 2), (3, 3, 2)}
        assert report.all_passed
        for row in report.rows:
            assert row.lower == row.upper == row.formula

    def test_smallest_sweep(self):
        report = verify_theorem2(2)
        assert len(report.rows) == 2
        assert sorted(row.formula for row in report.rows) == [0, 1]

    def test_vt_rows_match_closed_form(self):
        report = verify_theorem2(6)
        by_triple = {(row.i, row.j, row.k): row for row in report.rows}
        for p in range(2, 7):
            for q in range(1, p + 1):
                key = (p, q, 0)
                if key in by_triple:
                    assert by_triple[key].formula == (p - 1) * (q - 1) // 2

    def test_json_rows_shape(self):
        report = verify_theorem2(2)
        data = json.loads("".join(_json_rows(report.rows)))
        assert all(set(row) == {"i", "j", "k", "lower", "upper", "formula",
                                "pass"} for row in data)

    def test_table_rendering(self):
        text = "".join(verify_theorem2(2)._table_lines())
        assert text.splitlines()[0] == "i j k lower upper formula pass"
        assert text.strip().endswith("2/2 knots pass")

    def test_verify_row_smoke(self):
        row = verify_row(3, 2, 2)
        assert row.passed and row.lower == row.upper == row.formula == 2

    def test_rejects_tiny_max_i(self):
        with pytest.raises(ValueError):
            verify_theorem2(1)


class TestFirstStepCache:
    @pytest.mark.parametrize("max_i", [2, 3, 6, 10])
    def test_sweep_rows_equal_rows_with_fresh_caches(self, max_i):
        assert verify_theorem2(max_i).rows == tuple(
            verify_row(i, j, k) for i, j, k in oracle_knot_states(max_i))

    def test_chains_through_the_shared_cache_equal_fresh_sequences(self):
        records: dict = {}
        for triple in oracle_knot_states(10):
            _fold_word(IJKState(*triple), records)
        # one record per state the chains pass through, terminal states
        # included: the fresh sequence's total, no complaint, and the bound
        # of the traced P, never the polynomial itself
        visited = {state for triple in oracle_knot_states(10)
                   for state in unknotting_sequence(*triple).states()}
        assert set(records) == visited
        for state, record in records.items():
            sequence = unknotting_sequence(*state)
            p = p_invariant(gauss_from_closure(state.braid_word()))
            assert record == (sequence.total_changes, "", bound_from_p(p))
            assert [type(field) for field in record] == [int, str, int]

    def test_a_wrong_total_on_record_fails_the_next_fold(self):
        # (3,2,0) moves by A, for free, to (2,2,1), whose chain changes one
        # crossing: a record of 5 there cannot be half of (3,2,0)'s 2
        records = {IJKState(2, 2, 1): (5, "", 1)}
        with pytest.raises(ValueError, match="change total 5 is not half of 2"):
            _fold_word(IJKState(3, 2, 0), records)
        assert IJKState(3, 2, 0) not in records

    def test_a_fold_without_the_next_record_raises_and_keeps_the_records(self):
        # a fold makes one move and never walks on down the chain
        records: dict = {}
        for triple in [*oracle_knot_states(6), (3, 5, 0)]:
            state = IJKState(*triple)
            if not state.is_terminal:
                kept = dict(records)
                del kept[next_step(state).after]
                before = dict(kept)
                with pytest.raises(KeyError):
                    _fold_word(state, kept)
                assert kept == before
            _fold_word(state, records)

    def test_the_fold_is_a_loop(self):
        # (2,601,0) takes 300 Reduce moves down to (2,1,0)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            row = verify_row(2, 601, 0)
        finally:
            sys.setrecursionlimit(limit)
        assert row.passed and row.lower == row.upper == row.formula == 300

    def test_the_sweep_folds_each_row_once(self, monkeypatch):
        # each row is built from the one record its own fold returns
        folded = []
        real = unknotting._fold

        def fold(state, step, trace, records):
            record = real(state, step, trace, records)
            folded.append((state, record))
            return record

        monkeypatch.setattr(unknotting, "_fold", fold)
        report = verify_theorem2(10)
        assert [start for start, _ in folded] == [
            IJKState(row.i, row.j, row.k) for row in report.rows]
        assert [(row.upper, row.lower) for row in report.rows] == [
            (total, lower) for _, (total, _, lower) in folded]

    def test_a_row_makes_each_move_once(self, monkeypatch):
        # verify_row folds the steps its sequence made: one next_step per
        # non-terminal state, 300 for the 300 Reduce moves of (2,601,0)
        made = []
        real = unknotting.next_step
        monkeypatch.setattr(unknotting, "next_step",
                            lambda state: made.append(state) or real(state))
        for triple, moves in [((2, 601, 0), 300), ((7, 9, 4), 3), ((2, 1, 0), 0)]:
            made.clear()
            assert verify_row(*triple).passed
            assert len(made) == len(set(made)) == moves

    def test_the_sweep_makes_each_first_step_once(self, monkeypatch):
        # in theorem-2 order every intermediate state is an earlier row
        made = []
        real = unknotting.next_step
        monkeypatch.setattr(unknotting, "next_step",
                            lambda state: made.append(state) or real(state))
        report = verify_theorem2(10)
        assert made == [IJKState(row.i, row.j, row.k) for row in report.rows
                        if not IJKState(row.i, row.j, row.k).is_terminal]

    @pytest.fixture
    def flag(self, monkeypatch):
        """Give the diagrams of the states passed to it a nonzero u."""
        def flag(*states):
            # the fold reads u's coefficients from the diagram's arc sums
            # and signs, which tell these states' diagrams apart
            flagged = [(_arc_sums(diagram), diagram.signs) for diagram in (
                gauss_from_closure(make_ijk(*state)) for state in states)]
            real = unknotting._coefficients

            def coefficients(values, signs):
                u, p = real(values, signs)
                return ({1: 1} if (values, signs) in flagged else u), p

            monkeypatch.setattr(unknotting, "_coefficients", coefficients)
        return flag

    @staticmethod
    def _assert_fails_the_rows_through_3_2_0(rows):
        triples = list(oracle_knot_states(10))
        assert rows == tuple(verify_row(i, j, k) for i, j, k in triples)
        failing = {(row.i, row.j, row.k) for row in rows if not row.passed}
        through = {triple for triple in triples
                   if IJKState(3, 2, 0) in unknotting_sequence(*triple).states()}
        assert (3, 2, 0) in failing and len(failing) > 1
        assert failing == through
        assert all(row.detail == "intermediate (3,2,0) has nonzero u"
                   for row in rows if not row.passed)

    def test_a_failing_state_fails_the_same_rows_through_the_cache(self, flag):
        flag((3, 2, 0))
        self._assert_fails_the_rows_through_3_2_0(verify_theorem2(10).rows)

    def test_a_failing_state_fails_the_same_rows_in_a_shuffled_order(self, flag):
        flag((3, 2, 0))
        rows = _shuffled_rows(oracle_knot_states(10))
        self._assert_fails_the_rows_through_3_2_0(
            tuple(rows[triple] for triple in oracle_knot_states(10)))

    def test_a_row_names_its_first_failing_state_in_chain_order(self, flag):
        # (3,2,0) moves by A to (2,2,1): rows through both name (3,2,0)
        flagged = {IJKState(3, 2, 0), IJKState(2, 2, 1)}
        flag(*flagged)
        for rows in (verify_theorem2(10).rows,
                     [verify_row(*triple) for triple in oracle_knot_states(10)]):
            for row in rows:
                first = [state for state in unknotting_sequence(row.i, row.j, row.k)
                         .states() if state in flagged][:1]
                assert row.detail == "".join(f"intermediate {state} has nonzero u"
                                             for state in first)
            assert {row.detail for row in rows} == {
                "", "intermediate (3,2,0) has nonzero u",
                "intermediate (2,2,1) has nonzero u"}


class TestRowOracle:
    """verify_row against oracle_verify_row on every knot state with
    2 <= i <= 9 and 1 <= j <= 3i, Reduce rows included."""

    KNOTS = [state.as_tuple() for state in ALL_STATES
             if state.i <= 9 and oracle_cycle_count(state.braid_word()) == 1]

    @pytest.fixture(scope="class")
    def expected(self):
        return {triple: oracle_verify_row(*triple) for triple in self.KNOTS}

    def test_the_range_holds_reduce_rows(self):
        assert len(self.KNOTS) == 306
        assert sum(j > i for i, j, _ in self.KNOTS) == 204

    def test_rows_with_fresh_caches(self, expected):
        assert {triple: verify_row(*triple) for triple in self.KNOTS} == expected

    def test_rows_through_one_cache_in_theorem2_order(self, expected):
        assert _shared_rows(self.KNOTS) == expected

    def test_rows_through_one_cache_in_a_shuffled_order(self, expected):
        assert _shuffled_rows(self.KNOTS) == expected


class TestOneTracePerState:
    @pytest.fixture
    def traced(self, monkeypatch):
        words = []
        real = unknotting.gauss_from_closure
        monkeypatch.setattr(unknotting, "gauss_from_closure",
                            lambda word: words.append(word) or real(word))
        return words

    @pytest.mark.parametrize("triple", [(2, 1, 0), (3, 2, 0), (3, 5, 0), (7, 9, 4),
                                        (9, 9, 8)])
    def test_a_row_traces_each_state_of_its_chain_once(self, traced, triple):
        verify_row(*triple)
        states = unknotting_sequence(*triple).states()
        assert Counter(traced) == Counter(state.braid_word() for state in set(states))

    def test_the_sweep_traces_each_state_once(self, traced, handed, monkeypatch):
        # the sweep splices each row's diagram from its blocks' shared trace
        # and never traces a whole word: every chain state is a row
        spliced = []
        real = unknotting._splice
        monkeypatch.setattr(unknotting, "_splice",
                            lambda *trace: spliced.append(trace) or real(*trace))
        report = verify_theorem2(10)
        states = {state for row in report.rows
                  for state in unknotting_sequence(row.i, row.j, row.k).states()}
        assert traced == []
        assert len(spliced) == len(handed) == len(states)
        assert Counter(state for state, _ in handed) == Counter(states)
        assert all(diagram == gauss_from_closure(state.braid_word())
                   for state, diagram in handed)

    def test_the_sweep_walks_each_closure_once(self, monkeypatch):
        # the knot-state filter walks every (i, j, k) closure once, and the
        # splice joins a knot row's strands along the cycle it walked
        walked = []
        real = unknotting._cycles

        def cycles(occupant):
            walked.append(occupant)
            return real(occupant)

        monkeypatch.setattr(unknotting, "_cycles", cycles)
        monkeypatch.setattr(gauss, "_cycles", cycles)
        report = verify_theorem2(10)
        assert len(report.rows) == 134 and report.all_passed
        assert len(walked) == sum(i * i for i in range(2, 11)) == 384

    @pytest.mark.parametrize("triple", [(2, 2, 0), (3, 1, 1), (4, 3, 1)])
    def test_a_link_row_raises_a_typed_error(self, triple):
        with pytest.raises((MultiComponentError, NotAKnotError)):
            verify_row(*triple)


class TestFoldVerdict:
    """_fold's bound and u verdict, read from coefficients, are those of
    the diagram's polynomials."""

    @pytest.fixture
    def folded(self, monkeypatch):
        """(diagram, record) for each state _fold folds."""
        pairs = []
        real = unknotting._fold

        def fold(state, step, trace, records):
            diagram = trace()
            record = real(state, step, lambda: diagram, records)
            pairs.append((diagram, record))
            return record

        monkeypatch.setattr(unknotting, "_fold", fold)
        return pairs

    def test_every_row_diagram_and_the_reduce_chain_of_unknot_seq(self, folded, capsys):
        report = verify_theorem2(12)
        sequence = unknotting_sequence(7, 9, 4)
        assert StepKind.REDUCE in {step.kind for step in sequence.steps}
        assert main(["unknot-seq", "7", "9", "4", "--verify"]) == 0
        assert capsys.readouterr().out.endswith("verify: ok\n")
        assert len(folded) == len(report.rows) + len(sequence.states()) == 226
        for diagram, (_, complaint, lower) in folded:
            assert lower == bound_from_p(p_invariant(diagram))
            assert complaint == "" and u_invariant(diagram).is_zero

    def test_a_nonzero_u_is_the_states_complaint(self):
        # the (5,4) torus braid with up to three letters virtual: every
        # closure is a knot, and some have a nonzero u
        state = IJKState(2, 1, 0)
        verdicts = Counter()
        for size in range(4):
            for subset in combinations(range(16), size):
                diagram = gauss_from_closure(oracle_subset_word(5, 4, subset))
                _, complaint, lower = _fold(state, None, lambda: diagram, {})
                zero = u_invariant(diagram).is_zero
                assert lower == bound_from_p(p_invariant(diagram))
                assert complaint == ("" if zero else "intermediate (2,1,0) has nonzero u")
                verdicts[zero] += 1
        assert verdicts[True] and verdicts[False]


class TestSharedSweep:
    """verify_theorem2 sweeps each i's blocks once and each row's tail once."""

    def test_rows_get_the_diagrams_of_the_one_component_words(self, handed):
        verify_theorem2(12)
        knots = [(i, j, k) for i in range(2, 13) for j in range(1, i + 1)
                 for k in range(i) if component_count(make_ijk(i, j, k)) == 1]
        assert [state.as_tuple() for state, _ in handed] == knots
        assert list(oracle_knot_states(12)) == knots
        for state, diagram in handed:
            assert diagram == gauss_from_closure(make_ijk(*state))

    def test_the_sweep_reads_each_block_and_tail_once(self, monkeypatch):
        # the 496 rows to i = 16 hold 42 190 letters; each i's i blocks of
        # i-1 letters hold 1 360 in all, and the rows' tails 2 782
        letters = []
        real = gauss._sweep

        def sweep(word_letters, *trace):
            letters.extend(word_letters)
            real(word_letters, *trace)

        monkeypatch.setattr(gauss, "_sweep", sweep)
        monkeypatch.setattr(unknotting, "_sweep", sweep)
        report = verify_theorem2(16)
        assert len(report.rows) == 496 and report.all_passed
        assert sum(len(make_ijk(row.i, row.j, row.k)) for row in report.rows) == 42190
        assert sum(row.k for row in report.rows) == 2782
        assert len(letters) == 4142

    @pytest.mark.parametrize("strands", range(2, 17))
    def test_the_tail_rotation_equals_the_tail_letter_swaps(self, strands):
        # verify's knot-state filter reads the tail s_k ... s_1 on the
        # blocks' occupants as one rotation: the strand at position k moves
        # to position 0 and positions 0 ... k-1 shift up by one.  Checked
        # on every occupant order up to 6 strands, and above that on the
        # occupants after each j <= i blocks and on seeded shuffles
        if strands <= 6:
            starts = list(map(list, permutations(range(strands))))
        else:
            rng = random.Random(strands)
            starts = [_occupants(strands, _block_indices(strands, j, 0))
                      for j in range(1, strands + 1)]
            starts += [rng.sample(range(strands), strands) for _ in range(20)]
        for occupant in starts:
            before = occupant.copy()
            for k in range(strands):
                rotated = occupant[k:k + 1] + occupant[:k] + occupant[k + 1:]
                assert _occupants(strands, range(k, 0, -1), occupant) == rotated
                assert _occupants(strands, _block_indices(strands, 0, k),
                                  occupant) == rotated
            assert occupant == before


class TestTorusKnots:
    """The abstract's vu(vt(p, q, 1)) = (p-1)(q-1)/2 on both sides of the
    diagonal: vt(p, q, 1) is the (p, q, 0) state, and q > p takes Reduce."""

    PAIRS = [(p, q) for p in range(2, 41) for q in range(2, 41) if gcd(p, q) == 1]

    def test_traced_p_is_the_closed_form_and_u_vanishes(self):
        assert len(self.PAIRS) == 900
        # the (p, q, 0) chain's steps have heights floor(bp/q), b < q, so
        # its P is 2 * sum over b of t + ... + t^floor(bp/q)
        for p, q in self.PAIRS:
            u, traced = u_and_p(gauss_from_closure(make_vt(p, q, 1)))
            assert traced == oracle_chain_p(p, q, 0)
            assert u.is_zero

    def test_the_floor_sum_is_half_the_crossings(self):
        for p, q in self.PAIRS:
            assert sum(b * p // q for b in range(1, q)) == (p - 1) * (q - 1) // 2

    def test_rows_pass_with_the_formula_on_both_sides(self):
        pairs = [(p, q) for p, q in self.PAIRS if p <= 20 and q <= 20]
        assert len(pairs) == 216
        for p, q in pairs:
            row = verify_row(p, q, 0)
            assert row.passed
            assert row.lower == row.upper == row.formula == (p - 1) * (q - 1) // 2
            kinds = [step.kind for step in unknotting_sequence(p, q, 0).steps]
            assert (StepKind.REDUCE in kinds) == (q > p)


class TestChainP:
    """P/2 of every knot state is one run t + ... + t^h per step of its
    unknotting chain, h the step's height."""

    def test_the_chain_gives_the_traced_p_up_to_i_24(self):
        states = list(oracle_knot_states(24))
        assert len(states) == 1584
        for state in states:
            assert p_invariant(gauss_from_closure(make_ijk(*state))) == oracle_chain_p(*state)

    def test_the_chain_gives_the_traced_p_through_reduce(self):
        # j up to 3i: full twists, each taken off by one Reduce
        states = list(oracle_knot_states(14, j_per_i=3))
        assert sum(j > i for i, j, _ in states) == 688
        for state in states:
            assert p_invariant(gauss_from_closure(make_ijk(*state))) == oracle_chain_p(*state)
