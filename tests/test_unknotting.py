"""Unknotting states, moves, sequences, and the verification sweep."""

from collections import Counter

import pytest

from vknot.braid import component_count, make_ijk
from vknot.gauss import MultiComponentError, gauss_from_closure
from vknot import unknotting
from vknot.invariants import IndexPolynomial, u_invariant
from vknot.unknotting import (
    IJKState,
    NotAKnotError,
    StepKind,
    TerminalStateError,
    UnknottingSequence,
    UnknottingStep,
    _walk,
    knot_parameter_triples,
    next_step,
    unknotting_sequence,
    verify_row,
    verify_theorem2,
)

from oracles import (oracle_cycle_count, oracle_first_move, oracle_move_rule,
                     replay_sequence)

# Every state with i <= 10, 1 <= j <= 3i and 0 <= k < i: knots, links,
# terminal states and repeated full twists.
ALL_STATES = [IJKState(i, j, k) for i in range(2, 11)
              for j in range(1, 3 * i + 1) for k in range(i)]


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


def _knot_states(max_i):
    """Every one-component (i, j, k) with 2 <= i <= max_i and j <= 2i + 1,
    from the permutation's shape: j ascending blocks take 0-based position
    p to p - j mod i, and the tail s_k ... s_1 takes k to 0 and each p < k
    to p + 1.  One component means the cycle through 0 has length i."""
    for i in range(2, max_i + 1):
        for j in range(1, 2 * i + 2):
            for k in range(i):
                image = [(p - j) % i for p in range(i)]
                image = [0 if p == k else p + (p < k) for p in image]
                position, length = image[0], 1
                while position:
                    position, length = image[position], length + 1
                if length == i:
                    yield (i, j, k)


def test_knot_states_have_even_crossing_counts():
    # verify_row leans on this: a knot's permutation is one i-cycle
    knots = list(_knot_states(40))
    assert [state for state in knots if state[1] <= state[0]] == \
        list(knot_parameter_triples(40))
    assert [state for state in knots if state[0] <= 6] == [
        (i, j, k) for i in range(2, 7) for j in range(1, 2 * i + 2) for k in range(i)
        if oracle_cycle_count(make_ijk(i, j, k)) == 1]
    assert all(IJKState(*state).crossing_count() % 2 == 0 for state in knots)


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
        for i, j, k in knot_parameter_triples(9):
            sequence = unknotting_sequence(i, j, k)
            assert sequence.total_changes == ((i - 1) * (j - 1) + k) // 2
            replay_sequence(sequence)

    def test_monotone_termination_witness(self):
        for i, j, k in knot_parameter_triples(9):
            for step in unknotting_sequence(i, j, k).steps:
                if step.kind is StepKind.REDUCE:
                    assert step.after.j < step.before.j
                else:
                    assert (step.after.i < step.before.i
                            or step.after.j < step.before.j)

    def test_per_step_conservation(self):
        # A preserves the half-crossing budget; B, C, Reduce spend exactly
        # their change count
        for i, j, k in knot_parameter_triples(9):
            for step in unknotting_sequence(i, j, k).steps:
                before = step.before.crossing_count() / 2
                after = step.after.crossing_count() / 2
                assert before - after == step.changes

    def test_intermediate_states_stay_knots_with_zero_u(self):
        for i, j, k in knot_parameter_triples(6):
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
        data = report.to_json_rows()
        assert all(set(row) == {"i", "j", "k", "lower", "upper", "formula",
                                "pass"} for row in data)

    def test_table_rendering(self):
        text = verify_theorem2(2).format_table()
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
            verify_row(i, j, k, {}) for i, j, k in knot_parameter_triples(max_i))

    def test_chains_through_the_shared_cache_equal_fresh_sequences(self):
        cache: dict = {}
        for i, j, k in knot_parameter_triples(10):
            verify_row(i, j, k, cache)
            assert (_walk(IJKState(i, j, k), cache)
                    == unknotting_sequence(i, j, k).steps)
        # one first step per non-terminal state the chains pass through
        visited = {state for triple in knot_parameter_triples(10)
                   for state in unknotting_sequence(*triple).states()
                   if not state.is_terminal}
        first_steps = {key: step for key, step in cache.items()
                       if isinstance(key, IJKState)}
        assert set(first_steps) == visited
        assert all(step == next_step(state) for state, step in first_steps.items())

    def test_the_sweep_makes_each_first_step_once(self, monkeypatch):
        # in theorem-2 order every intermediate state is an earlier row
        made = []
        real = unknotting.next_step
        monkeypatch.setattr(unknotting, "next_step",
                            lambda state: made.append(state) or real(state))
        report = verify_theorem2(10)
        assert made == [IJKState(row.i, row.j, row.k) for row in report.rows
                        if not IJKState(row.i, row.j, row.k).is_terminal]

    def test_a_failing_state_fails_the_same_rows_through_the_cache(self, monkeypatch):
        flagged = gauss_from_closure(make_ijk(3, 2, 0))
        real = unknotting.u_and_p

        def u_and_p(diagram):
            u, p = real(diagram)
            return (IndexPolynomial.from_coefficients({1: 1})
                    if diagram == flagged else u), p

        monkeypatch.setattr(unknotting, "u_and_p", u_and_p)
        triples = list(knot_parameter_triples(10))
        shared = verify_theorem2(10).rows
        fresh = tuple(verify_row(i, j, k) for i, j, k in triples)
        assert shared == fresh
        failing = {(row.i, row.j, row.k) for row in shared if not row.passed}
        through = {triple for triple in triples
                   if IJKState(3, 2, 0) in unknotting_sequence(*triple).states()}
        assert (3, 2, 0) in failing and len(failing) > 1
        assert failing == through
        assert all(row.detail == "intermediate (3,2,0) has nonzero u"
                   for row in shared if not row.passed)


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

    def test_the_sweep_traces_each_state_once(self, traced):
        report = verify_theorem2(10)
        states = {state for row in report.rows
                  for state in unknotting_sequence(row.i, row.j, row.k).states()}
        assert Counter(traced) == Counter(state.braid_word() for state in states)

    @pytest.mark.parametrize("triple", [(2, 2, 0), (3, 1, 1), (4, 3, 1)])
    def test_a_link_row_raises_a_typed_error(self, triple):
        with pytest.raises((MultiComponentError, NotAKnotError)):
            verify_row(*triple)
