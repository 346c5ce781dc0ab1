"""Unknotting states, moves, sequences, and the verification sweep."""

import pytest

from vknot.braid import component_count, make_ijk
from vknot.gauss import gauss_from_closure
from vknot.invariants import u_invariant
from vknot.unknotting import (
    IJKState,
    NotAKnotError,
    StepKind,
    TerminalStateError,
    UnknottingSequence,
    UnknottingStep,
    knot_parameter_triples,
    next_step,
    unknotting_sequence,
    verify_row,
    verify_theorem2,
)

from oracles import replay_sequence


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
        assert sequence.final == IJKState(2, 1, 0)

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

    def test_workers_do_not_change_output(self):
        serial = verify_theorem2(4)
        parallel = verify_theorem2(4, workers=2)
        assert serial == parallel

    def test_rejects_tiny_max_i(self):
        with pytest.raises(ValueError):
            verify_theorem2(1)
