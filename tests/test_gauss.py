"""Gauss diagrams: tracing, chord positions, flips, chord removal, basepoint
rotation, text codes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vknot.braid import make_ijk, make_vt, parse_braid
from vknot.gauss import (
    GaussCodeError,
    GaussDiagram,
    MultiComponentError,
    Role,
    emit_gauss_code,
    flip,
    gauss_from_closure,
    normalize_positive,
    parse_gauss_code,
    remove_chords,
)
from vknot.invariants import chord_index

from oracles import (_position_table, oracle_cycle_count, oracle_parse_gauss_code,
                     oracle_strand_walk, oracle_trace, r2_removable_pairs,
                     reduce_r1_r2, rotate)
from strategies import braid_words, gauss_diagrams, gauss_token_lists, knot_words


class TestTrace:
    def test_worked_example_code(self):
        diagram = gauss_from_closure(make_vt(3, 2, 1))
        assert emit_gauss_code(diagram) == "U2+ O1+ O2+ U1+"
        assert diagram.signs == (1, 1)

    def test_no_classical_letters_gives_empty_diagram(self):
        diagram = gauss_from_closure(make_ijk(2, 1, 0))
        assert diagram.n_chords == 0
        assert diagram.endpoints == ()

    def test_multi_component_rejected(self):
        with pytest.raises(MultiComponentError) as info:
            gauss_from_closure(make_ijk(4, 3, 1))
        assert info.value.components == 2

    def test_chord_count_and_signs_follow_letters(self):
        word = parse_braid("1 -2 1 -2", 3)
        diagram = gauss_from_closure(word)
        assert diagram.n_chords == word.classical_count() == 4
        assert diagram.signs == (1, -1, 1, -1)

    @given(knot_words())
    def test_matches_splicing_oracle(self, word):
        diagram = gauss_from_closure(word)
        got = [(chord, role.value, diagram.signs[chord])
               for chord, role in diagram.endpoints]
        assert got == oracle_trace(word)
        assert got == oracle_strand_walk(word)

    @given(braid_words().filter(lambda word: oracle_cycle_count(word) > 1))
    def test_links_rejected_like_the_oracles(self, word):
        components = []
        for trace in (gauss_from_closure, oracle_trace, oracle_strand_walk):
            with pytest.raises(MultiComponentError) as info:
                trace(word)
            components.append(info.value.components)
        assert components == [oracle_cycle_count(word)] * 3

    def test_empty_word_on_one_strand_is_the_unknot(self):
        diagram = gauss_from_closure(parse_braid("", strands=1))
        assert diagram.n_chords == 0


class TestChordPositions:
    @given(gauss_diagrams())
    def test_match_the_position_table(self, diagram):
        over, under = diagram.chord_positions()
        table = _position_table(diagram)
        assert over == tuple(table[c]["O"] for c in range(diagram.n_chords))
        assert under == tuple(table[c]["U"] for c in range(diagram.n_chords))

    @pytest.mark.parametrize("endpoints", [
        ((0, Role.OVER), (0, Role.OVER)),
        ((0, Role.UNDER), (1, Role.OVER), (0, Role.UNDER), (1, Role.UNDER)),
    ])
    def test_repeated_role_still_raises(self, endpoints):
        with pytest.raises(ValueError, match="repeats role"):
            GaussDiagram(endpoints, (1,) * (len(endpoints) // 2))

    def test_positions_are_not_compared(self):
        diagram = parse_gauss_code("O1+ U2- O2- U1+")
        assert diagram == GaussDiagram(diagram.endpoints, diagram.signs)
        assert "_positions" not in repr(diagram)


class TestFlipNormalize:
    def test_flip_is_involution(self):
        diagram = gauss_from_closure(make_vt(3, 2, 1))
        for chord in range(diagram.n_chords):
            assert flip(flip(diagram, chord), chord) == diagram

    def test_flip_negates_one_sign_and_swaps_roles(self):
        diagram = gauss_from_closure(make_vt(3, 2, 1))
        flipped = flip(diagram, 0)
        assert flipped.signs == (-1, 1)
        roles = {role for chord, role in flipped.endpoints if chord == 0}
        assert roles == {Role.OVER, Role.UNDER}
        assert [e for e in flipped.endpoints if e[0] == 1] == \
               [e for e in diagram.endpoints if e[0] == 1]

    def test_flip_everything(self):
        diagram = gauss_from_closure(make_vt(3, 2, 1))
        for chord in range(diagram.n_chords):
            diagram = flip(diagram, chord)
        assert diagram.signs == (-1, -1)
        assert emit_gauss_code(diagram) == "O2- U1- U2- O1-"

    def test_flip_invalid_chord(self):
        diagram = gauss_from_closure(make_vt(3, 2, 1))
        with pytest.raises(ValueError):
            flip(diagram, 2)

    @pytest.mark.parametrize("chord", [True, False, 1.0, "1", None])
    def test_chord_references_must_be_integers(self, chord):
        # the constructor refuses these as chord ids; the references agree
        diagram = gauss_from_closure(make_vt(3, 2, 1))
        for act in (lambda: diagram.check_chord(chord),
                    lambda: chord_index(diagram, chord),
                    lambda: flip(diagram, chord),
                    lambda: remove_chords(diagram, [chord])):
            with pytest.raises(ValueError):
                act()

    def test_normalize_fixed_point_on_positive(self):
        diagram = gauss_from_closure(make_vt(3, 2, 1))
        assert normalize_positive(diagram) is diagram

    def test_normalize_empty(self):
        empty = GaussDiagram((), ())
        assert normalize_positive(empty) == empty

    @given(gauss_diagrams())
    def test_normalize_idempotent_and_positive(self, diagram):
        normalized = normalize_positive(diagram)
        assert all(s == 1 for s in normalized.signs)
        assert normalize_positive(normalized) == normalized

    @given(gauss_diagrams())
    def test_normalize_absorbs_flips(self, diagram):
        for chord in range(diagram.n_chords):
            assert normalize_positive(flip(diagram, chord)) == \
                   normalize_positive(diagram)


class TestReductions:
    @pytest.mark.parametrize("code", ["O1+ U1+", "U1+ O1+", "O1- U1-"])
    def test_r1_removes_single_kink(self, code):
        assert reduce_r1_r2(parse_gauss_code(code)).n_chords == 0

    def test_r2_crossed_pattern(self):
        # the pattern a cancelling generator pair leaves in a braid closure
        assert reduce_r1_r2(parse_gauss_code("O1+ O2- U1+ U2-")).n_chords == 0

    def test_r2_nested_pattern(self):
        assert reduce_r1_r2(parse_gauss_code("U1+ U2- O2- O1+")).n_chords == 0

    def test_r2_rejects_equal_signs(self):
        assert not r2_removable_pairs(parse_gauss_code("O1+ O2+ U1+ U2+"))

    def test_r2_rejects_mixed_roles(self):
        # chord 2 is a kink, so only the pair test can show the rejection
        assert not r2_removable_pairs(parse_gauss_code("O1+ U2- O2- U1+"))

    def test_cancelling_pair_in_braid_closure_simplifies_away(self):
        diagram = gauss_from_closure(parse_braid("1 1 -1", 2))
        assert diagram.n_chords == 3
        assert r2_removable_pairs(diagram)
        assert reduce_r1_r2(diagram).n_chords == 0

    def test_worked_example_is_already_reduced(self):
        diagram = gauss_from_closure(make_vt(3, 2, 1))
        assert reduce_r1_r2(diagram) == diagram

    def test_dense_reindexing(self):
        diagram = parse_gauss_code("O1+ U1+ O2+ U3+ U2+ O3+")
        reduced = remove_chords(diagram, (0,))
        assert reduced.n_chords == 2
        assert {chord for chord, _ in reduced.endpoints} == {0, 1}


class TestBasepoint:
    def test_rotation_preserves_structure(self):
        diagram = gauss_from_closure(make_vt(5, 3, 1))
        total = len(diagram.endpoints)
        for offset in range(total):
            rotated = rotate(diagram, offset)
            assert rotated.n_chords == diagram.n_chords
        assert rotate(diagram, total) == diagram

    def test_rotation_of_empty(self):
        empty = GaussDiagram((), ())
        assert rotate(empty, 3) == empty


class TestGaussCode:
    def test_roundtrip_from_closures(self):
        for word_text, strands in [("1 1 1", 2), ("v1 2 1 v2", 3)]:
            diagram = gauss_from_closure(parse_braid(word_text, strands))
            assert parse_gauss_code(emit_gauss_code(diagram)) == diagram

    @given(gauss_diagrams())
    def test_roundtrip_random(self, diagram):
        assert parse_gauss_code(emit_gauss_code(diagram)) == diagram

    def test_empty(self):
        assert emit_gauss_code(GaussDiagram((), ())) == ""
        assert parse_gauss_code("") == GaussDiagram((), ())

    @pytest.mark.parametrize("text", [
        "O1+",                # only one endpoint
        "O1+ O1+",            # role repeated
        "O1+ U1-",            # inconsistent signs
        "Q1+ U1+",            # bad role letter
        "O0+ U0+",            # label below 1
        "O1 U1",              # missing sign
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(GaussCodeError):
            parse_gauss_code(text)

    @pytest.mark.parametrize("text", [
        "O²+ U²+",                          # superscript digit
        "O١+ U١+",                          # Arabic-Indic digit
        f"O{'1' * 5000}+ U{'1' * 5000}+",   # more digits than int() converts
    ], ids=["superscript", "arabic-indic", "5000-digits"])
    def test_rejects_non_ascii_and_overlong_labels(self, text):
        with pytest.raises(GaussCodeError):
            parse_gauss_code(text)

    @given(st.one_of(st.text(), st.text(alphabet="OU+-0123456789²١ ")))
    def test_arbitrary_text_raises_only_gauss_code_errors(self, text):
        try:
            parse_gauss_code(text)
        except GaussCodeError:
            pass

    @given(gauss_token_lists())
    def test_accepts_exactly_what_the_role_set_rules_accept(self, tokens):
        text = " ".join(tokens)
        expected = oracle_parse_gauss_code(text)
        if expected is None:
            with pytest.raises(GaussCodeError):
                parse_gauss_code(text)
        else:
            assert parse_gauss_code(text) == expected

    def test_sparse_labels_relabelled_densely(self):
        diagram = parse_gauss_code("O7+ U9- O9- U7+")
        assert diagram.n_chords == 2
        assert emit_gauss_code(diagram) == "O1+ U2- O2- U1+"
