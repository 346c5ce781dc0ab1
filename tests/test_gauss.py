"""Gauss diagrams: tracing, flips, linkage, reductions, text codes."""

import itertools
import random

import pytest
from hypothesis import given

from vknot.braid import make_ijk, make_vt, parse_braid
from vknot.gauss import (
    GaussCodeError,
    GaussDiagram,
    MultiComponentError,
    Role,
    emit_gauss_code,
    find_r1_chord,
    find_r2_pair,
    flip,
    gauss_from_closure,
    linked,
    normalize_positive,
    parse_gauss_code,
    r1_reduce,
    r2_reduce,
    rotate_basepoint,
    simplify,
)

from oracles import (diagram_from_layout, oracle_cycle_count, oracle_strand_walk,
                     oracle_trace, r1_chords, r2_removable_pairs)
from strategies import braid_words, gauss_diagrams, knot_words


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


class TestLinked:
    def test_worked_example_pair_is_linked(self):
        diagram = gauss_from_closure(make_vt(3, 2, 1))
        assert linked(diagram, 0, 1)

    def test_nested_pair_is_not_linked(self):
        diagram = parse_gauss_code("O1+ O2+ U2+ U1+")
        assert not linked(diagram, 0, 1)

    @given(gauss_diagrams(max_chords=5))
    def test_symmetry(self, diagram):
        for c, d in itertools.combinations(range(diagram.n_chords), 2):
            assert linked(diagram, c, d) == linked(diagram, d, c)

    def test_same_chord_rejected(self):
        diagram = gauss_from_closure(make_vt(3, 2, 1))
        with pytest.raises(ValueError):
            linked(diagram, 0, 0)


def _all_diagrams(n_chords):
    """Every endpoint layout, arrow assignment, and sign pattern."""
    base = sorted(list(range(n_chords)) * 2)
    layouts = sorted(set(itertools.permutations(base)))
    for layout in layouts:
        for over_first in itertools.product((True, False), repeat=n_chords):
            for signs in itertools.product((1, -1), repeat=n_chords):
                yield diagram_from_layout(list(layout), list(over_first),
                                          list(signs))


class TestReductions:
    @pytest.mark.parametrize("code", ["O1+ U1+", "U1+ O1+", "O1- U1-"])
    def test_r1_removes_single_kink(self, code):
        assert r1_reduce(parse_gauss_code(code)).n_chords == 0

    def test_r2_crossed_pattern(self):
        # the pattern a cancelling generator pair leaves in a braid closure
        assert r2_reduce(parse_gauss_code("O1+ O2- U1+ U2-")).n_chords == 0

    def test_r2_nested_pattern(self):
        assert r2_reduce(parse_gauss_code("U1+ U2- O2- O1+")).n_chords == 0

    def test_r2_rejects_equal_signs(self):
        diagram = parse_gauss_code("O1+ O2+ U1+ U2+")
        assert r2_reduce(diagram) == diagram

    def test_r2_rejects_mixed_roles(self):
        diagram = parse_gauss_code("O1+ U2- O2- U1+")
        assert r2_reduce(diagram) == diagram

    def test_cancelling_pair_in_braid_closure_simplifies_away(self):
        diagram = gauss_from_closure(parse_braid("1 1 -1", 2))
        assert diagram.n_chords == 3
        after_r2 = r2_reduce(diagram)
        assert after_r2.n_chords == 1
        assert simplify(diagram).n_chords == 0

    def test_worked_example_is_already_reduced(self):
        diagram = gauss_from_closure(make_vt(3, 2, 1))
        assert simplify(diagram) == diagram

    @pytest.mark.parametrize("n_chords", [1, 2, 3])
    def test_matchers_agree_with_pattern_oracle(self, n_chords):
        for diagram in _all_diagrams(n_chords):
            expected_r1 = r1_chords(diagram)
            found_r1 = find_r1_chord(diagram)
            assert (found_r1 is not None) == bool(expected_r1)
            if found_r1 is not None:
                assert found_r1 in expected_r1
            expected_r2 = r2_removable_pairs(diagram)
            found_r2 = find_r2_pair(diagram)
            assert (found_r2 is not None) == bool(expected_r2)
            if found_r2 is not None:
                assert frozenset(found_r2) in expected_r2

    def test_simplify_monotone(self):
        rng = random.Random(11)
        base = sorted(list(range(4)) * 2)
        for _ in range(50):
            layout = base[:]
            rng.shuffle(layout)
            diagram = diagram_from_layout(
                layout, [rng.random() < 0.5 for _ in range(4)],
                [rng.choice((1, -1)) for _ in range(4)])
            current = diagram
            for _ in range(diagram.n_chords + 1):
                reduced = simplify(current)
                assert reduced.n_chords <= current.n_chords
                current = reduced
            assert simplify(current) == current

    def test_dense_reindexing(self):
        diagram = parse_gauss_code("O1+ U1+ O2+ U3+ U2+ O3+")
        reduced = r1_reduce(diagram)
        assert reduced.n_chords == 2
        assert {chord for chord, _ in reduced.endpoints} == {0, 1}


class TestBasepoint:
    def test_rotation_preserves_structure(self):
        diagram = gauss_from_closure(make_vt(5, 3, 1))
        total = len(diagram.endpoints)
        for offset in range(total):
            rotated = rotate_basepoint(diagram, offset)
            assert rotated.n_chords == diagram.n_chords
        assert rotate_basepoint(diagram, total) == diagram

    def test_rotation_of_empty(self):
        empty = GaussDiagram((), ())
        assert rotate_basepoint(empty, 3) == empty


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

    def test_sparse_labels_relabelled_densely(self):
        diagram = parse_gauss_code("O7+ U9- O9- U7+")
        assert diagram.n_chords == 2
        assert emit_gauss_code(diagram) == "O1+ U2- O2- U1+"
