"""Braid words: parsing, families, closure combinatorics, and the test
rewrite table that the invariance walks use."""

import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vknot.braid import (
    BraidParseError,
    BraidWord,
    _occupants,
    classical,
    component_count,
    make_ijk,
    make_vt,
    parse_braid,
    parse_family,
    virtual,
)
from vknot.search import torus_word

from oracles import (
    Rewrite,
    RewriteError,
    RewriteKind,
    apply_rewrite,
    oracle_cycle_count,
    oracle_knot_states,
    oracle_permutation,
    rewrite_moves,
)
from strategies import braid_words


class TestParse:
    def test_vt_braid_part(self):
        word = parse_braid("v1 v2 1 2", strands=3)
        assert word == make_vt(3, 2, 1)
        assert [l.is_virtual for l in word.letters] == [True, True, False, False]

    def test_empty_word_with_strands(self):
        word = parse_braid("", strands=2)
        assert word.strands == 2 and len(word) == 0

    def test_empty_word_infers_one_strand(self):
        assert parse_braid("").strands == 1

    def test_index_out_of_range(self):
        with pytest.raises(BraidParseError):
            parse_braid("v3", strands=3)

    def test_strand_inference(self):
        assert parse_braid("1 -4 v2").strands == 5

    @pytest.mark.parametrize("text", ["x1", "1.5", "-0", "v0", "0", "v-1", "--2"])
    def test_malformed_tokens(self, text):
        with pytest.raises(BraidParseError):
            parse_braid(text)

    def test_bad_strand_count(self):
        with pytest.raises(BraidParseError):
            parse_braid("1", strands=0)

    @pytest.mark.parametrize("strands", [3.0, True, "3"])
    def test_non_integer_strand_count(self, strands):
        with pytest.raises(BraidParseError,
                           match=f"strand count must be an integer, got {strands!r}"):
            parse_braid("1", strands)

    @pytest.mark.parametrize("text", [
        "²",              # superscript digit: int() refuses it
        "١ 1",            # Arabic-Indic digit: int() reads it as 1
        "1" * 5000,       # more digits than int() converts
        "v" + "1" * 5000,
    ], ids=["superscript", "arabic-indic", "5000-digits", "v-5000-digits"])
    def test_non_ascii_and_overlong_indices(self, text):
        with pytest.raises(BraidParseError):
            parse_braid(text)

    @given(st.one_of(st.text(), st.text(alphabet="v-0123456789²١ ")),
           st.one_of(st.none(), st.integers(-2, 12)))
    def test_arbitrary_text_raises_only_parse_errors(self, text, strands):
        try:
            parse_braid(text, strands)
        except BraidParseError:
            pass

    @given(braid_words())
    def test_roundtrip(self, word):
        assert parse_braid(word.emit(), word.strands) == word

    def test_negative_sign_tokens(self):
        word = parse_braid("-2 2")
        assert word.letters[0].sign == -1
        assert word.letters[1].sign == 1
        assert word.emit() == "-2 2"

    def test_equal_tokens_share_one_letter(self):
        word = parse_braid("1 v2 -1 1 v2 -1 3")
        first, second = word.letters[:3], word.letters[3:6]
        assert all(a is b for a, b in zip(first, second))
        assert word.letters[0] is not word.letters[2]
        assert word.emit() == "1 v2 -1 1 v2 -1 3" and word.strands == 4

    @pytest.mark.parametrize("text", ["0 x", "x 0", "v0 1 x 0"])
    def test_malformed_tokens_come_before_range_errors(self, text):
        # 0 and v0 are well-formed but out of range, x is malformed
        with pytest.raises(BraidParseError, match="malformed braid token 'x'"):
            parse_braid(text)


class TestWordRange:
    # three letters out of range for 3 strands; the message names the first
    LETTERS = (classical(1), classical(3), virtual(4), classical(5, -1))
    MESSAGE = "letter 3 needs at least 4 strands, word has 3"

    def test_names_the_first_out_of_range_letter(self):
        with pytest.raises(ValueError) as info:
            BraidWord(3, self.LETTERS)
        assert str(info.value) == self.MESSAGE
        with pytest.raises(ValueError) as info:
            BraidWord(3, self.LETTERS[2:])
        assert str(info.value) == "letter v4 needs at least 5 strands, word has 3"

    def test_parse_braid_reraises_it_as_a_parse_error(self):
        with pytest.raises(BraidParseError) as info:
            parse_braid("1 3 v4 -5", strands=3)
        assert str(info.value) == self.MESSAGE

    def test_raises_with_assertions_stripped(self):
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        code = ("import sys\n"
                "from vknot.braid import BraidWord, classical, virtual\n"
                "assert sys.flags.optimize\n"  # would raise without -O
                "try:\n"
                "    BraidWord(3, (classical(1), classical(3), virtual(4),"
                " classical(5, -1)))\n"
                "except ValueError as error:\n"
                "    print(error)\n")
        result = subprocess.run([sys.executable, "-O", "-c", code],
                                env=dict(os.environ, PYTHONPATH=src),
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout == self.MESSAGE + "\n"


class TestFamilies:
    def test_vt_7_3_1_shape(self):
        word = make_vt(7, 3, 1)
        assert word.strands == 7
        kinds = [l.is_virtual for l in word.letters]
        assert kinds == [True] * 6 + [False] * 12

    def test_vt_all_virtual(self):
        assert make_vt(3, 2, 2).emit() == "v1 v2 v1 v2"
        assert not any(l.is_classical for l in make_vt(3, 2, 2).letters)

    def test_vt_3_2_1(self):
        assert make_vt(3, 2, 1).emit() == "v1 v2 1 2"

    @pytest.mark.parametrize("p,q,n", [(1, 2, 1), (3, 0, 1), (3, 2, 0), (3, 2, 3)])
    def test_vt_rejects_bad_parameters(self, p, q, n):
        with pytest.raises(ValueError):
            make_vt(p, q, n)

    def test_ijk_3_2_2(self):
        word = make_ijk(3, 2, 2)
        assert word.emit() == "v1 v2 1 2 2 1"
        assert sum(l.is_classical for l in word.letters) == 4 == (3 - 1) * (2 - 1) + 2

    @pytest.mark.parametrize("p,q", [(3, 2), (5, 3), (7, 3), (4, 7)])
    def test_ijk_k0_equals_vt_n1(self, p, q):
        assert make_ijk(p, q, 0) == make_vt(p, q, 1)

    def test_ijk_2_1_0(self):
        word = make_ijk(2, 1, 0)
        assert word.emit() == "v1"

    @pytest.mark.parametrize("i,j,k", [(3, 0, 0), (3, 1, 3), (3, 1, -1), (0, 1, 0)])
    def test_ijk_rejects_bad_parameters(self, i, j, k):
        with pytest.raises(ValueError):
            make_ijk(i, j, k)

    def test_ijk_crossing_count_formula(self):
        for i in range(2, 9):
            for j in range(1, i + 1):
                for k in range(i):
                    letters = make_ijk(i, j, k).letters
                    assert sum(l.is_classical for l in letters) == (i - 1) * (j - 1) + k

    def test_family_spec_parse_and_build(self):
        assert parse_family("vt:7,3,1") == make_vt(7, 3, 1)
        assert parse_family("ijk:3,2,2") == make_ijk(3, 2, 2)

    @pytest.mark.parametrize("text", [
        "vt:7,3", "vt7,3,1", "torus:1,2,3", "vt:a,b,c",
        # int() reads all of these; the family syntax takes ASCII digits only
        "vt:\u0667,3,1", "ijk:\uff13,2,2", "vt:1_0,3,1", "vt:+7,3,1", "vt: 7 ,3,1",
    ])
    def test_family_spec_rejects(self, text):
        with pytest.raises(ValueError):
            parse_family(text)

    @pytest.mark.parametrize("build,params", [
        (make_vt, (3, 2.0, 1)), (make_vt, (3, True, 1)), (make_vt, (3.0, 2, 1)),
        (make_ijk, (3.0, 2, 1)), (make_ijk, (3, 2, False)), (make_ijk, (3, True, 1)),
        (torus_word, (3, 2.0)), (torus_word, (True, 2)), (torus_word, (3, True)),
    ], ids=lambda value: getattr(value, "__name__", repr(value)))
    def test_family_words_refuse_non_integer_parameters(self, build, params):
        # bool is an int subclass and float ranges compare, so neither may pass
        with pytest.raises(ValueError, match="must be integers"):
            build(*params)


class TestPermutation:
    """The closure's components are the cycles of the word's permutation,
    which the oracle composes; its values here are worked by hand."""

    def test_empty_is_identity(self):
        assert oracle_permutation(BraidWord(4)) == (1, 2, 3, 4)
        assert component_count(BraidWord(4)) == 4

    def test_two_shift_blocks(self):
        # composing the four transpositions by hand gives the forward 3-cycle
        word = parse_braid("v1 v2 1 2", 3)
        assert oracle_permutation(word) == (2, 3, 1)
        assert component_count(word) == 1

    def test_single_block_is_cyclic_shift(self):
        word = parse_braid("v1 v2", 3)
        assert oracle_permutation(word) == (3, 1, 2)
        assert component_count(word) == 1

    def test_excluded_ijk_case_has_two_cycles(self):
        word = make_ijk(4, 3, 1)  # i = k + j
        assert oracle_permutation(word) == (1, 3, 4, 2)
        assert component_count(word) == 2

    @given(braid_words())
    def test_matches_functional_composition_oracle(self, word):
        # _occupants gives the strand at each exit position; the oracle
        # gives each strand's exit position
        occupant = _occupants(word.strands, [letter.index for letter in word.letters])
        exits = tuple(occupant.index(strand) + 1 for strand in range(word.strands))
        assert exits == oracle_permutation(word)


class TestComponents:
    @pytest.mark.parametrize("p", range(2, 8))
    def test_vt_components_equal_gcd(self, p):
        for q in range(1, 8):
            for n in range(1, q + 1):
                assert component_count(make_vt(p, q, n)) == math.gcd(p, q)

    def test_ijk_examples(self):
        assert component_count(make_ijk(4, 3, 1)) == 2
        assert component_count(make_ijk(3, 2, 2)) == 1

    @given(braid_words())
    def test_matches_cycle_oracle(self, word):
        assert component_count(word) == oracle_cycle_count(word)

    def test_knot_triples_match_the_ijk_words(self):
        expected = [(i, j, k) for i in range(2, 17) for j in range(1, i + 1)
                    for k in range(i) if oracle_cycle_count(make_ijk(i, j, k)) == 1]
        assert list(oracle_knot_states(16)) == expected

    def test_one_component_ijk_has_even_crossings(self):
        for i in range(2, 13):
            for j in range(1, i + 1):
                for k in range(i):
                    if component_count(make_ijk(i, j, k)) == 1:
                        assert ((i - 1) * (j - 1) + k) % 2 == 0


class TestRewrites:
    def test_virtual_cancel(self):
        word = parse_braid("v1 v1", 2)
        assert apply_rewrite(word, Rewrite(RewriteKind.VIRTUAL_CANCEL, 0)) == BraidWord(2)

    def test_classical_cancel(self):
        word = parse_braid("1 -1", 2)
        assert apply_rewrite(word, Rewrite(RewriteKind.CLASSICAL_CANCEL, 0)) == BraidWord(2)

    def test_conjugate(self):
        word = parse_braid("v1 v2 1 2", 3)
        rotated = apply_rewrite(word, Rewrite(RewriteKind.CONJUGATE))
        assert rotated.emit() == "v2 1 2 v1"
        assert component_count(rotated) == component_count(word)

    def test_braid_relation(self):
        word = parse_braid("1 2 1", 3)
        moved = apply_rewrite(word, Rewrite(RewriteKind.BRAID_RELATION, 0))
        assert moved.emit() == "2 1 2"
        negatives = parse_braid("-2 -1 -2", 3)
        assert apply_rewrite(negatives, Rewrite(RewriteKind.BRAID_RELATION, 0)).emit() == "-1 -2 -1"

    def test_braid_relation_needs_equal_signs(self):
        word = parse_braid("1 2 -1", 3)
        with pytest.raises(RewriteError):
            apply_rewrite(word, Rewrite(RewriteKind.BRAID_RELATION, 0))

    def test_virtual_relation(self):
        word = parse_braid("v1 v2 v1", 3)
        assert apply_rewrite(word, Rewrite(RewriteKind.VIRTUAL_RELATION, 0)).emit() == "v2 v1 v2"

    def test_mixed_relation_both_directions(self):
        word = parse_braid("v1 v2 1", 3)
        moved = apply_rewrite(word, Rewrite(RewriteKind.MIXED_RELATION, 0))
        assert moved.emit() == "2 v1 v2"
        assert apply_rewrite(moved, Rewrite(RewriteKind.MIXED_RELATION, 0)) == word

    def test_far_commute_needs_distance(self):
        word = parse_braid("1 2", 3)
        with pytest.raises(RewriteError):
            apply_rewrite(word, Rewrite(RewriteKind.FAR_COMMUTE, 0))

    def test_insert_then_cancel_restores(self):
        word = parse_braid("v1 v2 1 2", 3)
        grown = apply_rewrite(word, Rewrite(RewriteKind.CLASSICAL_INSERT, 2, 2, -1))
        assert len(grown) == 6
        assert apply_rewrite(grown, Rewrite(RewriteKind.CLASSICAL_CANCEL, 2)) == word
        grown = apply_rewrite(word, Rewrite(RewriteKind.VIRTUAL_INSERT, 0, 1))
        assert apply_rewrite(grown, Rewrite(RewriteKind.VIRTUAL_CANCEL, 0)) == word

    def test_rewrite_out_of_bounds(self):
        word = parse_braid("1", 2)
        with pytest.raises(RewriteError):
            apply_rewrite(word, Rewrite(RewriteKind.VIRTUAL_CANCEL, 0))
        with pytest.raises(RewriteError):
            apply_rewrite(BraidWord(2), Rewrite(RewriteKind.CONJUGATE))

    @given(braid_words())
    def test_every_enumerated_move_applies_and_preserves_components(self, word):
        baseline = component_count(word)
        for move in rewrite_moves(word):
            assert component_count(apply_rewrite(word, move)) == baseline

    @given(braid_words())
    def test_involutive_moves_restore_the_word(self, word):
        involutive = {RewriteKind.FAR_COMMUTE, RewriteKind.BRAID_RELATION,
                      RewriteKind.VIRTUAL_RELATION, RewriteKind.MIXED_RELATION}
        for move in rewrite_moves(word, include_insertions=False):
            if move.kind in involutive:
                once = apply_rewrite(word, move)
                assert apply_rewrite(once, move) == word

    @given(braid_words(max_len=8))
    def test_applies_exactly_where_listed(self, word):
        listed = set(rewrite_moves(word))
        n = len(word)
        # the fields a kind does not use are tried away from their defaults
        candidates = [Rewrite(kind, pos, index, sign)
                      for kind in (RewriteKind.FAR_COMMUTE, RewriteKind.VIRTUAL_CANCEL,
                                   RewriteKind.CLASSICAL_CANCEL,
                                   RewriteKind.BRAID_RELATION,
                                   RewriteKind.VIRTUAL_RELATION,
                                   RewriteKind.MIXED_RELATION,
                                   RewriteKind.CONJUGATE)
                      for pos in range(-1, n + 2)
                      for index, sign in ((0, 1), (1, 1), (0, -1))]
        for pos in range(-1, n + 2):
            for index in range(word.strands + 1):
                for sign in (1, -1):
                    candidates.append(
                        Rewrite(RewriteKind.VIRTUAL_INSERT, pos, index, sign))
                    candidates.append(
                        Rewrite(RewriteKind.CLASSICAL_INSERT, pos, index, sign))
        for move in candidates:
            if move in listed:
                apply_rewrite(word, move)
            else:
                with pytest.raises(RewriteError):
                    apply_rewrite(word, move)

    def test_conjugation_orbit_returns(self):
        word = parse_braid("v1 v2 1 2", 3)
        current = word
        for _ in range(len(word)):
            current = apply_rewrite(current, Rewrite(RewriteKind.CONJUGATE))
        assert current == word

    def test_random_walk_stays_valid(self):
        rng = random.Random(7)
        word = make_ijk(4, 3, 2)
        baseline = component_count(word)
        for _ in range(300):
            moves = rewrite_moves(word, include_insertions=len(word) < 20)
            word = apply_rewrite(word, rng.choice(moves))
            assert component_count(word) == baseline
