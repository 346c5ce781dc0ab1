"""Index polynomials: chord and crossing indices, P, u, the lower bound."""

import random

import pytest
from hypothesis import example, given

from vknot.braid import (classical, component_count, BraidWord, make_ijk, make_vt,
                         parse_braid, virtual)
from vknot.gauss import (
    GaussDiagram,
    flip,
    gauss_from_closure,
    parse_gauss_code,
)
from vknot.invariants import (
    IndexPolynomial,
    bound_from_p,
    chord_index,
    p_invariant,
    u_and_p,
    u_invariant,
    vu_lower_bound,
)

from oracles import (brute_chord_index, brute_crossing_index, brute_p_coefficients,
                     brute_u_coefficients, flipped_positive, oracle_subset_word,
                     rotate)
from strategies import gauss_diagrams


def poly(coefficients):
    return IndexPolynomial.from_coefficients(coefficients)


class TestIndexPolynomial:
    def test_equality_is_coefficient_equality(self):
        assert poly({1: 2}) == IndexPolynomial(((1, 2),))
        assert poly({2: 1, 1: -2}) == poly({1: -2, 2: 1})
        assert poly({}) == IndexPolynomial()

    def test_rejects_zero_coefficients_and_bad_exponents(self):
        with pytest.raises(ValueError):
            IndexPolynomial(((1, 0),))
        with pytest.raises(ValueError):
            IndexPolynomial(((0, 1),))
        with pytest.raises(ValueError):
            IndexPolynomial(((1, 1), (2, 1)))  # ascending order

    def test_from_coefficients_drops_zeros(self):
        assert poly({3: 0, 1: 2}) == poly({1: 2})

    def test_sums_and_negation(self):
        value = poly({2: 1, 1: -2})
        assert value.abs_coefficient_sum() == 3
        assert value.abs_coefficients() == {2: 1, 1: 2}
        assert poly({m: -b for m, b in value.terms}) == poly({2: -1, 1: 2})

    def test_json_roundtrip(self):
        value = poly({2: 1, 1: -2})
        data = value.to_json_dict()
        assert data == {"terms": [{"exp": 2, "coef": 1}, {"exp": 1, "coef": -2}]}
        assert poly({term["exp"]: term["coef"] for term in data["terms"]}) == value

    @pytest.mark.parametrize("coefficients,text", [
        ({}, "0"),
        ({1: 2}, "2t"),
        ({2: 1, 1: -2}, "t^2 - 2t"),
        ({2: 1}, "t^2"),
        ({3: -1, 1: 1}, "-t^3 + t"),
        ({1: -2}, "-2t"),
    ])
    def test_to_string(self, coefficients, text):
        assert str(poly(coefficients)) == text


class TestChordIndex:
    def test_worked_example_values(self):
        diagram = gauss_from_closure(make_vt(3, 2, 1))
        assert chord_index(diagram, 0) == 1
        assert chord_index(diagram, 1) == -1

    def test_unlinked_chord_is_zero(self):
        nested = parse_gauss_code("O1+ O2+ U2+ U1+")
        assert chord_index(nested, 0) == 0
        assert chord_index(nested, 1) == 0

    def test_classical_positive_braid_knots_vanish(self):
        rng = random.Random(3)
        found = 0
        while found < 60:
            strands = rng.randint(2, 5)
            length = rng.randint(strands - 1, 12)
            word = BraidWord(strands, tuple(
                classical(rng.randint(1, strands - 1)) for _ in range(length)))
            if component_count(word) != 1:
                continue
            found += 1
            diagram = gauss_from_closure(word)
            for chord in range(diagram.n_chords):
                assert chord_index(diagram, chord) == 0

    @given(gauss_diagrams())
    def test_matches_set_based_oracle(self, diagram):
        for chord in range(diagram.n_chords):
            assert chord_index(diagram, chord) == brute_chord_index(diagram, chord)

    def test_invalid_chord(self):
        diagram = gauss_from_closure(make_vt(3, 2, 1))
        with pytest.raises(ValueError):
            chord_index(diagram, 5)


class TestPInvariant:
    def test_empty_diagram(self):
        assert p_invariant(GaussDiagram((), ())) == IndexPolynomial()

    def test_worked_example(self):
        assert p_invariant(gauss_from_closure(make_vt(3, 2, 1))) == poly({1: 2})

    def test_all_virtual_family(self):
        assert p_invariant(gauss_from_closure(make_vt(3, 2, 2))).is_zero

    def test_virtual_trefoil(self):
        diagram = gauss_from_closure(parse_braid("1 1 v1", 2))
        assert p_invariant(diagram) == poly({1: 2})

    @given(gauss_diagrams())
    def test_basepoint_rotation_invariance(self, diagram):
        baseline = p_invariant(diagram)
        for offset in range(1, len(diagram.endpoints)):
            assert p_invariant(rotate(diagram, offset)) == baseline


class TestLowerBound:
    def test_theorem_values(self):
        assert vu_lower_bound(gauss_from_closure(make_vt(7, 3, 1))) == 6
        assert vu_lower_bound(gauss_from_closure(make_vt(6, 5, 2))) == 7

    def test_empty(self):
        assert vu_lower_bound(GaussDiagram((), ())) == 0

    def test_ceiling(self):
        # a single surviving term of odd weight still costs one change
        diagram = gauss_from_closure(parse_braid("1 1 v1", 2))
        assert p_invariant(diagram).abs_coefficient_sum() == 2
        assert vu_lower_bound(diagram) == 1
        # an odd absolute coefficient sum rounds up
        assert [bound_from_p(IndexPolynomial(terms)) for terms in (
            ((1, 1),), ((2, -3), (1, 2)), ((3, 2), (1, -2)))] == [1, 3, 2]


def crossing_indices(diagram):
    """u's crossing index n(c) = sign(c) * chord_index(c) of every chord."""
    return [sign * chord_index(diagram, chord)
            for chord, sign in enumerate(diagram.signs)]


class TestCrossingIndex:
    def test_worked_example_antisymmetry(self):
        diagram = gauss_from_closure(make_vt(3, 2, 1))
        assert crossing_indices(diagram) == [1, -1]
        assert [brute_crossing_index(diagram, c) for c in (0, 1)] == [1, -1]

    def test_unlinked_chord_is_zero(self):
        nested = parse_gauss_code("O1+ O2+ U2+ U1+")
        assert crossing_indices(nested)[0] == brute_crossing_index(nested, 0) == 0

    @given(gauss_diagrams())
    def test_total_is_zero_and_matches_oracle(self, diagram):
        # the oracle reads the crossing index off the hand-flipped diagram
        values = crossing_indices(diagram)
        assert sum(values) == 0
        positive = flipped_positive(diagram)
        for chord, value in enumerate(values):
            assert value == brute_crossing_index(positive, chord)


class TestUInvariant:
    def test_worked_example_cancels(self):
        assert u_invariant(gauss_from_closure(make_vt(3, 2, 1))).is_zero

    def test_empty(self):
        assert u_invariant(GaussDiagram((), ())).is_zero

    def test_virtual_trefoil(self):
        assert u_invariant(gauss_from_closure(parse_braid("1 1 v1", 2))).is_zero

    def test_one_component_family_sweep_vanishes(self):
        for i in range(2, 9):
            for j in range(1, i + 1):
                for k in range(i):
                    word = make_ijk(i, j, k)
                    if component_count(word) != 1:
                        continue
                    assert u_invariant(gauss_from_closure(word)).is_zero

    @given(gauss_diagrams())
    def test_crossing_change_invariance(self, diagram):
        baseline = u_invariant(diagram)
        for chord in range(diagram.n_chords):
            assert u_invariant(flip(diagram, chord)) == baseline

    @given(gauss_diagrams())
    def test_matches_brute_force_on_the_normalized_diagram(self, diagram):
        # u reads P's arc sums: its crossing index is sign(c) * i(c)
        assert u_invariant(diagram) == poly(brute_u_coefficients(diagram))
        assert crossing_indices(flipped_positive(diagram)) == crossing_indices(diagram)

    @given(gauss_diagrams())
    def test_basepoint_rotation_invariance(self, diagram):
        baseline = u_invariant(diagram)
        for offset in range(1, len(diagram.endpoints)):
            assert u_invariant(rotate(diagram, offset)) == baseline

    def test_nonzero_example_from_scan(self):
        # virtualizing crossings {0, 1, 4} of the (3,4) torus braid leaves a
        # knot that no crossing changes can undo
        diagram = gauss_from_closure(oracle_subset_word(3, 4, (0, 1, 4)))
        value = u_invariant(diagram)
        assert value == poly({2: -1, 1: 2})
        assert value.abs_coefficients() == {2: 1, 1: 2}
        assert poly({m: -b for m, b in value.terms}) == poly({2: 1, 1: -2})


class TestOnePass:
    @given(gauss_diagrams(max_chords=7))
    # indices 1, 2, -1, 0 under signs -, +, +, -: u = t^2 - 2t, P = t^2
    @example(parse_gauss_code("O1- O2+ U1- O3+ U2+ U3+ O4- U4-"))
    # indices 0, -2, 2, 0: P = 2t^2 while u's two terms cancel
    @example(parse_gauss_code("O1- U2+ O3+ U1- O2+ U3+ O4- U4-"))
    def test_u_and_p_match_the_brute_force_oracles(self, diagram):
        u, p = u_and_p(diagram)
        assert u == poly(brute_u_coefficients(diagram))
        assert p == poly(brute_p_coefficients(diagram))
        assert (u, p) == (u_invariant(diagram), p_invariant(diagram))


def seeded_torus_word(strands, seed, virtual_share=0.15):
    """The (strands, strands-1) torus braid with random signs and a share of
    its letters virtual; strands and blocks are coprime, so it is a knot."""
    rng = random.Random(seed)
    blocks = strands - 1
    total = blocks * blocks
    virtual_at = set(rng.sample(range(total), round(virtual_share * total)))
    letters = [virtual(position % blocks + 1) if position in virtual_at
               else classical(position % blocks + 1, rng.choice((1, -1)))
               for position in range(total)]
    return BraidWord(strands, tuple(letters))


@pytest.mark.parametrize("word", [
    make_vt(30, 29, 2),
    seeded_torus_word(20, seed=7),
    seeded_torus_word(22, seed=8),
], ids=["vt:30,29,2", "seeded-20", "seeded-22"])
def test_polynomials_match_brute_force_at_scale(word):
    """Hundreds of chords, so many arcs wrap past the basepoint."""
    diagram = gauss_from_closure(word)
    assert diagram.n_chords >= 300
    over, under = diagram.chord_positions()
    assert sum(o > u for o, u in zip(over, under)) >= 100
    assert p_invariant(diagram) == poly(brute_p_coefficients(diagram))
    assert u_invariant(diagram) == poly(brute_u_coefficients(diagram))
    assert sum(crossing_indices(diagram)) == 0
