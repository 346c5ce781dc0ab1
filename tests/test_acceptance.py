"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected value here is exact; the few stated runtime ceilings are
asserted with the generous budgets they were specified with.
"""

import contextlib
import random
import time
from math import gcd

from vknot.braid import (
    BraidWord,
    classical,
    component_count,
    make_ijk,
    make_vt,
)
from vknot.cli import main
from vknot.gauss import emit_gauss_code, flip, gauss_from_closure
from vknot.invariants import (
    IndexPolynomial,
    chord_index,
    p_invariant,
    u_invariant,
    vu_lower_bound,
)
from vknot.search import (
    REPORTED_U_PATTERN,
    default_table_pairs,
    scan_torus_virtualizations,
    table_vt2,
)
from vknot.unknotting import unknotting_sequence, verify_theorem2

from oracles import (apply_rewrite, fold_summary, oracle_knot_states, reduce_r1_r2,
                     rewrite_moves)

TABLE_COLUMN = {
    (3, 2): 0, (4, 3): 1, (5, 2): 0, (5, 3): 2, (5, 4): 4, (6, 5): 7,
    (7, 2): 0, (7, 3): 3, (7, 4): 6, (7, 5): 9, (7, 6): 12, (8, 3): 3,
    (8, 5): 9, (8, 7): 17,
}


@contextlib.contextmanager
def criterion(number, name, budget=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number} ({name}): PASS ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s"


def test_1_table_reproduction(capsys):
    with criterion(1, "half-sum table", budget=5.0):
        rows = table_vt2(default_table_pairs(8))
        assert {(row.p, row.q): row.half_sum for row in rows} == TABLE_COLUMN
        assert main(["table", "vt2", "--max-p", "8"]) == 0
        out = capsys.readouterr().out
        parsed = {}
        for line in out.splitlines()[1:]:
            p, q, half = line.split(",")
            parsed[(int(p), int(q))] = int(half)
        assert parsed == TABLE_COLUMN


def test_2_bounds_meet_explicit_sequences():
    with criterion(2, "bound equals sequence cost, i <= 12", budget=30.0):
        report = verify_theorem2(12)
        assert [(row.i, row.j, row.k) for row in report.rows] == \
            list(oracle_knot_states(12))
        assert report.all_passed
        for row in report.rows:
            assert row.lower == row.upper == row.formula
            assert row.formula == ((row.i - 1) * (row.j - 1) + row.k) // 2


def test_3_singly_virtualized_instances():
    with criterion(3, "singly-virtualized torus values"):
        for p in range(2, 13):
            for q in range(1, 13):
                if gcd(p, q) != 1:
                    continue
                expected = (p - 1) * (q - 1) // 2
                word = make_ijk(p, q, 0)
                assert word == make_vt(p, q, 1)
                assert vu_lower_bound(gauss_from_closure(word)) == expected
                assert unknotting_sequence(p, q, 0).total_changes == expected
        figure_knot = gauss_from_closure(make_vt(7, 3, 1))
        assert vu_lower_bound(figure_knot) == 6


def test_4_positive_classical_braid_knots_have_zero_p():
    with criterion(4, "positive classical braid knots"):
        rng = random.Random(20260810)
        zero = IndexPolynomial()
        found = 0
        while found < 500:
            strands = rng.randint(2, 6)
            length = rng.randint(strands - 1, 14)
            word = BraidWord(strands, tuple(
                classical(rng.randint(1, strands - 1)) for _ in range(length)))
            if component_count(word) != 1:
                continue
            found += 1
            assert p_invariant(gauss_from_closure(word)) == zero
        assert found == 500


def test_5_family_chords_all_count():
    with criterion(5, "every family chord has nonzero index"):
        for i, j, k in oracle_knot_states(10):
            diagram = gauss_from_closure(make_ijk(i, j, k))
            for chord in range(diagram.n_chords):
                assert chord_index(diagram, chord) != 0
            total = p_invariant(diagram).abs_coefficient_sum()
            assert total == (i - 1) * (j - 1) + k


def test_6_multi_virtualized_lower_bounds():
    with criterion(6, "coprime multi-virtualization inequality"):
        checked = 0
        for p in range(2, 9):
            for q in range(1, 9):
                if gcd(p, q) != 1:
                    continue
                for n in range(1, q + 1):
                    if gcd(p, n) != 1:
                        continue
                    word = make_vt(p, q, n)
                    assert component_count(word) == 1
                    total = p_invariant(
                        gauss_from_closure(word)).abs_coefficient_sum()
                    assert total >= (p - 1) * (q - n)
                    checked += 1
        assert checked > 50


def _family_words(max_size):
    words = []
    for p in range(3, max_size + 1):
        for q in range(2, p):
            if gcd(p, q) != 1:
                continue
            for n in range(1, q + 1):
                words.append(make_vt(p, q, n))
    for i, j, k in oracle_knot_states(max_size):
        words.append(make_ijk(i, j, k))
    return words


def _assert_crossing_indices_sum_to_zero(diagram):
    # u's crossing index of chord c is sign(c) * chord_index(c)
    total = sum(sign * chord_index(diagram, chord)
                for chord, sign in enumerate(diagram.signs))
    assert total == 0


def test_7_invariance_suite():
    with criterion(7, "invariance under rewrites, reductions, flips"):
        rng = random.Random(97)
        walk_words = [make_vt(4, 3, 1), make_vt(5, 2, 1), make_vt(5, 3, 2),
                      make_vt(5, 4, 2), make_vt(6, 5, 3), make_vt(7, 3, 1),
                      make_ijk(4, 3, 2), make_ijk(5, 4, 2), make_ijk(5, 5, 4),
                      make_ijk(6, 3, 2), make_ijk(6, 5, 0), make_ijk(7, 2, 2)]
        assert all(component_count(word) == 1 for word in walk_words)
        rewrites_applied = reductions = reducing_calls = 0
        for word in walk_words:
            base = gauss_from_closure(word)
            expected_p = p_invariant(base)
            expected_u = u_invariant(base)
            current = word
            cap = len(word) + 8
            for _ in range(90):
                moves = rewrite_moves(current,
                                      include_insertions=len(current) < cap)
                current = apply_rewrite(current, rng.choice(moves))
                rewrites_applied += 1
                diagram = gauss_from_closure(current)
                assert p_invariant(diagram) == expected_p
                assert u_invariant(diagram) == expected_u
                _assert_crossing_indices_sum_to_zero(diagram)
                if rewrites_applied % 9 == 0:
                    reduced = reduce_r1_r2(diagram)
                    reductions += 1
                    reducing_calls += reduced.n_chords < diagram.n_chords
                    assert p_invariant(reduced) == expected_p
                    assert u_invariant(reduced) == expected_u
                    _assert_crossing_indices_sum_to_zero(reduced)
        assert rewrites_applied >= 1000
        # the walk's inserted cancelling pairs give the reducer work to do
        assert reducing_calls > reductions // 2

        for word in _family_words(8):
            diagram = gauss_from_closure(word)
            expected_u = u_invariant(diagram)
            _assert_crossing_indices_sum_to_zero(diagram)
            for chord in range(diagram.n_chords):
                assert u_invariant(flip(diagram, chord)) == expected_u


def test_8_null_homotopy_screen():
    with criterion(8, "u vanishes across the virtualized torus family"):
        for p in range(2, 9):
            for q in range(1, 9):
                if gcd(p, q) != 1:
                    continue
                for n in range(1, q + 1):
                    word = make_vt(p, q, n)
                    assert component_count(word) == 1
                    assert u_invariant(gauss_from_closure(word)).is_zero
        worked = gauss_from_closure(make_vt(3, 2, 1))
        assert emit_gauss_code(worked) == "U2+ O1+ O2+ U1+"
        assert p_invariant(worked) == IndexPolynomial.from_coefficients({1: 2})
        assert u_invariant(worked).is_zero


def test_9_scan_finds_non_null_homotopic_knot():
    with criterion(9, "virtualization scan finds nonzero u", budget=120.0):
        pairs = [(3, 2), (2, 3), (3, 4), (4, 3)]
        assert all((p - 1) * q <= 16 for p, q in pairs)
        summaries = {}
        witness = None
        for p, q in pairs:
            records = list(scan_torus_virtualizations(p, q))
            summaries[(p, q)] = fold_summary(records)
            if witness is None:
                witness = next((r for r in records if r.has_nonzero_u), None)
        assert witness is not None
        assert witness.subset == (0, 1, 4)
        assert witness.u.abs_coefficients() == REPORTED_U_PATTERN
        attained = {pair: s.pattern_attained for pair, s in summaries.items()}
        print(f"  pattern +-(t^2 - 2t) attained by pair: {attained}")
        assert attained == {(3, 2): False, (2, 3): False,
                            (3, 4): True, (4, 3): True}
        assert summaries[(3, 4)].nonzero_u == 48
