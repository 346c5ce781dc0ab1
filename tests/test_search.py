"""Virtualization scans and the half-sum table."""

import itertools
import json
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from vknot.braid import make_vt
from vknot.cli import _scan_lines
from vknot.gauss import (GaussDiagram, MultiComponentError, Role, gauss_from_closure,
                         remove_chords)
from vknot.invariants import (IndexPolynomial, _arc_sums, _endpoint_weights, _u_and_p,
                              p_invariant, u_invariant)
from vknot.search import (
    ScanRecord,
    _records_without,
    _scan_subsets,
    default_table_pairs,
    scan_torus_virtualizations,
    table_to_csv,
    table_vt2,
    torus_word,
)

from oracles import fold_summary, oracle_subset_word
from strategies import gauss_diagrams

TABLE_VALUES = {
    (3, 2): 0, (4, 3): 1, (5, 2): 0, (5, 3): 2, (5, 4): 4, (6, 5): 7,
    (7, 2): 0, (7, 3): 3, (7, 4): 6, (7, 5): 9, (7, 6): 12, (8, 3): 3,
    (8, 5): 9, (8, 7): 17,
}


def without(diagram, subsets):
    """(subset, (u, P)) for each of ``subsets`` of chord ids, in the given
    order, from the scan's loop: each subset named with chord c as
    ``label(c)``, as the scan's enumeration names them."""
    def named(label):
        labels = list(map(label, range(diagram.n_chords)))
        return [tuple(labels[c] for c in subset) for subset in subsets]

    return [(record.subset, record[2:]) for record in _records_without(diagram, named)]


class TestVirtualizeSubset:
    """A subset's word, built by the oracle, and the torus diagram without
    the subset's chords, which the scan reads in its place."""

    def test_block_prefixes_recover_the_vt_family(self):
        for p, q in [(3, 2), (4, 3), (5, 4)]:
            for n in range(1, q + 1):
                subset = range(n * (p - 1))
                assert oracle_subset_word(p, q, subset) == make_vt(p, q, n)

    def test_empty_subset_is_the_classical_braid(self):
        assert oracle_subset_word(4, 3, ()) == torus_word(4, 3)

    def test_full_subset_erases_every_crossing(self):
        word = oracle_subset_word(3, 2, range(4))
        assert gauss_from_closure(word) == GaussDiagram((), ())
        base = gauss_from_closure(torus_word(3, 2))
        assert remove_chords(base, range(4)) == GaussDiagram((), ())

    def test_position_out_of_range(self):
        with pytest.raises(ValueError, match="invalid chord reference 4"):
            remove_chords(gauss_from_closure(torus_word(3, 2)), (4,))

    def test_rejects_small_parameters(self):
        with pytest.raises(ValueError, match=r"need p >= 2 and q >= 2, got \(2,1\)"):
            list(scan_torus_virtualizations(2, 1))

    @pytest.mark.parametrize("position", [1.0, True, False, "1", None])
    def test_rejects_non_integer_positions(self, position):
        # 1.0 and True compare equal to chord 1 but do not name it
        base = gauss_from_closure(torus_word(3, 2))
        with pytest.raises(ValueError, match="invalid chord reference"):
            remove_chords(base, (0, position))


class TestScan:
    def test_trefoil_diagram_scan(self):
        records = list(scan_torus_virtualizations(3, 2))
        assert len(records) == 16
        assert all(record.components == 1 for record in records)
        vt_patterns = {(0, 1), (0, 1, 2, 3)}
        for record in records:
            assert record.u is not None
            if record.subset in vt_patterns:
                assert record.u.is_zero
        # this diagram is too small to carry a nonzero u
        assert fold_summary(records).nonzero_u == 0

    def test_classical_subset_has_zero_invariants(self):
        record = next(iter(scan_torus_virtualizations(3, 2)))
        assert record.subset == ()
        assert record.u.is_zero and record.P.is_zero

    def test_multi_component_subsets_skip_invariants(self):
        records = list(scan_torus_virtualizations(4, 2))
        links = [r for r in records if r.components > 1]
        assert links and all(r.u is None and r.P is None for r in links)

    def test_enumeration_order_is_size_then_lex(self):
        subsets = [r.subset for r in scan_torus_virtualizations(3, 2, limit=8)]
        assert subsets == [(), (0,), (1,), (2,), (3,),
                           (0, 1), (0, 2), (0, 3)]

    def test_limit_truncates(self):
        assert len(list(scan_torus_virtualizations(3, 2, limit=5))) == 5
        assert list(scan_torus_virtualizations(3, 2, limit=0)) == []

    @pytest.mark.parametrize("p,q", [(3, 2), (4, 2)])
    def test_negative_limit_rejected(self, p, q):
        with pytest.raises(ValueError, match="limit must be >= 0"):
            list(scan_torus_virtualizations(p, q, limit=-3))

    @pytest.mark.parametrize("p,q,limit", [(5.0, 4, None), (5, 4.0, None), (5, 4, True)])
    def test_non_integer_arguments_rejected(self, p, q, limit):
        with pytest.raises(ValueError, match="integer"):
            list(scan_torus_virtualizations(p, q, limit))

    def test_determinism(self):
        first = list(scan_torus_virtualizations(3, 4, limit=200))
        second = list(scan_torus_virtualizations(3, 4, limit=200))
        assert first == second

    def test_large_scan_requires_explicit_limit(self):
        with pytest.raises(ValueError):
            list(scan_torus_virtualizations(4, 6))
        assert len(list(scan_torus_virtualizations(4, 6, limit=3))) == 3

    def test_vt_pattern_subsets_have_zero_u_in_larger_scan(self):
        records = {r.subset: r for r in scan_torus_virtualizations(4, 3)}
        for n in (1, 2, 3):
            record = records[tuple(range(n * 3))]
            assert record.is_knot and record.u.is_zero

    def test_nonzero_u_discovery_on_3_4(self):
        records = list(scan_torus_virtualizations(3, 4))
        summary = fold_summary(records)
        assert summary.subsets == 256
        assert summary.knots == 256
        assert summary.nonzero_u == 48
        assert summary.pattern_attained
        assert summary.first_nonzero_u == (0, 1, 4)

    @pytest.mark.parametrize("p,q", [(3, 4), (4, 3), (5, 3), (3, 5), (2, 4),
                                     (4, 2), (3, 3), (2, 5), (6, 2)])
    def test_records_match_a_trace_of_each_subset(self, p, q):
        # the scan traces the torus braid once and deletes chords; here
        # every subset's word is built and traced on its own
        for record in scan_torus_virtualizations(p, q):
            word = oracle_subset_word(p, q, record.subset)
            try:
                diagram = gauss_from_closure(word)
            except MultiComponentError as error:
                expected = ScanRecord(record.subset, error.components, None, None)
            else:
                expected = ScanRecord(record.subset, 1, u_invariant(diagram),
                                      p_invariant(diagram))
            assert record == expected

    @pytest.mark.parametrize("p,q", [(3, 11), (4, 7), (5, 6), (7, 4)])
    def test_sampled_subsets_match_a_trace_beyond_16_chords(self, p, q):
        # too many subsets to trace them all, so a seeded sample of 200
        # goes through one memo, as a scan's subsets do
        total = (p - 1) * q
        rng = random.Random(total * 100 + p)
        subsets = [tuple(sorted(rng.sample(range(total), rng.randint(0, total))))
                   for _ in range(200)]
        base = gauss_from_closure(torus_word(p, q))
        for subset, u_and_p in without(base, subsets):
            diagram = gauss_from_closure(oracle_subset_word(p, q, subset))
            assert u_and_p == (u_invariant(diagram), p_invariant(diagram))

    def test_polynomials_are_shared_per_memo_entry(self):
        # every subset with the same memo key gets the same two objects, and
        # equal polynomials are one object; the dict keeps every object
        # alive, so no id is reused
        entries, polynomials = set(), {}
        for record in scan_torus_virtualizations(5, 4):
            entries.add((id(record.u), id(record.P)))
            polynomials.update({id(record.u): record.u, id(record.P): record.P})
        assert len(entries) <= 481
        assert len(polynomials) == len(set(polynomials.values()))

    def test_summary_json_shape(self):
        summary = fold_summary(scan_torus_virtualizations(3, 2))
        assert summary.to_json_dict() == {
            "subsets": 16, "knots": 16, "nonzero_u": 0,
            "pattern_attained": False, "first_nonzero_u": None,
        }


class TestScanSubsets:
    """The one enumeration behind the scan's chord ids and packed rows and
    the CLI's position texts."""

    @pytest.mark.parametrize("p,q", [(3, 2), (3, 3), (4, 3)])
    def test_every_label_gives_the_order_of_plain_combinations(self, p, q):
        total = (p - 1) * q
        for limit in [*range(total + 3), None]:
            expected = list(itertools.islice(itertools.chain.from_iterable(
                itertools.combinations(range(total), size)
                for size in range(total + 1)), limit))
            labelled = []

            def recording(position):
                labelled.append(position)
                return ("row", position)

            assert list(_scan_subsets(p, q, limit)) == expected
            assert list(_scan_subsets(p, q, limit, str)) == [
                tuple(map(str, subset)) for subset in expected]
            assert list(_scan_subsets(p, q, limit, recording)) == [
                tuple(("row", c) for c in subset) for subset in expected]
            # each position is labelled once, however many subsets hold it
            assert labelled == list(range(len(labelled)))

    @pytest.mark.parametrize("p,q", [(3, 2), (3, 3), (4, 3), (101, 100)])
    def test_a_limited_scan_labels_only_the_positions_it_reaches(self, p, q):
        # up to limit = total, the subsets are () and the first limit - 1
        # singletons, so a label that builds a row builds only those rows
        total = (p - 1) * q
        for limit in sorted({*range(min(total, 12) + 1), total}):
            labelled = []
            subsets = list(_scan_subsets(p, q, limit, labelled.append))
            assert len(subsets) == limit
            assert len(labelled) <= max(limit - 1, 0)


class TestScanRecord:
    KNOT = ScanRecord((0, 9, 10, 99, 100, 1234), 1,
                      IndexPolynomial(((2, 1), (1, -2))), IndexPolynomial(((3, -1),)))
    LINK = ScanRecord((0, 9, 10, 99, 100, 1234), 3, None, None)

    @pytest.mark.parametrize("field", ["subset", "components", "u", "P"])
    def test_fields_cannot_be_assigned(self, field):
        with pytest.raises(AttributeError):
            setattr(self.KNOT, field, None)

    def test_equal_values_give_equal_records_and_hashes(self):
        twin = ScanRecord(tuple([0, 9, 10, 99, 100, 1234]), 1,
                          IndexPolynomial(((2, 1), (1, -2))),
                          IndexPolynomial(((3, -1),)))
        assert twin == self.KNOT and hash(twin) == hash(self.KNOT)
        assert twin != self.LINK

    def test_repr_names_every_field(self):
        assert repr(self.LINK) == (
            "ScanRecord(subset=(0, 9, 10, 99, 100, 1234), components=3, "
            "u=None, P=None)")

    @pytest.mark.parametrize("record", [KNOT, LINK], ids=["knot", "link"])
    def test_json_line_is_the_sorted_json_dict(self, record):
        # positions of one to four digits, joined from their texts
        texts = [tuple(map(str, record.subset))]
        assert next(_scan_lines([record], texts, False)) == json.dumps(
            record.to_json_dict(), sort_keys=True) + "\n"

    @given(st.lists(st.integers(0, 10_000), max_size=6), st.integers(1, 9),
           st.dictionaries(st.integers(1, 40), st.integers(-50, 50), max_size=8),
           st.dictionaries(st.integers(1, 40), st.integers(-50, 50), max_size=8))
    @example([], 1, {}, {})
    @example([0, 12], 1, {12: -3, 10: 1, 1: -1}, {1: 2})
    def test_json_parts_wrap_any_subset(self, subset, components, u, P):
        # the parts depend on (components, u, P) alone, and any subset's
        # positions between them give the record's sorted JSON line
        u, P = (IndexPolynomial.from_coefficients(c) for c in (u, P))
        record = ScanRecord(tuple(subset), components, u, P)
        head, tail = ScanRecord((), components, u, P).json_parts()
        expected = json.dumps(record.to_json_dict(), sort_keys=True) + "\n"
        assert head + ", ".join(map(str, subset)) + tail == expected
        assert next(_scan_lines([record], [tuple(map(str, subset))], False)) == expected


class TestChordDeletion:
    @given(gauss_diagrams(max_chords=7), st.data())
    def test_zeroed_weights_give_the_smaller_diagrams_indices(self, diagram, data):
        n = diagram.n_chords
        dropped = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        subset = tuple(chord for chord in range(n) if dropped[chord])
        weights = _endpoint_weights(diagram)
        over, under = diagram.chord_positions()
        for chord in subset:
            weights[over[chord]] = weights[under[chord]] = 0
        sums = _arc_sums(diagram, weights)
        survivors = [sums[chord] for chord in range(n) if not dropped[chord]]
        assert survivors == _arc_sums(remove_chords(diagram, subset))

    @given(gauss_diagrams(max_chords=6))
    def test_memoised_polynomials_match_the_smaller_diagram(self, diagram):
        # every subset through one memo, as in a scan, so that subsets
        # whose indices agree but whose signs differ meet in the memo
        chords = range(diagram.n_chords)
        subsets = [subset for size in range(diagram.n_chords + 1)
                   for subset in itertools.combinations(chords, size)]
        pairs = without(diagram, subsets)
        assert [subset for subset, _ in pairs] == subsets
        for subset, u_and_p in pairs:
            smaller = remove_chords(diagram, subset)
            assert u_and_p == (u_invariant(smaller), p_invariant(smaller))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 63, 64, 65, 66])
    def test_indices_at_the_field_width_edges(self, n):
        # O0 ... O(n-1) U0 ... U(n-1): chord c's arc holds the over endpoints
        # of the chords after it and the under endpoints of those before it,
        # so with equal signs chord 0's index is +-(n - 1), the extreme; each
        # index takes a field of 2 * (index + n) + [sign > 0] <= 4n - 1, so
        # 64 chords fit one byte a field and 65 need two
        endpoints = ([(c, Role.OVER) for c in range(n)]
                     + [(c, Role.UNDER) for c in range(n)])
        patterns = [[1] * n, [-1] * n, [-1] + [1] * (n - 1),
                    [1] * (n - 1) + [-1], [(-1) ** c for c in range(n)]]
        rng = random.Random(n)
        if n <= 7:
            subsets = [subset for size in range(n + 1)
                       for subset in itertools.combinations(range(n), size)]
        else:
            subsets = [(), (0,), (n - 1,), tuple(range(n)), tuple(range(1, n)),
                       *(tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
                         for _ in range(20))]
        for signs in patterns:
            diagram = GaussDiagram(tuple(endpoints), tuple(signs))
            if signs[1:] == [signs[0]] * (n - 1):
                assert abs(_arc_sums(diagram)[0]) == n - 1
            for subset, u_and_p in without(diagram, subsets):
                smaller = remove_chords(diagram, subset)
                assert u_and_p == (u_invariant(smaller), p_invariant(smaller))

    @pytest.mark.parametrize("n, seed", [(8, 0), (9, 4), (10, 2), (64, None), (65, None)])
    def test_each_key_is_decoded_once_without_removed_chords(self, monkeypatch, n, seed):
        # removed chords and chords of index 0 add nothing to u or P, and
        # at every field width (one byte to n = 64, two at n = 65) neither
        # enters the memo key, so each decode reads the nonzero (index,
        # sign) pairs of one multiset of them, once.  The random diagrams
        # are scanned over every subset, the edge diagrams of the
        # field-width test, with alternating signs, over the subsets of up
        # to two chords and their complements
        if seed is None:
            endpoints = ([(c, Role.OVER) for c in range(n)]
                         + [(c, Role.UNDER) for c in range(n)])
            diagram = GaussDiagram(tuple(endpoints), tuple((-1) ** c for c in range(n)))
            chords = range(n)
            subsets = [subset for size in (0, 1, 2)
                       for subset in itertools.combinations(chords, size)]
            subsets += [tuple(c for c in chords if c not in subset) for subset in subsets]
        else:
            rng = random.Random(seed)
            endpoints = [(c, role) for c in range(n) for role in Role]
            rng.shuffle(endpoints)
            diagram = GaussDiagram(tuple(endpoints),
                                   tuple(rng.choice((1, -1)) for _ in range(n)))
            subsets = [subset for size in range(n + 1)
                       for subset in itertools.combinations(range(n), size)]
        assert {*diagram.signs} == {1, -1}
        decoded = []

        def recording(values, signs):
            pairs = sorted(zip(values, signs))
            decoded.append(tuple(pairs))
            return _u_and_p([value for value, _ in pairs], [sign for _, sign in pairs])

        monkeypatch.setattr("vknot.search._u_and_p", recording)
        keys, reached_zero = set(), False
        for subset, u_and_p in without(diagram, subsets):
            smaller = remove_chords(diagram, subset)
            assert u_and_p == (u_invariant(smaller), p_invariant(smaller))
            pairs = sorted(zip(_arc_sums(smaller), smaller.signs))
            keys.add(tuple(pair for pair in pairs if pair[0]))
            reached_zero = reached_zero or (0, 1) in pairs or (0, -1) in pairs
        assert reached_zero
        assert len(decoded) == len(keys)
        assert set(decoded) == keys


class TestTable:
    def test_default_pairs_below_8(self):
        assert default_table_pairs(8) == list(TABLE_VALUES)
        assert default_table_pairs(3) == [(3, 2)]

    @pytest.mark.parametrize("max_p", [2, 1, 0, -1])
    def test_default_pairs_reject_max_p_below_3(self, max_p):
        with pytest.raises(ValueError, match=f"max_p >= 3, got {max_p}"):
            default_table_pairs(max_p)

    def test_values(self):
        rows = table_vt2(default_table_pairs(8))
        assert {(row.p, row.q): row.half_sum for row in rows} == TABLE_VALUES

    def test_rejects_links_and_small_q(self):
        with pytest.raises(ValueError):
            table_vt2([(4, 2)])
        with pytest.raises(ValueError):
            table_vt2([(5, 1)])

    def test_csv_rendering(self):
        rows = table_vt2([(3, 2), (6, 5)])
        assert table_to_csv(rows) == "p,q,half_sum\n3,2,0\n6,5,7\n"
