"""The value types' contract: repr, immutability, hashing, validation; the
package's public names; and a command-line start-up that never imports
``dataclasses``."""

import copy
import os
import pickle
import subprocess
import sys
import types

import pytest

import vknot
from vknot.braid import (BraidLetter, BraidWord, LetterKind, classical, make_ijk,
                         make_vt, parse_braid, parse_family, virtual)
from vknot.gauss import GaussDiagram, Role, gauss_from_closure
from vknot.invariants import IndexPolynomial
from vknot.search import ScanSummary, TableRow, _scan_subsets, default_table_pairs
from vknot.unknotting import (IJKState, StepKind, UnknottingSequence, UnknottingStep,
                              VerifyReport, VerifyRow, next_step, unknotting_sequence,
                              verify_row, verify_theorem2)

# One sample of each public value type, built fresh on every call, and its
# repr as the earlier dataclass-based types printed it.  UnknottingSequence
# stores only its inputs, so its repr leaves out the two totals.
SAMPLES = {
    "BraidLetter": (
        lambda: BraidLetter(LetterKind.VIRTUAL, 2),
        "BraidLetter(kind=<LetterKind.VIRTUAL: 'virtual'>, index=2, sign=1)"),
    "BraidWord": (
        lambda: parse_braid("v1 -2", 3),
        "BraidWord(strands=3, letters=(BraidLetter(kind=<LetterKind.VIRTUAL: "
        "'virtual'>, index=1, sign=1), BraidLetter(kind=<LetterKind.CLASSICAL: "
        "'classical'>, index=2, sign=-1)))"),
    "GaussDiagram": (
        lambda: gauss_from_closure(parse_braid("1 1 1")),
        "GaussDiagram(endpoints=((0, <Role.OVER: 'O'>), (1, <Role.UNDER: 'U'>), "
        "(2, <Role.OVER: 'O'>), (0, <Role.UNDER: 'U'>), (1, <Role.OVER: 'O'>), "
        "(2, <Role.UNDER: 'U'>)), signs=(1, 1, 1))"),
    "IndexPolynomial": (
        lambda: IndexPolynomial(((2, 1), (1, -2))),
        "IndexPolynomial(terms=((2, 1), (1, -2)))"),
    "TableRow": (
        lambda: TableRow(3, 2, 1.5),
        "TableRow(p=3, q=2, half_sum=1.5)"),
    "IJKState": (
        lambda: IJKState(3, 2, 0),
        "IJKState(i=3, j=2, k=0)"),
    "UnknottingStep": (
        lambda: next_step(IJKState(3, 2, 0)),
        "UnknottingStep(kind=<StepKind.A: 'A'>, before=IJKState(i=3, j=2, k=0), "
        "after=IJKState(i=2, j=2, k=1), changes=0)"),
    "UnknottingSequence": (
        lambda: unknotting_sequence(3, 2, 0),
        "UnknottingSequence(start=IJKState(i=3, j=2, k=0), steps=(UnknottingStep("
        "kind=<StepKind.A: 'A'>, before=IJKState(i=3, j=2, k=0), after=IJKState("
        "i=2, j=2, k=1), changes=0), UnknottingStep(kind=<StepKind.C: 'C'>, "
        "before=IJKState(i=2, j=2, k=1), after=IJKState(i=2, j=1, k=0), "
        "changes=1)))"),
    "VerifyRow": (
        lambda: verify_row(3, 2, 0),
        "VerifyRow(i=3, j=2, k=0, lower=1, upper=1, formula=1, passed=True, "
        "detail='')"),
    "VerifyReport": (
        lambda: verify_theorem2(2),
        "VerifyReport(max_i=2, rows=(VerifyRow(i=2, j=1, k=0, lower=0, upper=0, "
        "formula=0, passed=True, detail=''), VerifyRow(i=2, j=2, k=1, lower=1, "
        "upper=1, formula=1, passed=True, detail='')))"),
}
NAMES = sorted(SAMPLES)

# Arguments each validated type or family function refuses, by keyword.  A
# row's id holds its index, so rows are replaced or appended, never removed.
BAD_ARGUMENTS = [
    (BraidLetter, dict(kind=LetterKind.VIRTUAL, index=1, sign=-1)),
    (BraidLetter, dict(kind=LetterKind.CLASSICAL, index=0, sign=1)),
    (BraidLetter, dict(kind=LetterKind.CLASSICAL, index=1, sign=2)),
    (BraidWord, dict(strands=0, letters=())),
    (BraidWord, dict(strands=2, letters=(classical(2),))),
    (parse_family, dict(text="vt:3,2")),
    (parse_family, dict(text="torus:3,2,1")),
    (GaussDiagram, dict(endpoints=((0, Role.OVER),), signs=(1,))),
    (GaussDiagram, dict(endpoints=((0, Role.OVER), (0, Role.UNDER)), signs=(0,))),
    (IndexPolynomial, dict(terms=((1, 0),))),
    (IndexPolynomial, dict(terms=((0, 1),))),
    (IndexPolynomial, dict(terms=((1, 1), (2, 1)))),
    (IJKState, dict(i=1, j=1, k=0)),
    (IJKState, dict(i=3, j=2, k=3)),
    (UnknottingStep, dict(kind=StepKind.A, before=IJKState(3, 2, 0),
                          after=IJKState(2, 2, 1), changes=1)),
    (UnknottingStep, dict(kind=StepKind.C, before=IJKState(3, 2, 0),
                          after=IJKState(3, 1, 0), changes=2)),
    (UnknottingSequence, dict(start=IJKState(3, 2, 0), steps=())),
    # non-integers, which no check may coerce
    (BraidLetter, dict(kind=LetterKind.CLASSICAL, index=1.5, sign=1)),
    (BraidLetter, dict(kind=LetterKind.CLASSICAL, index=1, sign=1.0)),
    (GaussDiagram, dict(endpoints=((0, Role.OVER), (0, Role.UNDER)), signs=(1.0,))),
    (IndexPolynomial, dict(terms=((2.5, 1),))),
    (IndexPolynomial, dict(terms=(("3", 1),))),
    (IndexPolynomial, dict(terms=((2, 1.0),))),
    (IJKState, dict(i=3.0, j=2, k=0)),
    (UnknottingStep, dict(kind=StepKind.A, before=IJKState(3, 2, 0),
                          after=IJKState(2, 2, 1), changes=0.0)),
    (GaussDiagram, dict(endpoints=((0.0, Role.OVER), (0.0, Role.UNDER)), signs=(1,))),
    (GaussDiagram, dict(endpoints=((True, Role.OVER), (True, Role.UNDER),
                                   (0, Role.OVER), (0, Role.UNDER)), signs=(1, 1))),
    (make_vt, dict(p=3.0, q=2, n=1)),
    (make_ijk, dict(i=3, j=True, k=1)),
    # a role must be a Role member, not its letter or anything else
    (GaussDiagram, dict(endpoints=((0, Role.OVER), (0, "O")), signs=(1,))),
    (GaussDiagram, dict(endpoints=((0, None), (0, Role.OVER)), signs=(1,))),
    # a kind must be a LetterKind member, not its value or anything else
    (BraidLetter, dict(kind="classical", index=1, sign=-1)),
    (BraidLetter, dict(kind=None, index=1, sign=1)),
    # a strand count must be an int, bool excluded
    (BraidWord, dict(strands=3.0, letters=(classical(1),))),
    (BraidWord, dict(strands=True, letters=())),
    # scan, table and verify sizes must be ints, bool excluded; the scan
    # checks its arguments in _scan_subsets, which the CLI calls too
    (_scan_subsets, dict(p=5.0, q=4, limit=None)),
    (_scan_subsets, dict(p=5, q=4.0, limit=None)),
    (_scan_subsets, dict(p=5, q=4, limit=True)),
    (default_table_pairs, dict(max_p=8.0)),
    (verify_theorem2, dict(max_i=3.0)),
    # verify_theorem2 refuses too small a size, and a size that is no int
    # before any row is built
    (verify_theorem2, dict(max_i=1)),
    (verify_theorem2, dict(max_i="12")),
    (verify_theorem2, dict(max_i=None)),
    (verify_theorem2, dict(max_i=True)),
]

# Per validated type: a _replace of its sample that stays valid, the value
# it must equal when built fresh, and a _replace that fails a check.
REPLACEMENTS = {
    "BraidLetter": (dict(index=3), lambda: virtual(3), dict(sign=0)),
    "BraidWord": (dict(strands=4), lambda: parse_braid("v1 -2", 4), dict(strands=2)),
    "GaussDiagram": (
        dict(signs=(1, -1, 1)),
        lambda: GaussDiagram(SAMPLES["GaussDiagram"][0]().endpoints, (1, -1, 1)),
        dict(signs=(0, 1, 1))),
    "IndexPolynomial": (dict(terms=((3, 1),)), lambda: IndexPolynomial(((3, 1),)),
                        dict(terms=((0, 0),))),
    "IJKState": (dict(k=1), lambda: IJKState(3, 2, 1), dict(i=1)),
    "UnknottingStep": (dict(before=IJKState(4, 2, 0), after=IJKState(3, 2, 1)),
                       lambda: next_step(IJKState(4, 2, 0)), dict(changes=99)),
    "UnknottingSequence": (dict(steps=list(unknotting_sequence(3, 2, 0).steps)),
                           lambda: unknotting_sequence(3, 2, 0),
                           dict(steps=())),
}


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_unchanged(name):
    make, expected = SAMPLES[name]
    assert repr(make()) == expected


@pytest.mark.parametrize("name", NAMES)
def test_fields_and_new_attributes_cannot_be_set_or_deleted(name):
    value = SAMPLES[name][0]()
    for field in type(value)._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = None
    assert repr(value) == SAMPLES[name][1]


def test_a_diagram_keeps_its_chord_positions():
    diagram = SAMPLES["GaussDiagram"][0]()
    with pytest.raises(AttributeError):
        del diagram._positions
    with pytest.raises(AttributeError):
        diagram._positions = ((), ())
    assert diagram.chord_positions() == ((0, 4, 2), (3, 1, 5))
    assert pickle.loads(pickle.dumps(diagram)).chord_positions() == \
        diagram.chord_positions()


@pytest.mark.parametrize("name", NAMES)
def test_equal_values_hash_equal(name):
    make = SAMPLES[name][0]
    first, second = make(), make()
    assert first is not second
    assert first == second and hash(first) == hash(second)


@pytest.mark.parametrize("name", NAMES)
def test_copies_and_pickles_are_equal_values(name):
    value = SAMPLES[name][0]()
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value
        assert repr(twin) == repr(value)


def test_letters_and_words_keep_their_lengths():
    word = parse_braid("v1 -2 1", 3)
    assert len(word) == 3 and not BraidWord(2)


@pytest.mark.parametrize("cls,kwargs", BAD_ARGUMENTS,
                         ids=[f"{cls.__name__}-{i}" for i, (cls, _) in
                              enumerate(BAD_ARGUMENTS)])
def test_bad_arguments_raise_value_error_by_position_and_keyword(cls, kwargs):
    with pytest.raises(ValueError):
        cls(**kwargs)
    with pytest.raises(ValueError):
        cls(*kwargs.values())


@pytest.mark.parametrize("name", sorted(REPLACEMENTS))
def test_replace_and_make_build_through_the_checks(name):
    value = SAMPLES[name][0]()
    valid, make_fresh, invalid = REPLACEMENTS[name]
    replaced, fresh = value._replace(**valid), make_fresh()
    assert type(replaced) is type(value) and replaced == fresh
    assert type(value)._make(fresh) == fresh
    if name == "GaussDiagram":
        assert replaced.chord_positions() == fresh.chord_positions()
    with pytest.raises(ValueError):
        value._replace(**invalid)


def test_sequence_totals_are_worked_out_not_passed():
    sequence = unknotting_sequence(3, 5, 0)
    assert (sequence.total_changes, sequence.op_count) == (4, 2)
    assert UnknottingSequence(start=sequence.start, steps=list(sequence.steps)) == sequence
    with pytest.raises(TypeError):
        UnknottingSequence(sequence.start, sequence.steps, 4, 2)


def test_unchecked_types_keep_their_defaults():
    assert VerifyRow(2, 1, 0, 0, 0, 0, True).detail == ""
    assert VerifyReport(max_i=2, rows=()).all_passed


class TestScanSummary:
    FIELDS = dict(subsets=3, knots=2, nonzero_u=1, pattern_attained=True,
                  first_nonzero_u=(0, 2))

    def test_keywords_and_defaults(self):
        summary = ScanSummary(**self.FIELDS)
        assert [getattr(summary, name) for name in self.FIELDS] == \
            list(self.FIELDS.values())
        empty = ScanSummary()
        assert (empty.subsets, empty.knots, empty.nonzero_u) == (0, 0, 0)
        assert not empty.pattern_attained and empty.first_nonzero_u is None

    def test_equality_is_by_value(self):
        assert ScanSummary(**self.FIELDS) == ScanSummary(**self.FIELDS)
        assert ScanSummary(**self.FIELDS) != ScanSummary(**{**self.FIELDS, "knots": 3})
        assert ScanSummary() != (0, 0, 0, False, None)

    def test_repr(self):
        assert repr(ScanSummary(**self.FIELDS)) == (
            "ScanSummary(subsets=3, knots=2, nonzero_u=1, pattern_attained=True, "
            "first_nonzero_u=(0, 2))")
        assert repr(ScanSummary()) == (
            "ScanSummary(subsets=0, knots=0, nonzero_u=0, pattern_attained=False, "
            "first_nonzero_u=None)")

    def test_is_mutable_and_unhashable(self):
        summary = ScanSummary()
        summary.subsets += 1
        assert summary == ScanSummary(subsets=1)
        with pytest.raises(TypeError):
            hash(summary)


# Every public name of the package, sorted; adding or removing one means
# editing this list.
PUBLIC_NAMES = """
    BraidLetter BraidParseError BraidWord GaussCodeError GaussDiagram IJKState
    IndexPolynomial LetterKind MultiComponentError NotAKnotError Role ScanRecord
    ScanSummary StepKind TableRow TerminalStateError UnknottingSequence
    UnknottingStep VerifyReport VerifyRow bound_from_p chord_index classical
    component_count default_table_pairs emit_gauss_code flip gauss_from_closure
    make_ijk make_vt next_step p_invariant parse_braid parse_family
    parse_gauss_code scan_torus_virtualizations table_to_csv table_vt2
    torus_word u_and_p u_invariant unknotting_sequence verify_row
    verify_theorem2 virtual vu_lower_bound
""".split()
LAYERS = [f"vknot.{layer}" for layer in ("braid", "gauss", "invariants", "search", "unknotting")]


def test_public_names_are_pinned():
    # the names resolve lazily, so they are pinned through __all__ and dir()
    assert vknot.__all__ == PUBLIC_NAMES
    assert [name for name in dir(vknot) if not name.startswith("_")
            and not isinstance(getattr(vknot, name), types.ModuleType)] == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        value = getattr(vknot, name)
        home = sys.modules[value.__module__]
        assert home.__name__ in LAYERS and getattr(home, name) is value


def test_command_line_start_up_imports_no_dataclasses():
    # dataclasses alone pulls in inspect, ast, dis and tokenize
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    result = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys, vknot.cli; print(sorted(set({heavy!r}) & set(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
