"""Command-line behavior: outputs, exit codes, byte stability."""

import concurrent.futures
import io
import itertools
import json
import math
import os
import stat
import subprocess
import sys

import pytest

from vknot.cli import _BLOCK_LINES, _emit, _scan_lines, main, write_atomic
from vknot.gauss import MultiComponentError
from vknot.invariants import IndexPolynomial, _u_and_p
from vknot.search import ScanRecord, _scan_subsets, scan_torus_virtualizations
from vknot import unknotting
from vknot.unknotting import IJKState, NotAKnotError, verify_theorem2

from oracles import fold_summary


def _with_texts(records):
    """``records`` and, in step with them, each one's subset as position
    texts: the two streams ``_scan_lines`` reads."""
    records, copy = itertools.tee(records)
    return records, (tuple(map(str, record.subset)) for record in copy)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class WriteLog(io.StringIO):
    """A stdout that counts its write calls and the lines written so far,
    and notes whether every write ended a line."""

    def __init__(self):
        super().__init__()
        self.writes = self.lines = 0
        self.whole_lines = True

    def write(self, text):
        self.writes += 1
        self.lines += text.count("\n")
        self.whole_lines = self.whole_lines and text.endswith("\n")
        return super().write(text)


class TestInvariants:
    def test_bound_alone_prints_bare_value(self, capsys):
        code, out, _ = run(capsys, "invariants", "--family", "vt:7,3,1", "--bound")
        assert code == 0 and out == "6\n"

    def test_bound_matches_table_value(self, capsys):
        code, out, _ = run(capsys, "invariants", "--family", "vt:6,5,2", "--bound")
        assert code == 0 and out == "7\n"

    def test_unknot_p_and_u(self, capsys):
        code, out, _ = run(capsys, "invariants", "--family", "ijk:2,1,0",
                           "--p", "--u")
        assert code == 0
        assert out.splitlines() == ["P = 0", "u = 0"]

    def test_braid_input_with_gauss_code(self, capsys):
        code, out, _ = run(capsys, "invariants", "--braid", "v1 v2 1 2",
                           "--strands", "3", "--gauss-code")
        assert code == 0
        assert "U2+ O1+ O2+ U1+" in out

    def test_all_outputs_by_default(self, capsys):
        code, out, _ = run(capsys, "invariants", "--family", "vt:3,2,1")
        lines = out.splitlines()
        assert lines == ["P = 2t", "u = 0", "bound = 1",
                         "gauss = U2+ O1+ O2+ U1+"]

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "invariants", "--family", "vt:3,2,1",
                           "--p", "--bound", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"bound": 1,
                           "p": {"terms": [{"exp": 1, "coef": 2}]}}

    def test_multi_component_exit_3(self, capsys):
        code, out, err = run(capsys, "invariants", "--family", "vt:4,2,1",
                             "--bound")
        assert code == 3
        assert "2 components" in err

    @pytest.mark.parametrize("argv", [
        ("invariants", "--family", "vt:bad"),
        ("invariants", "--braid", "x1"),
        ("invariants", "--braid", "v3", "--strands", "3"),
        ("invariants", "--family", "vt:3,2,1", "--strands", "3"),
    ])
    def test_parse_errors_exit_2(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err

    @pytest.mark.parametrize("family,constraint", [
        ("vt:1,1,1", "need p >= 2, q >= 1, 1 <= n <= q"),
        ("ijk:3,1,3", "need i >= 1, j >= 1, 0 <= k < i"),
    ])
    def test_family_ranges_exit_2_naming_the_constraint(self, capsys, family,
                                                        constraint):
        code, out, err = run(capsys, "invariants", "--family", family)
        assert code == 2 and out == ""
        assert constraint in err

    @pytest.mark.parametrize("family", [
        "vt:\u0667,3,1", "ijk:\uff13,2,2", "vt:1_0,3,1", "vt:+7,3,1", "vt: 7 ,3,1",
    ], ids=["arabic-indic", "fullwidth", "underscore", "plus", "spaces"])
    def test_family_digits_must_be_ascii(self, capsys, family):
        code, out, err = run(capsys, "invariants", "--family", family)
        assert code == 2 and out == ""
        assert "family must look like" in err

    @pytest.mark.parametrize("family,message", [
        ("vt7,3,1", "family must look like 'vt:P,Q,N' or 'ijk:I,J,K', got 'vt7,3,1'"),
        ("vt:7,3", "families take exactly three parameters"),
        ("torus:1,2,3", "unknown family variant 'torus'"),
        ("vt:1,1,1", "invalid vt parameters (p,q,n)=(1,1,1): "
                     "need p >= 2, q >= 1, 1 <= n <= q"),
    ], ids=["syntax", "arity", "variant", "range"])
    def test_family_refusals_keep_their_exact_message(self, capsys, family, message):
        # syntax, arity, variant and range are checked in that order
        code, out, err = run(capsys, "invariants", "--family", family)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_json_byte_stability(self, capsys):
        _, first, _ = run(capsys, "invariants", "--family", "ijk:5,3,2", "--json")
        _, second, _ = run(capsys, "invariants", "--family", "ijk:5,3,2", "--json")
        assert first == second


class TestUnknotSeq:
    def test_proof_route(self, capsys):
        code, out, _ = run(capsys, "unknot-seq", "3", "2", "0")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "A (3,2,0) -> (2,2,1) changes=0"
        assert lines[1] == "C (2,2,1) -> (2,1,0) changes=1"
        assert "total = 1" in lines
        assert "ops = 2" in lines

    def test_boundary_triple_total(self, capsys):
        code, out, _ = run(capsys, "unknot-seq", "3", "2", "2")
        assert code == 0
        assert "total = 2" in out.splitlines()

    def test_link_exits_3(self, capsys):
        code, _, err = run(capsys, "unknot-seq", "4", "3", "1")
        assert code == 3 and "components" in err

    def test_bad_state_exits_2(self, capsys):
        code, _, _ = run(capsys, "unknot-seq", "1", "1", "0")
        assert code == 2

    @pytest.mark.parametrize("error", [
        MultiComponentError(2), NotAKnotError(IJKState(2, 2, 0), 2),
    ], ids=["multi-component", "not-a-knot"])
    def test_a_link_in_the_check_exits_3(self, capsys, monkeypatch, error):
        # the row check raises either type for a link; both map to exit 3
        def refuse(*args):
            raise error

        monkeypatch.setattr("vknot.unknotting._verify_sequence", refuse)
        code, out, err = run(capsys, "unknot-seq", "3", "2", "0", "--verify")
        assert (code, out) == (3, "") and "components" in err

    def test_verify_flag(self, capsys):
        code, out, _ = run(capsys, "unknot-seq", "3", "5", "0", "--verify")
        assert code == 0
        assert out.splitlines()[-1] == "verify: ok"

    def test_verify_folds_the_printed_sequence(self, capsys, monkeypatch):
        # the check reuses the sequence's moves: one next_step per move,
        # 300 for the 300 Reduce moves of (2,601,0)
        made = []
        real = unknotting.next_step
        monkeypatch.setattr(unknotting, "next_step",
                            lambda state: made.append(state) or real(state))
        code, out, _ = run(capsys, "unknot-seq", "2", "601", "0", "--verify")
        assert code == 0 and out.splitlines()[-1] == "verify: ok"
        assert len(made) == len(set(made)) == 300

    def test_json(self, capsys):
        code, out, _ = run(capsys, "unknot-seq", "3", "2", "0", "--json",
                           "--verify")
        payload = json.loads(out)
        assert payload["start"] == [3, 2, 0]
        assert payload["total_changes"] == 1
        assert payload["op_count"] == 2
        assert payload["verify"]["pass"] is True
        assert [step["kind"] for step in payload["steps"]] == ["A", "C"]


class TestTable:
    def test_stdout_csv(self, capsys):
        code, out, _ = run(capsys, "table", "vt2", "--max-p", "8")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p,q,half_sum"
        assert len(lines) == 15
        assert "6,5,7" in lines
        assert "8,7,17" in lines

    def test_csv_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run(capsys, "table", "vt2", "--max-p", "5",
                           "--csv", str(target))
        assert code == 0 and out == ""
        assert target.read_text().splitlines() == [
            "p,q,half_sum", "3,2,0", "4,3,1", "5,2,0", "5,3,2", "5,4,4"]

    def test_unwritable_path_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "table", "vt2", "--max-p", "5",
                           "--csv", str(tmp_path / "no" / "dir" / "rows.csv"))
        assert code == 1 and err

    def test_csv_file_replaces_existing(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        target.write_text("stale\n" * 100)
        code, _, _ = run(capsys, "table", "vt2", "--max-p", "3",
                         "--csv", str(target))
        assert code == 0
        assert target.read_text() == "p,q,half_sum\n3,2,0\n"
        assert os.listdir(tmp_path) == ["rows.csv"]

    @pytest.mark.parametrize("max_p", ["2", "-1"])
    def test_max_p_below_3_exits_2_and_leaves_csv_untouched(
            self, capsys, tmp_path, max_p):
        target = tmp_path / "rows.csv"
        target.write_bytes(b"old rows\n")
        code, out, err = run(capsys, "table", "vt2", "--max-p", max_p,
                             "--csv", str(target))
        assert code == 2 and out == ""
        assert err == f"error: need max_p >= 3, got {max_p}\n"
        assert target.read_bytes() == b"old rows\n"
        assert os.listdir(tmp_path) == ["rows.csv"]

    def test_csv_to_a_pipe_is_written_in_place(self, capsys, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code, _, _ = run(capsys, "table", "vt2", "--max-p", "3",
                             "--csv", str(fifo))
            data = os.read(reader, 4096)
        finally:
            os.close(reader)
        assert code == 0 and data == b"p,q,half_sum\n3,2,0\n"
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)


class TestEmit:
    CHUNKS = ("",) * (2 * _BLOCK_LINES + 3) + ("a\n",) + ("",) * 3 + ("b\n", "")

    def test_empty_chunks_do_not_end_stdout(self, monkeypatch):
        out = WriteLog()
        monkeypatch.setattr(sys, "stdout", out)
        _emit(None, iter(self.CHUNKS))
        assert out.getvalue() == "a\nb\n"

    def test_empty_chunks_do_not_end_a_file(self, tmp_path):
        target = tmp_path / "out.txt"
        _emit(str(target), iter(self.CHUNKS))
        assert target.read_bytes() == b"a\nb\n"


class TestAtomicWrite:
    def test_failure_midway_keeps_target_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "out.jsonl"
        target.write_bytes(b"old line\n")

        def chunks():
            yield "new line\n" * 1000
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            write_atomic(str(target), chunks())
        assert target.read_bytes() == b"old line\n"
        assert os.listdir(tmp_path) == ["out.jsonl"]

    def test_new_file_written_whole(self, tmp_path):
        target = tmp_path / "out.csv"
        write_atomic(str(target), ("a,b\n", "1,2\n"))
        assert target.read_bytes() == b"a,b\n1,2\n"
        assert os.listdir(tmp_path) == ["out.csv"]


class TestScan:
    def test_records_and_summary(self, capsys):
        code, out, _ = run(capsys, "scan", "--p", "3", "--q", "2")
        assert code == 0
        lines = out.splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == 17
        assert "summary" in records[-1]
        assert records[-1]["summary"]["knots"] == 16
        assert records[0]["subset"] == []

    def test_nonzero_u_filter_possibly_empty(self, capsys):
        code, out, _ = run(capsys, "scan", "--p", "3", "--q", "2",
                           "--nonzero-u")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 1  # just the summary: no nonzero-u knots here
        assert json.loads(lines[0])["summary"]["nonzero_u"] == 0

    def test_nonzero_u_filter_finds_examples(self, capsys):
        code, out, _ = run(capsys, "scan", "--p", "3", "--q", "4",
                           "--nonzero-u")
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 49
        assert all("subset" in record for record in lines[:-1])
        assert lines[-1]["summary"]["pattern_attained"] is True

    def test_determinism(self, capsys):
        _, first, _ = run(capsys, "scan", "--p", "3", "--q", "4")
        _, second, _ = run(capsys, "scan", "--p", "3", "--q", "4")
        assert first == second

    def test_jsonl_file(self, capsys, tmp_path):
        target = tmp_path / "records.jsonl"
        code, out, _ = run(capsys, "scan", "--p", "3", "--q", "2",
                           "--limit", "4", "--jsonl", str(target))
        assert code == 0 and out == ""
        lines = target.read_text().splitlines()
        assert len(lines) == 5

    def test_lines_are_written_in_blocks_as_records_arrive(self, monkeypatch):
        # memory stays bounded: no more than one block of lines is held back
        out, lines_before = WriteLog(), []

        def records(*args):
            for record in scan_torus_virtualizations(*args):
                lines_before.append(out.lines)
                yield record

        monkeypatch.setattr("vknot.search.scan_torus_virtualizations", records)
        monkeypatch.setattr(sys, "stdout", out)
        limit = 3 * _BLOCK_LINES + 5
        assert main(["scan", "--p", "5", "--q", "3", "--limit", str(limit)]) == 0
        assert len(lines_before) == limit and out.lines == limit + 1
        assert all(count >= r - _BLOCK_LINES
                   for r, count in enumerate(lines_before))
        assert out.whole_lines

    def test_full_scan_writes_whole_blocks(self, monkeypatch):
        out = WriteLog()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["scan", "--p", "5", "--q", "4"]) == 0
        assert out.lines == 2**16 + 1
        assert out.writes <= math.ceil((2**16 + 1) / _BLOCK_LINES) + 1
        assert out.whole_lines

    @pytest.mark.parametrize("p,q,limit", [
        (5, 4, 0), (5, 4, 1), (5, 4, _BLOCK_LINES - 1), (5, 4, _BLOCK_LINES),
        (5, 4, _BLOCK_LINES + 1), (4, 6, 20000)])
    def test_stdout_is_the_joined_lines(self, monkeypatch, p, q, limit):
        out = WriteLog()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["scan", "--p", str(p), "--q", str(q),
                     "--limit", str(limit)]) == 0
        expected = "".join(_scan_lines(
            *_with_texts(scan_torus_virtualizations(p, q, limit)), False))
        assert out.getvalue() == expected and out.whole_lines

    def test_jsonl_file_equals_stdout(self, capsys, tmp_path):
        target = tmp_path / "records.jsonl"
        argv = ("scan", "--p", "5", "--q", "4", "--limit", str(2 * _BLOCK_LINES + 1))
        _, out, _ = run(capsys, *argv)
        code, _, _ = run(capsys, *argv, "--jsonl", str(target))
        assert code == 0 and target.read_bytes() == out.encode()

    def test_failed_jsonl_scan_keeps_target_and_leaves_no_temp(
            self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "records.jsonl"
        target.write_bytes(b"old line\n")

        def records(*args):
            yield from scan_torus_virtualizations(3, 2, 5)
            raise OSError("disk full")

        monkeypatch.setattr("vknot.search.scan_torus_virtualizations", records)
        code, out, err = run(capsys, "scan", "--p", "3", "--q", "2",
                             "--jsonl", str(target))
        assert code == 1 and out == "" and "disk full" in err
        assert target.read_bytes() == b"old line\n"
        assert os.listdir(tmp_path) == ["records.jsonl"]

    def test_interrupted_jsonl_scan_exits_130_and_keeps_target(
            self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "records.jsonl"
        target.write_bytes(b"old line\n")

        def records(*args):
            yield from scan_torus_virtualizations(3, 2, 5)
            raise KeyboardInterrupt

        monkeypatch.setattr("vknot.search.scan_torus_virtualizations", records)
        try:
            code, out, err = run(capsys, "scan", "--p", "3", "--q", "2",
                                 "--jsonl", str(target))
        except KeyboardInterrupt:  # escaping would stop the whole test run
            pytest.fail("KeyboardInterrupt escaped main")
        assert code == 130 and out == ""
        assert err == "error: interrupted\n"
        assert target.read_bytes() == b"old line\n"
        assert os.listdir(tmp_path) == ["records.jsonl"]

    @pytest.mark.parametrize("p,q", [(2, 2), (4, 2), (6, 3), (3, 4), (4, 3),
                                     (5, 3), (3, 5)])
    @pytest.mark.parametrize("nonzero_u", [False, True])
    def test_lines_equal_the_encoded_records(self, p, q, nonzero_u):
        records = list(scan_torus_virtualizations(p, q))
        expected = [json.dumps(record.to_json_dict(), sort_keys=True) + "\n"
                    for record in records
                    if not nonzero_u or record.has_nonzero_u]
        lines = list(_scan_lines(*_with_texts(records), nonzero_u))
        assert lines[:-1] == expected
        assert "summary" in json.loads(lines[-1])

    def test_negative_limit_exits_2_and_prints_nothing(self, capsys):
        code, out, err = run(capsys, "scan", "--p", "5", "--q", "4",
                             "--limit", "-3")
        assert code == 2 and out == ""
        assert err == "error: limit must be >= 0, got -3\n"

    def test_negative_limit_leaves_jsonl_target_untouched(self, capsys, tmp_path):
        target = tmp_path / "records.jsonl"
        target.write_bytes(b"old line\n")
        code, out, err = run(capsys, "scan", "--p", "5", "--q", "4",
                             "--limit", "-3", "--jsonl", str(target))
        assert code == 2 and out == "" and "limit" in err
        assert target.read_bytes() == b"old line\n"
        assert os.listdir(tmp_path) == ["records.jsonl"]

    def test_oversized_scan_leaves_jsonl_target_untouched(self, capsys, tmp_path):
        target = tmp_path / "records.jsonl"
        target.write_bytes(b"old line\n")
        code, out, err = run(capsys, "scan", "--p", "5", "--q", "5",
                             "--jsonl", str(target))
        assert code == 2 and out == ""
        assert err == ("error: 20 crossing positions means 2^20 subsets; "
                       "pass an explicit limit to opt in\n")
        assert target.read_bytes() == b"old line\n"
        assert os.listdir(tmp_path) == ["records.jsonl"]

    def test_zero_limit_prints_the_summary_only(self, capsys):
        code, out, _ = run(capsys, "scan", "--p", "5", "--q", "4", "--limit", "0")
        assert code == 0
        assert json.loads(out) == {"summary": {
            "subsets": 0, "knots": 0, "nonzero_u": 0,
            "pattern_attained": False, "first_nonzero_u": None}}

    def test_oversized_scan_needs_limit(self, capsys):
        code, _, err = run(capsys, "scan", "--p", "4", "--q", "6")
        assert code == 2 and "limit" in err


def _poly(coefficients):
    return IndexPolynomial.from_coefficients(coefficients)


def _encoded(records, nonzero_u=False):
    """The scan's stdout built record by record with json.dumps."""
    lines = [json.dumps(record.to_json_dict(), sort_keys=True) + "\n"
             for record in records if not nonzero_u or record.has_nonzero_u]
    summary = fold_summary(records).to_json_dict()
    return lines + [json.dumps({"summary": summary}, sort_keys=True) + "\n"]


class TestScanClasses:
    """The scan's lines and summary are worked out once per (components, u,
    P) value and must read as if each record were encoded alone."""

    P = _poly({3: -1})
    PATTERN_U = _poly({2: 1, 1: -2})
    RECORDS = [
        ScanRecord((), 1, _poly({}), P),
        ScanRecord((0, 2), 1, PATTERN_U, P),
        ScanRecord((1,), 1, _poly({1: 2}), P),  # one P object, another u
        ScanRecord((0, 1, 2), 3, None, None),
        ScanRecord((5,), 2, None, None),  # a link with other components
        ScanRecord((4,), 2, PATTERN_U, P),  # one (u, P), other components
        # equal values as distinct objects
        ScanRecord((7, 9), 1, _poly({2: 1, 1: -2}), _poly({3: -1})),
        ScanRecord((3,), 1, PATTERN_U, P),
        ScanRecord((1234, 99), 1, _poly({}), P),
        ScanRecord((8,), 3, None, None),
    ]

    @pytest.mark.parametrize("nonzero_u", [False, True])
    def test_hand_built_records_read_as_encoded_alone(self, nonzero_u):
        assert list(_scan_lines(*_with_texts(self.RECORDS), nonzero_u)) == _encoded(
            self.RECORDS, nonzero_u)

    def test_one_encoding_per_class_value(self, monkeypatch):
        # RECORDS holds equal (components, u, P) values as distinct objects
        encoded, json_parts = [], ScanRecord.json_parts
        monkeypatch.setattr(ScanRecord, "json_parts",
                            lambda record: encoded.append(record) or json_parts(record))
        list(_scan_lines(*_with_texts(self.RECORDS), False))
        values = [(record.components, record.u, record.P) for record in encoded]
        assert len(values) == len(set(values)) == 6
        assert set(values) == {(record.components, record.u, record.P)
                               for record in self.RECORDS}

    @pytest.mark.parametrize("start", range(len(RECORDS)))
    def test_summary_folds_classes_in_first_appearance_order(self, start):
        # every rotation moves which class appears first and which record
        # is the first with nonzero u
        records = self.RECORDS[start:] + self.RECORDS[:start]
        *_, summary = _scan_lines(*_with_texts(records), True)
        assert summary == _encoded(records)[-1]

    PAIRS = [(2, 2), (4, 2), (6, 3), (3, 4), (4, 3), (5, 3), (3, 5)]
    CUTS = ["none", "zero", "one", "past_size_1", "past_size_2"]

    @staticmethod
    def limit_at(p, q, cut):
        # links (gcd > 1) and knots, cut after the empty subset, after all
        # subsets of size <= 1 and after all of size <= 2
        n = (p - 1) * q
        return {"none": None, "zero": 0, "one": 1, "past_size_1": n + 1,
                "past_size_2": 1 + n + math.comb(n, 2)}[cut]

    @pytest.mark.parametrize("p,q", PAIRS)
    @pytest.mark.parametrize("cut", CUTS)
    def test_cli_output_at_size_boundaries(self, capsys, p, q, cut):
        limit = self.limit_at(p, q, cut)
        argv = ["scan", "--p", str(p), "--q", str(q)]
        if limit is not None:
            argv += ["--limit", str(limit)]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        records = list(scan_torus_virtualizations(p, q, limit))
        assert out.splitlines(keepends=True) == _encoded(records)

    @pytest.mark.parametrize("p,q", PAIRS)
    @pytest.mark.parametrize("cut", CUTS)
    def test_texts_and_records_follow_one_subset_order(self, p, q, cut):
        # the CLI pairs each record with a text subset by position alone, so
        # both streams must list the same subsets: by size, then
        # lexicographically, as a sort of all 2^n bit masks lists them
        limit, n = self.limit_at(p, q, cut), (p - 1) * q
        ids = list(_scan_subsets(p, q, limit))
        texts = list(_scan_subsets(p, q, limit, str))
        assert texts == [tuple(map(str, subset)) for subset in ids]
        records = scan_torus_virtualizations(p, q, limit)
        assert [record.subset for record in records] == ids
        masks = sorted(range(1 << n), key=lambda mask: (
            mask.bit_count(), [position for position in range(n) if mask >> position & 1]))
        assert ids == [tuple(position for position in range(n) if mask >> position & 1)
                       for mask in masks[:limit]]

    def test_one_class_entry_per_memo_key(self, monkeypatch):
        # a class is encoded when it is first seen, so the encodings count
        # the class entries, and the decodes count the memo keys
        calls = {"decodes": 0, "encodings": 0}

        def counted(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)
            return wrapper

        monkeypatch.setattr("vknot.search._u_and_p", counted("decodes", _u_and_p))
        monkeypatch.setattr(ScanRecord, "json_parts",
                            counted("encodings", ScanRecord.json_parts))
        *_, summary = _scan_lines(*_with_texts(scan_torus_virtualizations(5, 4)), False)
        assert json.loads(summary)["summary"]["subsets"] == 1 << 16
        assert calls["encodings"] <= calls["decodes"] <= 481


class TestVerify:
    def test_small_verify(self, capsys):
        code, out, _ = run(capsys, "verify", "theorem2", "--max-i", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "i j k lower upper formula pass"
        assert lines[-1].endswith("knots pass")
        assert all(line.endswith("ok") for line in lines[1:-1])

    def test_strict_passes_when_green(self, capsys):
        code, _, _ = run(capsys, "verify", "theorem2", "--max-i", "3",
                         "--strict")
        assert code == 0

    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, "verify", "theorem2", "--max-i", "3",
                           "--json")
        rows = json.loads(out)
        assert len(rows) == 6
        assert all(row["pass"] for row in rows)

    def test_workers_match_serial(self, capsys):
        _, serial, _ = run(capsys, "verify", "theorem2", "--max-i", "4")
        _, parallel, _ = run(capsys, "verify", "theorem2", "--max-i", "4",
                             "--workers", "2")
        assert serial == parallel

    def test_workers_start_no_process_pool(self, capsys, monkeypatch):
        _, serial, _ = run(capsys, "verify", "theorem2", "--max-i", "4")

        def refuse(*args, **kwargs):
            raise AssertionError("verify must not start a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        code, out, _ = run(capsys, "verify", "theorem2", "--max-i", "4",
                           "--workers", "2")
        assert code == 0 and out == serial

    def test_bad_max_i_exits_2(self, capsys):
        code, _, _ = run(capsys, "verify", "theorem2", "--max-i", "1")
        assert code == 2

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("max_i", [2, 16, 17])
    def test_report_is_written_in_blocks(self, monkeypatch, max_i, as_json):
        out, rows_written = WriteLog(), []
        write = out.write
        # a row's JSON object holds one "pass" key, its table line one newline
        monkeypatch.setattr(out, "write", lambda text: rows_written.append(
            text.count('"pass"' if as_json else "\n")) or write(text))
        monkeypatch.setattr(sys, "stdout", out)
        argv = ["verify", "theorem2", "--max-i", str(max_i)]
        assert main(argv + ["--json"] * as_json) == 0
        report = verify_theorem2(max_i)
        if as_json:
            rows = [row.to_json_dict() for row in report.rows]
            assert out.getvalue() == json.dumps(rows, sort_keys=True) + "\n"
        else:
            assert out.getvalue() == "".join(report._table_lines()) and out.whole_lines
        # "[" or the header, one chunk per row, then "]\n" or the count:
        # 498 chunks at i = 16 fit in one block, 594 at i = 17 do not
        chunks = len(report.rows) + 2
        assert (chunks > _BLOCK_LINES) == (max_i == 17)
        assert out.writes <= math.ceil(chunks / _BLOCK_LINES) + 1
        assert max(rows_written) <= _BLOCK_LINES


class TestParser:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_missing_source_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["invariants", "--bound"])
        assert info.value.code == 2


def test_link_exits_3_with_assertions_stripped():
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-O", "-m", "vknot.cli", "invariants",
         "--braid", "1 1", "--strands", "2"],
        env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 3, result.stderr
    assert result.stdout == ""
    assert "2 components" in result.stderr


# Runs ``python -m vknot.cli ARGV`` through runpy, then writes on stderr the
# exit code and the layers whose code has run: a layer registered lazily
# and not yet run is still of a ModuleType subclass.
FOOTPRINT = """
import runpy, sys, types
sys.argv[0] = "vknot"
try:
    runpy.run_module("vknot.cli", run_name="__main__", alter_sys=True)
except SystemExit as exit_:
    code = exit_.code
layers = ("braid", "gauss", "invariants", "search", "unknotting")
print(code, *[layer for layer in layers
              if type(sys.modules["vknot." + layer]) is types.ModuleType],
      file=sys.stderr)
"""
CORE = ["braid", "gauss", "invariants"]
SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


class TestStartUp:
    """Each command runs only the layers it uses."""

    @staticmethod
    def footprint(*argv):
        result = subprocess.run(
            [sys.executable, "-S", "-c", FOOTPRINT, *argv],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
            timeout=60)
        *errors, last = result.stderr.splitlines()
        code, *layers = last.split()
        return int(code), layers, result.stdout, errors

    @pytest.mark.parametrize("argv,layers", [
        (["invariants", "--braid", "1 1 1", "--strands", "2"], CORE),
        (["scan", "--p", "2", "--q", "2"], CORE + ["search"]),
        (["table", "vt2", "--max-p", "3"], CORE + ["search"]),
        (["verify", "theorem2", "--max-i", "2"], CORE + ["unknotting"]),
        (["unknot-seq", "3", "5", "0", "--verify"], CORE + ["unknotting"]),
    ], ids=["invariants", "scan", "table", "verify", "unknot-seq"])
    def test_a_command_runs_only_its_layers(self, capsys, argv, layers):
        code, loaded, out, errors = self.footprint(*argv)
        assert (code, errors) == (0, []) and loaded == layers
        assert out == run(capsys, *argv)[1]

    def test_a_link_runs_only_the_core_layers(self):
        code, loaded, out, errors = self.footprint(
            "invariants", "--braid", "1 1", "--strands", "2")
        assert (code, loaded, out) == (3, CORE, "")
        assert errors == ["error: closure has 2 components, need exactly 1"]

    def test_a_link_state_exits_3_with_its_message(self):
        code, loaded, out, errors = self.footprint("unknot-seq", "2", "2", "0")
        assert (code, loaded, out) == (3, CORE + ["unknotting"], "")
        assert errors == ["error: (2,2,0) closes to 2 link components, need exactly 1"]

    def test_not_a_knot_is_a_multi_component_error(self):
        error = NotAKnotError(IJKState(2, 2, 0), 2)
        assert isinstance(error, MultiComponentError)
        assert (error.state, error.components) == (IJKState(2, 2, 0), 2)
        assert str(error) == "(2,2,0) closes to 2 link components, need exactly 1"

    def test_importing_the_package_runs_no_layer(self):
        result = subprocess.run(
            [sys.executable, "-S", "-c",
             "import sys, types, vknot; print(sorted(name for name, module in "
             "sys.modules.items() if name.startswith('vknot.') "
             "and type(module) is types.ModuleType))"],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
            timeout=60)
        assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr
