"""Command-line behavior: outputs, exit codes, byte stability."""

import json
import os
import stat
import subprocess
import sys

import pytest

from vknot.cli import main, write_atomic


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_verify_flag(self, capsys):
        code, out, _ = run(capsys, "unknot-seq", "3", "5", "0", "--verify")
        assert code == 0
        assert out.splitlines()[-1] == "verify: ok"

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

    def test_oversized_scan_needs_limit(self, capsys):
        code, _, err = run(capsys, "scan", "--p", "4", "--q", "6")
        assert code == 2 and "limit" in err


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

    def test_bad_max_i_exits_2(self, capsys):
        code, _, _ = run(capsys, "verify", "theorem2", "--max-i", "1")
        assert code == 2


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
