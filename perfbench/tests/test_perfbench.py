"""The benchmark's own tests: its reference, its inputs, its checks and its
tracer.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import random
import time

import pytest

import probe
import reference
import run
import tracer
import workloads
import vknot.braid
import vknot.gauss
from vknot import (component_count, emit_gauss_code, gauss_from_closure, p_invariant,
                   parse_braid, u_invariant, vu_lower_bound)


def captured(data: bytes) -> workloads.Captured:
    out = workloads.Captured()
    out.feed(data)
    return out


def test_reference_matches_the_library_on_random_words():
    rng = random.Random(7)
    knots = 0
    for _ in range(1500):
        strands = rng.randint(2, 6)
        letters = [(rng.randint(1, strands - 1), rng.choice((1, -1, 0)))
                   for _ in range(rng.randint(0, 14))]
        word = parse_braid(reference.word_text(letters), strands)
        if component_count(word) != 1:
            with pytest.raises(ValueError):
                reference.trace(strands, letters)
            continue
        knots += 1
        diagram = gauss_from_closure(word)
        assert reference.invariants(strands, letters) == {
            "bound": vu_lower_bound(diagram),
            "gauss_code": emit_gauss_code(diagram),
            "p": p_invariant(diagram).to_json_dict(),
            "u": u_invariant(diagram).to_json_dict(),
        }
    assert knots > 100


def test_invariants_words_depend_only_on_the_seed():
    first = workloads.invariants_jobs(3)
    assert [job.argv for job in first] == [job.argv for job in workloads.invariants_jobs(3)]
    assert [job.argv for job in first] != [job.argv for job in workloads.invariants_jobs(4)]
    for strands, job in zip(workloads.INVARIANT_STRANDS, first):
        letters = (strands - 1) ** 2
        assert job.items == letters - round(workloads.VIRTUAL_SHARE * letters)


def test_torus_skeletons_close_to_knots_with_mixed_signs():
    letters = workloads.torus_skeleton(9, random.Random(1))
    assert {sign for _, sign in letters} == {-1, 0, 1}
    assert component_count(parse_braid(reference.word_text(letters), 9)) == 1


def test_invariant_check_accepts_the_program_and_rejects_a_change():
    letters = workloads.torus_skeleton(7, random.Random(2))
    job = workloads._invariant_job(7, letters)
    assert job.argv[1].startswith("--braid=")
    result = run.run_in_process(job.argv)
    assert run.job_errors(job, result) == []
    good = json.loads(reference.invariants_stdout(7, letters))
    good["bound"] += 1
    errors = job.check(captured((json.dumps(good, sort_keys=True) + "\n").encode()))
    assert any("bound" in error for error in errors)


def test_scan_and_verify_checks_read_the_summary_and_rows():
    summary = dict(workloads.SCAN_SUMMARY, nonzero_u=1, pattern_attained=True)
    errors = workloads.check_scan(captured(b'{"x": 1}\n' + json.dumps(
        {"summary": summary}).encode() + b"\n"))
    assert any("nonzero_u" in error for error in errors)
    rows = [{"pass": True}] * (workloads.VERIFY_ROWS - 1) + [{"pass": False}]
    errors = workloads.check_verify(captured(json.dumps(rows).encode()))
    assert any("rows pass" in error for error in errors)


def test_captured_keeps_digest_and_last_line_of_large_output():
    out = workloads.Captured()
    line = b"x" * 1000 + b"\n"
    for _ in range(2000):
        out.feed(line)
    out.feed(b'{"summary": 1}\n')
    assert out.text is None
    assert out.last_line == b'{"summary": 1}'
    assert out.size == 2000 * len(line) + 15


def test_tracer_patches_reexports_and_times_generators():
    original = vknot.braid.component_count
    trace = tracer.Tracer()
    trace.install()
    try:
        assert vknot.gauss.component_count is vknot.braid.component_count
        assert vknot.gauss.component_count is not original
        result = run.run_in_process(["scan", "--p", "3", "--q", "3"])
    finally:
        trace.uninstall()
    assert vknot.gauss.component_count is original
    assert result["code"] == 0
    records = trace.records
    scan = records["search.scan_torus_virtualizations"]
    # The generator's own next() calls carry the per-subset work ...
    assert scan[1] >= records["search.virtualize_subset"][1] > 0
    # ... so none of it lands in the command's self time.
    assert records["cli.cmd_scan"][2] < scan[1]
    assert trace.counts["subsets"] == 64
    assert trace.missing() == []


def test_layer_metrics_match_the_spec_and_cross_check():
    trace = tracer.Tracer()
    trace.install()
    try:
        result = run.run_in_process(["verify", "theorem2", "--max-i", "6", "--json"])
    finally:
        trace.uninstall()
    metrics = tracer.layer_metrics(trace, result["out"].size, result["wall"], result["wall"])
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert set(metrics) == {metric["name"] for metric in spec["per_layer"]}
    rows = json.loads(result["out"].text)
    assert metrics["unknotting.rows"] == len(rows) > 0
    assert workloads.WORKLOADS["verify_sweep"].cross_check(metrics, [result["out"]], 0) == []
    assert metrics["unknotting.distinct_states"] <= metrics["unknotting.states_visited"]


def test_child_run_reports_exit_code_and_resources():
    result = run.run_child(["verify", "theorem2", "--max-i", "2"], timeout=60)
    assert result["code"] == 0
    assert result["out"].digest == workloads.SETUP["verify"][1]
    assert result["cpu"] > 0 and result["rss_mb"] > 1
    bad = run.run_child(["scan", "--p", "1", "--q", "2"], timeout=60)
    assert bad["code"] == 2 and b"error" in bad["stderr"]


def test_children_get_the_last_cores_and_the_benchmark_the_rest():
    assert run.split_cores({0, 1, 2, 3}, 1) == ({3}, {0, 1, 2})
    assert run.split_cores({0, 1}, 2) == ({0, 1}, {0, 1})
    assert run.split_cores({5}, 1) == ({5}, {5})


def test_child_run_pinned_to_one_core_is_correct():
    core = max(os.sched_getaffinity(0))
    result = run.run_child(["verify", "theorem2", "--max-i", "2"], timeout=60, cores={core})
    assert result["code"] == 0
    assert result["out"].digest == workloads.SETUP["verify"][1]


def test_scale_averages_the_samples_from_just_before_the_start_to_the_end():
    samplers = probe.Samplers(set())
    samplers.samples += [(0.0, 1.0), (0.8, 0.004), (1.5, 0.004), (2.5, 0.008), (3.5, 1.0)]
    # From 0.3 s before the start to the end: costs 0.004, 0.004 and 0.008.
    assert samplers.scale(1.0, 3.0) == pytest.approx(probe.NOMINAL_S / (0.016 / 3))


def test_child_times_are_multiplied_by_the_scale():
    class Fixed:
        def scale(self, began: float, ended: float) -> float:
            assert began < ended
            return 0.5

    children = run.ScaledChildren(Fixed())
    result = children.run(["verify", "theorem2", "--max-i", "2"], timeout=60)
    assert result["wall"] == result["raw_wall"] * 0.5
    assert result["cpu"] > 0 and children.scales == [0.5]


def test_samplers_report_from_every_core_and_stop():
    cores = set(sorted(os.sched_getaffinity(0))[:2])
    samplers = probe.Samplers(cores)
    try:
        began = time.monotonic()
        scale = samplers.scale(began, began)
    finally:
        samplers.close()
    assert scale > 0
    assert all(proc.returncode is not None for proc in samplers._procs)
