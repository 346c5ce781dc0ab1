"""Benchmark of the vknot command-line tool.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scan_full --seed 1 --seconds 30 --trace 0

With ``--trace 0`` every job is a child process, ``python3 -m vknot.cli``
with ``src`` on its path, the way a user runs the tool.  Wall time is taken
around the child; CPU time and peak RSS come from ``os.wait4`` on that
child, which folds in the pool workers it reaps.  Children are pinned to
one core (two for the process pool) and this process keeps to the others.
Both times are scaled to a nominal host speed, measured by a sampler on
each of the children's cores while the child runs (see probe.py).  Set-up time is the median of several runs of the
same subcommand on its smallest input.  Passes of the workload's jobs repeat
while the next one is expected to end nearer to ``--seconds`` after the
start of the run, set-up included, than stopping now, and each metric is
the median over the passes.

With ``--trace 1`` the jobs run in this process through ``vknot.cli.main``:
first untraced, for about half of ``--seconds``, then once with every
public function of the package wrapped (see tracer.py).  That run reports
the per-layer metrics and fails if its counters disagree with closed forms.

Every stdout is checked (see workloads.py).  The last line printed is the
result object; the line before it gives the run's context: seed, core
count, Python version, load average at start and end, pass times (scaled
and raw), the speed scale of every child and the first errors.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout

import probe
import tracer
from workloads import WORKLOADS, Captured, Job

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_RUNS = 11
DEADLINE_S = 170  # every child is killed by then, so a run ends within 180 s


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv: list[str], timeout: float, cores: set[int] | None = None) -> dict:
    """One CLI invocation, on ``cores`` if given: stdout, exit code, wall,
    CPU and peak RSS."""
    out = Captured()
    errors: list[bytes] = []
    start, began = time.perf_counter(), time.monotonic()
    # preexec_fn makes subprocess fork instead of vfork.  After a vfork the
    # child's ru_maxrss starts at the parent's peak, which would hide the
    # child's own.  setsid lets a timeout kill the child with its workers.
    def prepare() -> None:
        os.setsid()
        if cores:
            os.sched_setaffinity(0, cores)

    proc = subprocess.Popen([sys.executable, "-m", "vknot.cli", *argv], cwd=ROOT,
                            env=dict(os.environ, PYTHONPATH=SRC), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            preexec_fn=prepare)
    killer = threading.Timer(timeout, _kill_group, (proc.pid,))
    drain = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
    killer.start()
    drain.start()
    try:
        for chunk in iter(lambda: proc.stdout.read1(1 << 16), b""):
            out.feed(chunk)
        _, status, usage = os.wait4(proc.pid, 0)
        wall, ended = time.perf_counter() - start, time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        killer.join()
        if proc.returncode is None:  # reading failed before the child was reaped
            _kill_group(proc.pid)
            proc.wait()
        drain.join()
        proc.stdout.close()
        proc.stderr.close()
    return {"out": out, "code": proc.returncode, "stderr": b"".join(errors),
            "wall": wall, "began": began, "ended": ended,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024}


class _Sink(io.TextIOBase):
    """A text stdout that feeds a Captured."""

    def __init__(self, out: Captured) -> None:
        self.out = out

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.out.feed(text.encode())
        return len(text)


def run_in_process(argv: list[str]) -> dict:
    """One invocation of ``vknot.cli.main`` in this process, stdout captured.

    ``main`` is looked up on each call, so the tracer's wrapper is used once
    it is installed.
    """
    import vknot.cli

    out = Captured()
    start = time.perf_counter()
    with redirect_stdout(_Sink(out)):
        try:
            code = vknot.cli.main(argv)
        except SystemExit as exit_:
            code = exit_.code
    return {"out": out, "code": code, "stderr": b"", "wall": time.perf_counter() - start}


def job_errors(job: Job, result: dict) -> list[str]:
    if result["code"] != 0:
        return [f"exit code {result['code']}: {result['stderr'][-300:]!r}"]
    return job.check(result["out"])


def pass_errors(jobs: list[Job], results: list[dict]) -> list[str]:
    return [error for job, result in zip(jobs, results) for error in job_errors(job, result)]


class Run:
    """Bookkeeping shared by both modes: attempts, failures, pass times."""

    def __init__(self, seconds: int) -> None:
        self.started = time.perf_counter()
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def remaining(self) -> float:
        return max(1.0, DEADLINE_S - (time.perf_counter() - self.started))

    def record(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(f"{label}: {error}" for error in errors)

    def passes(self, run_pass, budget: float) -> list:
        """Repeat ``run_pass`` while the next pass should end nearer to
        ``budget`` seconds after the run started than stopping now, so that
        a run lasts about ``budget`` and a pass a little over half of it
        still gets a second one."""
        results, durations = [], []
        while not results or (time.perf_counter() - self.started
                              + statistics.mean(durations) / 2 < budget):
            tick = time.perf_counter()
            results.append(run_pass(len(results)))
            durations.append(time.perf_counter() - tick)
        return results


class ScaledChildren:
    """Child runs on ``cores``, their times scaled to a nominal host speed."""

    def __init__(self, samplers: probe.Samplers, cores: set[int] | None = None) -> None:
        self.samplers = samplers
        self.cores = cores
        self.scales: list[float] = []

    def run(self, argv: list[str], timeout: float) -> dict:
        result = run_child(argv, timeout, self.cores)
        scale = self.samplers.scale(result["began"], result["ended"])
        self.scales.append(scale)
        return dict(result, raw_wall=result["wall"], wall=result["wall"] * scale,
                    cpu=result["cpu"] * scale)


def split_cores(available: set[int], wanted: int) -> tuple[set[int], set[int]]:
    """The last ``wanted`` cores for the children, the rest (or, if none
    are left, all) for this process."""
    ordered = sorted(available)
    children = set(ordered[-wanted:])
    return children, set(ordered[:-wanted]) or children


def timed_run(workload, jobs: list[Job], run: Run) -> tuple[dict, dict]:
    # The speed of one core moves on its own, so the children run only on
    # the cores that are sampled, and this process keeps off them if it can.
    cores, own = split_cores(os.sched_getaffinity(0), workload.cores)
    os.sched_setaffinity(0, own)
    samplers = probe.Samplers(cores)
    try:
        return _timed_passes(workload, jobs, run, ScaledChildren(samplers, cores))
    finally:
        samplers.close()


def _timed_passes(workload, jobs: list[Job], run: Run,
                  children: ScaledChildren) -> tuple[dict, dict]:
    setup = workload.setup_job
    # The first run fills the page cache and, unless PYTHONDONTWRITEBYTECODE
    # is set, the bytecode cache: costs users pay once.  It is not timed.
    warm = children.run(setup.argv, run.remaining())
    run.record("setup warm-up", job_errors(setup, warm))
    setup_walls = []
    for index in range(SETUP_RUNS):
        result = children.run(setup.argv, run.remaining())
        run.record(f"setup {index}", job_errors(setup, result))
        setup_walls.append(result["wall"])

    items = sum(job.items for job in jobs)

    def one_pass(index: int) -> dict:
        results = [children.run(job.argv, run.remaining()) for job in jobs]
        run.record(f"pass {index}", pass_errors(jobs, results))
        return {"wall": sum(r["wall"] for r in results),
                "raw_wall": sum(r["raw_wall"] for r in results),
                "cpu": sum(r["cpu"] for r in results),
                "rss_mb": max(r["rss_mb"] for r in results)}

    passes = run.passes(one_pass, run.seconds)
    walls = [p["wall"] for p in passes]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(p["cpu"] for p in passes),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "setup_s": statistics.median(setup_walls),
        "items_per_s": statistics.median(items / wall for wall in walls),
    }
    return metrics, {"pass_wall_s": walls, "pass_raw_wall_s": [p["raw_wall"] for p in passes],
                     "pass_cpu_s": [p["cpu"] for p in passes], "setup_wall_s": setup_walls,
                     "child_cores": sorted(children.cores), "scales": children.scales}


def traced_run(workload, jobs: list[Job], run: Run) -> tuple[dict, dict]:
    sys.path.insert(0, SRC)
    import vknot.cli

    if not os.path.abspath(vknot.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported vknot from {vknot.cli.__file__}, not {SRC}")

    def in_process_pass() -> tuple[float, list[dict]]:
        tick = time.perf_counter()
        results = [run_in_process(job.argv) for job in jobs]
        return time.perf_counter() - tick, results

    def untraced_pass(index: int) -> float:
        wall, results = in_process_pass()
        run.record(f"untraced pass {index}", pass_errors(jobs, results))
        return wall

    untraced = run.passes(untraced_pass, run.seconds / 2)
    trace = tracer.Tracer()
    trace.install()
    try:
        traced_wall, results = in_process_pass()
    finally:
        trace.uninstall()
    outputs = [result["out"] for result in results]
    metrics = tracer.layer_metrics(trace, sum(out.size for out in outputs),
                                   traced_wall, statistics.median(untraced))
    run.record("traced pass", pass_errors(jobs, results) + workload.cross_check(
        metrics, outputs, sum(job.items for job in jobs)))
    return metrics, {"untraced_wall_s": untraced, "traced_wall_s": traced_wall,
                     "untraced_functions": trace.missing()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vknot", "cli.py")):
        print(f"error: no vknot sources under {SRC}", file=sys.stderr)
        return 2
    # Ends the run, with no result, should an in-process pass hang.
    signal.alarm(DEADLINE_S + 5)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    workload = WORKLOADS[args.workload]
    jobs = workload.jobs(args.seed)
    run = Run(args.seconds)
    load_start = os.getloadavg()
    mode = traced_run if args.trace else timed_run
    values, detail = mode(workload, jobs, run)
    if set(values) != {metric["name"] for metric in wanted}:
        print(f"error: metrics {sorted(values)} do not match BENCHMARK.json",
              file=sys.stderr)
        return 2

    context = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "nproc": os.cpu_count(), "python": platform.python_version(),
               "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
               "fail_rate": run.failed / run.attempted, "errors": run.errors[:5],
               **detail}
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
        "metrics": {metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
                    for metric in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
