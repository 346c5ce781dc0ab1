"""How fast the host runs Python while a child runs.

The benchmark's host is a few cores of a shared machine whose speed moves
by 20% to 50% from one stretch of a few seconds to the next, and user CPU
time moves with it, so raw times of the same code spread past any useful
bound.  A sampler process sits on each core the children use.  Ten times a
second it runs a fixed pure-Python computation, a few milliseconds of
dictionary updates and a keyed sort, and reports the CPU time it took.
run.py scales each child's wall and CPU time by ``NOMINAL_S`` over the
mean cost of the samples taken while the child ran: each time is then
given at the speed at which one sample costs ``NOMINAL_S`` seconds.

The sampler's wall time was tried as the measure, since it would also
count time the host takes a core away (steal), which a child's wall time
suffers and its CPU time does not.  Even less the sampler's wait for its
core, it ran 15% to 40% above the sampler's CPU time, so CPU time is the
measure, and steal is left in the scaled wall times.

The samplers are this file's code alone, so a change to vknot changes the
scaled times exactly as it changes the raw ones.  They keep a core busy
for about 5% of the time, on parent and change alike.

Run as a script, this file is one sampler: it prints ``<monotonic time>
<CPU seconds>`` per sample until it is killed or its reader goes away.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
import time

NOMINAL_S = 0.005
SAMPLE_EVERY_S = 0.1
# Samples this long before a child starts count for it, so that even a
# child of 0.1 s has several.
LEAD_S = 0.3


def _work() -> int:
    counts: dict[int, int] = {}
    for i in range(15_000):
        counts[i % 1000] = counts.get(i % 1000, 0) + i * 3
    order = sorted(range(8_000), key=lambda x: (x * 7919) % 10007)
    return order[0] + len(counts)


def sample_forever() -> None:
    _work()
    while True:
        at = time.monotonic()
        start = time.thread_time()
        _work()
        print(at, time.thread_time() - start, flush=True)
        time.sleep(SAMPLE_EVERY_S)


class Samplers:
    """One sampler process pinned to each of ``cpus``; a thread reads each."""

    def __init__(self, cpus: set[int]) -> None:
        self.samples: list[tuple[float, float]] = []
        self._procs: list[subprocess.Popen] = []
        self._readers: list[threading.Thread] = []
        try:
            for cpu in sorted(cpus):
                proc = subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__)], stdin=subprocess.DEVNULL,
                    stdout=subprocess.PIPE, text=True,
                    preexec_fn=lambda cpu=cpu: os.sched_setaffinity(0, {cpu}))
                self._procs.append(proc)
                reader = threading.Thread(target=self._read, args=(proc,), daemon=True)
                reader.start()
                self._readers.append(reader)
        except BaseException:
            self.close()
            raise

    def _read(self, proc: subprocess.Popen) -> None:
        for line in proc.stdout:
            at, cost = map(float, line.split())
            self.samples.append((at, cost))

    def scale(self, start: float, end: float) -> float:
        """``NOMINAL_S`` over the mean sample cost from ``start - LEAD_S``
        to ``end`` (monotonic times), waiting for a sample if there is none."""
        deadline = time.monotonic() + 5
        while True:
            costs = [cost for at, cost in self.samples if start - LEAD_S <= at <= end]
            if costs:
                return NOMINAL_S / statistics.mean(costs)
            if time.monotonic() > deadline:
                raise RuntimeError("no speed sample while the child ran")
            time.sleep(SAMPLE_EVERY_S / 4)
            end = time.monotonic()

    def close(self) -> None:
        for proc in self._procs:
            proc.kill()
        for proc in self._procs:
            proc.wait()
        for reader in self._readers:
            reader.join()
        for proc in self._procs:
            proc.stdout.close()


if __name__ == "__main__":
    try:
        sample_forever()
    except BrokenPipeError:  # the benchmark has ended
        os._exit(0)
