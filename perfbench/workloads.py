"""The four workloads: their CLI arguments, seeded inputs and output checks.

A pass is one run of a workload's jobs; every job is one CLI invocation.
Each job knows what its stdout must be.  The digests were taken from the
stdout of the unmodified seed package, and `invariants_large` output is
compared byte for byte with `reference.invariants_stdout`, because its
words depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

import reference

SCAN_SUBSETS = 1 << 16
SCAN_SUMMARY = {"subsets": SCAN_SUBSETS, "knots": SCAN_SUBSETS,
                "nonzero_u": 35960, "first_nonzero_u": [0, 1, 3]}
SCAN_DIGEST = "552a667931c1b2eab2f6a034d7c6396ac361e78f73676b43692f02226175a5b6"
VERIFY_ROWS = 496
VERIFY_DIGEST = "9ea6cf7405af9173b4df7687a47c02d9aee07ef7e9f70d282ddb1cc39e3105ef"

# Smallest input of each subcommand, for setup_s: interpreter start, import
# and argparse.
SETUP = {
    "invariants": (["invariants", "--braid", "1 1 1", "--strands", "2"],
                   "41400600c7346adf1d1516a47b44c9f4fb070638eaeb5fbda220f05ba5e74970"),
    "scan": (["scan", "--p", "2", "--q", "2"],
             "02ab59774de754f92d8194ff10ab18ad545fcfdfa9e5bc11839bf72811b584fb"),
    "verify": (["verify", "theorem2", "--max-i", "2"],
               "cb6a09aa8219d9b1b190bf50d7f70321b6c1e440c033f44feedeffff471c3969"),
}

# invariants_large: (P, P-1) torus skeletons on P strands, (P-1)^2 letters
# each, about 1.3k, 1.9k and 2.6k chords once 15% of the letters are virtual.
INVARIANT_STRANDS = (40, 48, 56)
VIRTUAL_SHARE = 0.15

KEEP_BYTES = 1 << 20
TAIL_BYTES = 1 << 16


class Captured:
    """A job's stdout: digest and size always; the text while it is small;
    the tail for the last line."""

    def __init__(self) -> None:
        self._sha = hashlib.sha256()
        self.size = 0
        self._head = bytearray()
        self._tail = b""

    def feed(self, chunk: bytes) -> None:
        self._sha.update(chunk)
        self.size += len(chunk)
        if len(self._head) < KEEP_BYTES:
            self._head += chunk[:KEEP_BYTES - len(self._head)]
        self._tail = (self._tail + chunk)[-TAIL_BYTES:]

    @property
    def digest(self) -> str:
        return self._sha.hexdigest()

    @property
    def text(self) -> bytes | None:
        return bytes(self._head) if self.size <= KEEP_BYTES else None

    @property
    def last_line(self) -> bytes:
        return self._tail.rstrip(b"\n").rpartition(b"\n")[2]


@dataclass(frozen=True)
class Job:
    argv: list[str]
    check: Callable[[Captured], list[str]]
    items: int = 0  # work done, for items_per_s


@dataclass(frozen=True)
class Workload:
    command: str  # selects the setup input
    jobs: Callable[[int], list[Job]]
    cross_check: Callable[[dict, list[Captured], int], list[str]]
    cores: int = 1  # cores a job runs on

    @property
    def setup_job(self) -> Job:
        argv, digest = SETUP[self.command]
        return Job(argv, lambda out: _digest_errors(out, digest))


def _digest_errors(out: Captured, digest: str) -> list[str]:
    if out.digest == digest:
        return []
    return [f"stdout sha256 {out.digest} ({out.size} bytes), expected {digest}"]


def torus_skeleton(strands: int, rng: random.Random) -> list[tuple[int, int]]:
    """The (P, P-1) torus braid on P strands with random signs and exactly
    round(15%) of its letters virtual.

    Classical and virtual letters permute strands alike and P, P-1 are
    coprime, so the closure is one component whatever the draw.
    """
    blocks = strands - 1
    total = blocks * blocks
    virtual = set(rng.sample(range(total), round(VIRTUAL_SHARE * total)))
    return [(position % blocks + 1,
             0 if position in virtual else rng.choice((1, -1)))
            for position in range(total)]


def _invariant_job(strands: int, letters: list[tuple[int, int]]) -> Job:
    expected = reference.invariants_stdout(strands, letters)
    chords = sum(1 for _, sign in letters if sign)

    def check(out: Captured) -> list[str]:
        if out.text == expected:
            return []
        errors = [f"stdout differs from the reference ({out.size} bytes, "
                  f"expected {len(expected)})"]
        try:
            payload = json.loads(out.text or b"")
            half = (sum(abs(t["coef"]) for t in payload["p"]["terms"]) + 1) // 2
            if payload["bound"] != half:
                errors.append(f"bound {payload['bound']} != ceil(sum|P coef|/2) = {half}")
            traced = len(payload["gauss_code"].split()) // 2
            if traced != chords:
                errors.append(f"{traced} chords traced, word has {chords} classical letters")
        except (ValueError, KeyError, TypeError) as error:
            errors.append(f"unreadable output: {error!r}")
        return errors

    # `--braid=WORD`, since a word starting with "-2" would read as an option.
    return Job(["invariants", f"--braid={reference.word_text(letters)}",
                "--strands", str(strands), "--json"], check, chords)


def invariants_jobs(seed: int) -> list[Job]:
    rng = random.Random(seed)
    return [_invariant_job(strands, torus_skeleton(strands, rng))
            for strands in INVARIANT_STRANDS]


def check_scan(out: Captured) -> list[str]:
    errors = _digest_errors(out, SCAN_DIGEST)
    try:
        summary = json.loads(out.last_line)["summary"]
    except (ValueError, KeyError, TypeError) as error:
        return errors + [f"unreadable summary line: {error!r}"]
    for key, value in SCAN_SUMMARY.items():
        if summary.get(key) != value:
            errors.append(f"summary {key} = {summary.get(key)!r}, expected {value!r}")
    return errors


def check_verify(out: Captured) -> list[str]:
    errors = _digest_errors(out, VERIFY_DIGEST)
    try:
        rows = json.loads(out.text or b"")
        passed = sum(1 for row in rows if row["pass"] is True)
    except (ValueError, KeyError, TypeError) as error:
        return errors + [f"unreadable rows: {error!r}"]
    if len(rows) != VERIFY_ROWS or passed != len(rows):
        errors.append(f"{passed} of {len(rows)} rows pass, expected all of {VERIFY_ROWS}")
    return errors


def _invariants_cross(metrics: dict, outputs: list[Captured], items: int) -> list[str]:
    if metrics["gauss.chords"] != items:
        return [f"gauss.chords {metrics['gauss.chords']} != {items} classical letters"]
    return []


def _scan_cross(metrics: dict, outputs: list[Captured], items: int) -> list[str]:
    if not metrics["search.subsets"] == metrics["search.knots"] == SCAN_SUBSETS:
        return [f"search.subsets {metrics['search.subsets']} and search.knots "
                f"{metrics['search.knots']} != {SCAN_SUBSETS}"]
    return []


def _verify_cross(metrics: dict, outputs: list[Captured], items: int) -> list[str]:
    try:
        printed = len(json.loads(outputs[0].text or b""))
    except ValueError:
        printed = -1
    if metrics["unknotting.rows"] != printed:
        return [f"unknotting.rows {metrics['unknotting.rows']} != {printed} rows printed"]
    return []


VERIFY_ARGV = ["verify", "theorem2", "--max-i", "16", "--json"]

WORKLOADS = {
    "invariants_large": Workload("invariants", invariants_jobs, _invariants_cross),
    "scan_full": Workload(
        "scan", lambda seed: [Job(["scan", "--p", "5", "--q", "4"], check_scan, SCAN_SUBSETS)],
        _scan_cross),
    "verify_sweep": Workload(
        "verify", lambda seed: [Job(VERIFY_ARGV, check_verify, VERIFY_ROWS)], _verify_cross),
    # Two workers: no more than the cores of a small machine, so the pool
    # path is measured and not oversubscription.
    "verify_pool": Workload(
        "verify", lambda seed: [Job(VERIFY_ARGV + ["--workers", "2"], check_verify, VERIFY_ROWS)],
        _verify_cross, cores=2),
}
