"""Exhaustive virtualization scans over standard torus braids.

``scan_torus_virtualizations`` replaces arbitrary crossing subsets of the
all-positive torus braid by virtual crossings and computes both index
polynomials for every subset whose closure stays a knot.  A nonzero u on
any record certifies a virtual torus knot that crossing changes alone can
never undo.  ``table_vt2`` tabulates the lower-bound half-sums for the
doubly-virtualized family.
"""

from __future__ import annotations

import itertools
import json
from math import gcd
from typing import Iterable, Iterator, NamedTuple

from .braid import BraidWord, _block_indices, _family_word, make_vt, virtual
from .gauss import MultiComponentError, gauss_from_closure
from .invariants import IndexPolynomial, _invariants_without, p_invariant

# Without an explicit limit, refuse scans beyond this many crossing positions
# (2^16 subsets enumerate in seconds; anything larger is an explicit opt-in).
DEFAULT_SCAN_BITS = 16

# Absolute-coefficient pattern highlighted in scan summaries: +-(t^2 - 2t).
REPORTED_U_PATTERN = {2: 1, 1: 2}

def torus_word(p: int, q: int) -> BraidWord:
    """(s_1 ... s_{p-1})^q on p strands, all crossings positive."""
    if not type(p) is type(q) is int:
        raise ValueError(f"torus parameters must be integers, got {(p, q)!r}")
    if p < 2 or q < 1:
        raise ValueError(f"need p >= 2 and q >= 1, got ({p},{q})")
    return _family_word(p, _block_indices(p, q, 0), 0)


def virtualize_subset(p: int, q: int, subset: Iterable[int]) -> BraidWord:
    """Standard torus braid with the letters at ``subset`` positions virtual.

    Positions index the (p-1)q classical letters in word order from 0.
    """
    letters = torus_word(p, q).letters
    if q < 2:
        raise ValueError(f"need p >= 2 and q >= 2, got ({p},{q})")
    chosen: set[int] = set()
    for position in subset:
        if not 0 <= position < len(letters):
            raise ValueError(
                f"position {position} out of range for {len(letters)} crossings")
        chosen.add(position)
    return BraidWord(p, tuple(virtual(letter.index) if position in chosen else letter
                              for position, letter in enumerate(letters)))


class ScanRecord(NamedTuple):
    """One virtualization subset; invariants are None for link closures.

    A named tuple, so the scan builds each record with one ``tuple.__new__``.
    """

    subset: tuple[int, ...]
    components: int
    u: IndexPolynomial | None
    P: IndexPolynomial | None

    @property
    def is_knot(self) -> bool:
        return self.components == 1

    @property
    def has_nonzero_u(self) -> bool:
        return self.u is not None and not self.u.is_zero

    def to_json_dict(self) -> dict:
        return {
            "subset": list(self.subset),
            "components": self.components,
            "u": None if self.u is None else self.u.to_json_dict(),
            "P": None if self.P is None else self.P.to_json_dict(),
        }

    def json_parts(self) -> tuple[str, str]:
        """The record's line, ``json.dumps(self.to_json_dict(), sort_keys=True)``
        plus a newline, split around the subset's positions: the same two
        parts for every record of one (components, u, P)."""
        text = json.dumps({**self.to_json_dict(), "subset": []}, sort_keys=True)
        head, subset, tail = text.partition('"subset": [')
        return head + subset, tail + "\n"


def scan_torus_virtualizations(p: int, q: int,
                               limit: int | None = None) -> Iterator[ScanRecord]:
    """Enumerate virtualization subsets by size, then lexicographically.

    Emits one record per subset; u and P are computed only when the closure
    is a knot.  ``limit`` (>= 0) truncates the enumeration after that many
    subsets and is required once (p-1)q exceeds DEFAULT_SCAN_BITS.

    Virtual and classical letters permute the strands alike, so every
    subset closes like ``torus_word(p, q)``, and its diagram is that one
    traced diagram with the subset's chords removed.  ``_invariants_without``
    gets each subset's (u, P) from that diagram's packed chord indices and
    the subset's packed linking rows, without building the smaller diagram,
    and every subset with the same sorted indices shares one (u, P).
    """
    if p < 2 or q < 2:
        raise ValueError(f"need p >= 2 and q >= 2, got ({p},{q})")
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    total = (p - 1) * q
    if limit is None and total > DEFAULT_SCAN_BITS:
        raise ValueError(
            f"{total} crossing positions means 2^{total} subsets; "
            "pass an explicit limit to opt in")
    try:
        base, components = gauss_from_closure(torus_word(p, q)), 1
    except MultiComponentError as error:
        base, components = None, error.components
    subsets = itertools.islice(
        (subset for size in range(total + 1)
         for subset in itertools.combinations(range(total), size)), limit)
    pairs = (((subset, (None, None)) for subset in subsets) if base is None
             else _invariants_without(base, subsets))
    new = tuple.__new__
    for subset, u_and_p in pairs:
        yield new(ScanRecord, (subset, components) + u_and_p)


class ScanSummary:
    """Scan counts, folded by ``add``, so a streamed scan is summarised
    without keeping its records.  Compares, prints and encodes its
    attributes, which ``__init__`` sets in field order."""

    def __init__(self, subsets: int = 0, knots: int = 0, nonzero_u: int = 0,
                 pattern_attained: bool = False,
                 first_nonzero_u: tuple[int, ...] | None = None) -> None:
        self.subsets, self.knots, self.nonzero_u = subsets, knots, nonzero_u
        self.pattern_attained, self.first_nonzero_u = pattern_attained, first_nonzero_u

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        return f"ScanSummary({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    def add(self, record: ScanRecord, count: int = 1) -> None:
        """Fold ``record`` in as ``count`` records of its (components, u, P),
        ``record`` the first of them in scan order."""
        self.subsets += count
        if not record.is_knot:
            return
        self.knots += count
        if record.has_nonzero_u:
            self.nonzero_u += count
            if self.first_nonzero_u is None:
                self.first_nonzero_u = record.subset
            if not self.pattern_attained:
                self.pattern_attained = record.u.abs_coefficients() == REPORTED_U_PATTERN

    def to_json_dict(self) -> dict:
        first = self.first_nonzero_u
        return {**vars(self), "first_nonzero_u": None if first is None else list(first)}


def summarize_scan(records: Iterable[ScanRecord]) -> ScanSummary:
    """Counts plus whether any knot's u matches REPORTED_U_PATTERN in
    absolute coefficients."""
    summary = ScanSummary()
    for record in records:
        summary.add(record)
    return summary


class TableRow(NamedTuple):
    p: int
    q: int
    half_sum: int | float


def default_table_pairs(max_p: int) -> list[tuple[int, int]]:
    """Coprime (p, q) with 2 <= q < p <= max_p, ordered by p then q."""
    if max_p < 3:
        raise ValueError(f"need max_p >= 3, got {max_p}")
    return [(p, q) for p in range(3, max_p + 1) for q in range(2, p)
            if gcd(p, q) == 1]


def table_vt2(pairs: Iterable[tuple[int, int]]) -> list[TableRow]:
    """Half the absolute coefficient sum of P for each doubly-virtualized
    torus knot; make_vt rejects q < 2 and the trace a (p, q) link."""
    rows = []
    for p, q in pairs:
        total = p_invariant(gauss_from_closure(make_vt(p, q, 2)))
        s = total.abs_coefficient_sum()
        rows.append(TableRow(p, q, s // 2 if s % 2 == 0 else s / 2))
    return rows


def table_to_csv(rows: Iterable[TableRow]) -> str:
    lines = ["p,q,half_sum"]
    lines.extend(f"{row.p},{row.q},{row.half_sum}" for row in rows)
    return "\n".join(lines) + "\n"
