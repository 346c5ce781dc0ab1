"""Exhaustive virtualization scans over standard torus braids.

``scan_torus_virtualizations`` replaces arbitrary crossing subsets of the
all-positive torus braid by virtual crossings and computes both index
polynomials for every subset whose closure stays a knot.  A nonzero u on
any record certifies a virtual torus knot that crossing changes alone can
never undo.  ``table_vt2`` tabulates the lower-bound half-sums for the
doubly-virtualized family.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from functools import partial
from itertools import chain, combinations, islice, repeat
from math import gcd
from sys import byteorder
from typing import Callable, Iterable, Iterator, NamedTuple

from .braid import BraidWord, _block_indices, _family_word, make_vt
from .gauss import GaussDiagram, MultiComponentError, gauss_from_closure
from .invariants import IndexPolynomial, _arc_sums, _u_and_p, p_invariant

# Without an explicit limit, refuse scans beyond this many crossing positions
# (2^16 subsets enumerate in seconds; anything larger is an explicit opt-in).
DEFAULT_SCAN_BITS = 16

# Absolute-coefficient pattern highlighted in scan summaries: +-(t^2 - 2t).
REPORTED_U_PATTERN = {2: 1, 1: 2}

_encode = json.JSONEncoder(sort_keys=True).encode


def torus_word(p: int, q: int) -> BraidWord:
    """(s_1 ... s_{p-1})^q on p strands, all crossings positive."""
    if not type(p) is type(q) is int:
        raise ValueError(f"torus parameters must be integers, got {(p, q)!r}")
    if p < 2 or q < 1:
        raise ValueError(f"need p >= 2 and q >= 1, got ({p},{q})")
    return _family_word(p, _block_indices(p, q, 0), 0)


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
        parts for every record of one (components, u, P).  One encoder
        serves every record; ``json.dumps`` with ``sort_keys`` would build a
        new one per call."""
        text = _encode({**self.to_json_dict(), "subset": []})
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
    traced diagram with the subset's chords removed.  ``_records_without``
    gets each subset's (u, P) from that diagram's packed chord indices and
    the subset's packed linking rows, without building the smaller diagram,
    and every subset with the same sorted indices shares one (u, P).
    """
    named = partial(_scan_subsets, p, q, limit)
    subsets = named(int)  # refuses what the scan refuses, before the trace
    try:
        base = gauss_from_closure(torus_word(p, q))
    except MultiComponentError as error:
        links, new = (error.components, None, None), tuple.__new__
        for subset in subsets:
            yield new(ScanRecord, (subset,) + links)
        return
    yield from _records_without(base, named)


def _scan_subsets(p: int, q: int, limit: int | None,
                  label: Callable[[int], object] = int) -> Iterator[tuple]:
    """The first ``limit`` subsets (all for None) of the (p-1)q crossing
    positions, by size, then lexicographically, each position given as
    ``label(position)``; raises ``ValueError`` where the scan refuses.  The
    scan's chord ids and packed rows and the CLI's position texts all come
    from here, so they agree in order.

    Up to ``limit`` = (p-1)q + 1 only the empty subset and the first
    ``limit`` - 1 singletons come out, so only those positions are labelled.
    """
    if not type(p) is type(q) is int:
        raise ValueError(f"p and q must be integers, got {(p, q)!r}")
    if limit is not None and type(limit) is not int:
        raise ValueError(f"limit must be an integer or None, got {limit!r}")
    if p < 2 or q < 2:
        raise ValueError(f"need p >= 2 and q >= 2, got ({p},{q})")
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    total = (p - 1) * q
    if limit is None and total > DEFAULT_SCAN_BITS:
        raise ValueError(f"{total} crossing positions means 2^{total} subsets; "
                         "pass an explicit limit to opt in")
    reached = total if limit is None else min(total, max(limit - 1, 0))
    return islice(chain.from_iterable(map(
        combinations, repeat(tuple(map(label, range(reached)))), range(total + 1))), limit)


def _records_without(diagram: GaussDiagram,
                     named: Callable[[Callable[[int], object]], Iterable[tuple]]
                     ) -> Iterator[ScanRecord]:
    """A knot record for each subset of chord ids ``named(int)`` gives, with
    (u, P) of ``diagram`` without those chords, equal to the invariants of
    ``remove_chords``'s diagram.

    ``named(label)`` must give the same subsets, in the same order, with
    each chord id c as ``label(c)``.

    Removing chord d only removes its two endpoint weights, so every other
    chord c's index drops by L[d][c], c's arc sum over d's two weights
    alone.  Each index is a fixed-width field of one int, holding
    2 * (index + bias) + [sign > 0].  Chord d's row is minus L[d] packed
    the same way, minus d's field mask shifted above all the fields, and
    ``named(row)`` builds it for every position its enumeration reaches.
    Summing a subset's rows onto the base int, in C from the subsets of
    rows, leaves its indices in the fields, none borrowing since each stays
    a valid index.  Above them the base holds every field's mask, so the
    sum's high part keeps only the kept chords' masks, and one AND of the
    sum with itself shifted down resets every removed chord's field to 0,
    which no index takes.  Both polynomials depend only on the multiset of
    nonzero indices with their signs, so the fields of removed chords (0)
    and of index 0 (2 * bias and 2 * bias + 1) leave the key: one-byte
    fields lose those bytes before the sort; wider fields are sorted, then
    lose the first len(subset), the zeros, and the index-0 run found by
    bisection.  The sorted fields left are the memo key, decoded into
    (u, P) once per key; every subset with that key gets the same (u, P)
    tuple, and equal polynomials are kept as one object.
    """
    n = diagram.n_chords
    bias = n  # indices lie in [-(n - 1), n - 1], so every field is positive
    size, fmt = next((k, f) for k, f in ((1, "B"), (2, "H"), (4, "I"))
                     if 2 * (n - 1 + bias) + 1 < 256 ** k)
    width, length = 8 * size, n * size
    shift = 8 * length  # the subset's masks sit above all the fields
    over, under = diagram.chord_positions()
    signs = diagram.signs

    def pack(fields: Iterable[int]) -> int:
        return int.from_bytes(b"".join(f.to_bytes(size, "little") for f in fields),
                              "little")

    base = pack(2 * (i + bias) + (s > 0) for i, s in zip(_arc_sums(diagram), signs))
    base += ((1 << shift) - 1) << shift  # every chord's mask, until a row takes it off
    twos = pack(2 for _ in signs)
    drop = bytes((0, 2 * bias, 2 * bias + 1)) if size == 1 else b""

    def row(chord: int) -> int:
        weights = [0] * (2 * n)
        weights[over[chord]], weights[under[chord]] = signs[chord], -signs[chord]
        fields = bytearray(length)  # 2 * L[chord][c] + 2 in each field's low byte
        fields[::size] = bytes(2 * v + 2 for v in _arc_sums(diagram, weights))
        mask = ((1 << width) - 1) << (width * chord)
        return twos - int.from_bytes(fields, "little") - (mask << shift)

    new = tuple.__new__
    memo: dict[tuple[int, ...], tuple] = {}  # key -> (1, u, P)
    polynomials: dict[IndexPolynomial, IndexPolynomial] = {}
    for chords, total in zip(named(int), map(sum, named(row), repeat(base))):
        data = (total & total >> shift).to_bytes(length, byteorder)
        if size == 1:
            key = tuple(sorted(data.translate(None, drop)))
        else:  # cast reads native order; the removed chords' zeros sort first
            fields = sorted(memoryview(data).cast(fmt))[len(chords):]
            key = tuple(fields[:bisect_left(fields, 2 * bias)]
                        + fields[bisect_left(fields, 2 * bias + 2):])
        tail = memo.get(key)
        if tail is None:
            tail = memo[key] = (1, *(
                polynomials.setdefault(value, value) for value in _u_and_p(
                    ((field >> 1) - bias for field in key),
                    (1 if field & 1 else -1 for field in key))))
        yield new(ScanRecord, (chords,) + tail)


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


class TableRow(NamedTuple):
    p: int
    q: int
    half_sum: int | float


def default_table_pairs(max_p: int) -> list[tuple[int, int]]:
    """Coprime (p, q) with 2 <= q < p <= max_p, ordered by p then q."""
    if type(max_p) is not int:
        raise ValueError(f"max_p must be an integer, got {max_p!r}")
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
