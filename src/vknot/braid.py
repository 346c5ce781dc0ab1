"""Virtual braid words: parsing, family constructors, closure combinatorics,
and equivalence-preserving rewrites.

A word lives on a fixed strand count and is read left to right.  Classical
letters are signed braid generators; virtual letters are unsigned strand
swaps.  The closure joins right endpoint m to left endpoint m, so the
components of the closed-up link are exactly the cycles of the word's
permutation.  All values are immutable and every operation returns a new
word, so concurrent use needs no locking.

``BraidLetter`` and ``BraidWord`` are the one place that checks indices and
strand counts; ``parse_braid`` checks only token syntax, and ``parse_family``
only a family's syntax, arity and variant.  The vt and ijk families and
the scan's torus word share one block layout and ``_family_word``, and
``_cycles`` is the one walk of the closure's components.  Each local
rewrite pattern is one function in ``_LOCAL_MOVES``, which both
``rewrite_moves`` (where it matches) and ``apply_rewrite`` (where it does
not) read.
"""

from __future__ import annotations

import re
from enum import Enum
from operator import attrgetter
from typing import Any, Callable, Iterable, NamedTuple


class LetterKind(Enum):
    CLASSICAL = "classical"
    VIRTUAL = "virtual"


# loops over letters compare against these names: on CPython 3.11, reading
# a member through its Enum class takes about 13 times as long
_CLASSICAL, _VIRTUAL = LetterKind.CLASSICAL, LetterKind.VIRTUAL


class BraidParseError(ValueError):
    """Malformed braid text, out-of-range index, or bad strand count."""


class RewriteError(ValueError):
    """A rewrite that does not apply at its stated location."""


class _Checked:
    """Base for named tuples whose ``__new__`` checks the fields: ``_make``,
    and with it ``_replace``, builds through ``__new__`` too."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> Any:
        return cls(*iterable)


class _BraidLetter(NamedTuple):
    kind: LetterKind
    index: int
    sign: int


class BraidLetter(_Checked, _BraidLetter):
    """A single generator acting on strand positions ``index`` and ``index + 1``."""

    __slots__ = ()

    def __new__(cls, kind: LetterKind, index: int, sign: int = 1) -> BraidLetter:
        if kind is not _CLASSICAL and kind is not _VIRTUAL:
            raise ValueError(f"letter kind must be a LetterKind, got {kind!r}")
        if type(index) is not int or index < 1:
            raise ValueError(f"letter index must be an integer >= 1, got {index!r}")
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {sign!r}")
        if kind is _VIRTUAL and sign != 1:
            raise ValueError("virtual letters always carry sign +1")
        return tuple.__new__(cls, (kind, index, sign))

    @property
    def is_classical(self) -> bool:
        return self.kind is _CLASSICAL

    @property
    def is_virtual(self) -> bool:
        return self.kind is _VIRTUAL

    def token(self) -> str:
        if self.is_virtual:
            return f"v{self.index}"
        return str(self.index if self.sign > 0 else -self.index)


def classical(index: int, sign: int = 1) -> BraidLetter:
    return BraidLetter(_CLASSICAL, index, sign)


def virtual(index: int) -> BraidLetter:
    return BraidLetter(_VIRTUAL, index)


class _BraidWord(NamedTuple):
    strands: int
    letters: tuple[BraidLetter, ...]


class BraidWord(_Checked, _BraidWord):
    """An ordered sequence of letters on ``strands`` strands.

    ``len`` counts the letters, not the two fields.
    """

    __slots__ = ()

    def __new__(cls, strands: int, letters: Iterable[BraidLetter] = ()) -> BraidWord:
        letters = tuple(letters)
        if strands < 1:
            raise ValueError(f"strand count must be >= 1, got {strands}")
        if max(map(attrgetter("index"), letters), default=0) >= strands:
            letter = next(letter for letter in letters if letter.index >= strands)
            raise ValueError(
                f"letter {letter.token()} needs at least {letter.index + 1} "
                f"strands, word has {strands}"
            )
        return tuple.__new__(cls, (strands, letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return self.emit()

    def classical_count(self) -> int:
        return sum(1 for letter in self.letters if letter.is_classical)

    def emit(self) -> str:
        """Canonical text form: single-space-separated tokens."""
        return " ".join(letter.token() for letter in self.letters)

    def replace(self, start: int, stop: int,
                replacement: Iterable[BraidLetter]) -> "BraidWord":
        """New word with ``letters[start:stop]`` swapped for ``replacement``."""
        return BraidWord(
            self.strands,
            self.letters[:start] + tuple(replacement) + self.letters[stop:],
        )


_BRAID_TOKEN = re.compile(r"(v|-)?([0-9]+)\Z")


def parse_braid(text: str, strands: int | None = None) -> BraidWord:
    """Parse whitespace-separated tokens ``K`` / ``-K`` / ``vK``.

    ``K`` is a positive generator, ``-K`` its inverse, ``vK`` a virtual swap.
    When ``strands`` is omitted it is inferred as one more than the largest
    index (1 for the empty word).  Only the token syntax is checked here;
    index and strand-count ranges are BraidLetter's and BraidWord's to check.
    """
    tokens = []
    for token in text.split():
        match = _BRAID_TOKEN.match(token)
        if match is None:
            raise BraidParseError(f"malformed braid token {token!r}")
        tokens.append(match.groups())
    try:
        letters = tuple(
            BraidLetter(_VIRTUAL if prefix == "v" else _CLASSICAL,
                        int(digits), -1 if prefix == "-" else 1)
            for prefix, digits in tokens)
        if strands is None:
            strands = 1 + max((letter.index for letter in letters), default=0)
        return BraidWord(strands, letters)
    except ValueError as error:
        raise BraidParseError(str(error)) from None


def _block_indices(strands: int, blocks: int, tail: int) -> list[int]:
    """Letter indices of the family layout: ``blocks`` ascending blocks
    1, 2, ..., strands-1, then the descending tail tail, tail-1, ..., 1."""
    return list(range(1, strands)) * blocks + list(range(tail, 0, -1))


class _OnFirstUse(dict):
    """A dict that builds a missing key's value with ``make`` and keeps it."""

    def __init__(self, make: Callable[[Any], Any]):
        super().__init__()
        self.make = make

    def __missing__(self, key: Any) -> Any:
        value = self[key] = self.make(key)
        return value


# letters are frozen and compare by value, so one letter per index serves
# every family word
_VIRTUALS = _OnFirstUse(virtual)
_CLASSICALS = _OnFirstUse(classical)


def _family_word(strands: int, indices: list[int], n_virtual: int) -> BraidWord:
    """The word with these letter indices: the first ``n_virtual`` letters
    virtual, the rest classical with sign +1."""
    return BraidWord(strands, (*map(_VIRTUALS.__getitem__, indices[:n_virtual]),
                               *map(_CLASSICALS.__getitem__, indices[n_virtual:])))


def make_vt(p: int, q: int, n: int) -> BraidWord:
    """Standard (p,q) torus braid with the first n ascending blocks virtualized.

    The word is (v_1 ... v_{p-1})^n (s_1 ... s_{p-1})^{q-n} on p strands with
    every classical sign +1; in each classical block the strand entering at
    position 1 passes over everything it crosses.
    """
    if not type(p) is type(q) is type(n) is int:
        raise ValueError(f"vt parameters must be integers, got {(p, q, n)!r}")
    if p < 2 or q < 1 or not 1 <= n <= q:
        raise ValueError(f"invalid vt parameters (p,q,n)=({p},{q},{n}): "
                         "need p >= 2, q >= 1, 1 <= n <= q")
    return _family_word(p, _block_indices(p, q, 0), n * (p - 1))


def make_ijk(i: int, j: int, k: int) -> BraidWord:
    """One virtualized ascending block, j-1 classical ascending blocks, then
    the descending tail s_k s_{k-1} ... s_1, all on i strands.

    The classical crossing count is (i-1)(j-1) + k.
    """
    if not type(i) is type(j) is type(k) is int:
        raise ValueError(f"ijk parameters must be integers, got {(i, j, k)!r}")
    if i < 1 or j < 1 or not 0 <= k < i:
        raise ValueError(f"invalid ijk parameters (i,j,k)=({i},{j},{k}): "
                         "need i >= 1, j >= 1, 0 <= k < i")
    return _family_word(i, _block_indices(i, j, k), i - 1)


# ASCII digits only, as in _BRAID_TOKEN: int() alone also reads "٧", "1_0",
# "+7" and " 7 "
_FAMILY_PARAMS = re.compile(r"-?[0-9]+(,-?[0-9]+)*\Z")


def parse_family(text: str) -> BraidWord:
    """The word of a family spec: ``vt:P,Q,N`` is ``make_vt(P, Q, N)`` and
    ``ijk:I,J,K`` is ``make_ijk(I, J, K)``.

    Syntax, arity and variant are checked here, in that order; the
    parameter ranges are make_vt's and make_ijk's to check.
    """
    variant, sep, rest = text.partition(":")
    if not sep or _FAMILY_PARAMS.match(rest) is None:
        raise ValueError(
            f"family must look like 'vt:P,Q,N' or 'ijk:I,J,K', got {text!r}")
    params = [int(part) for part in rest.split(",")]
    if len(params) != 3:
        raise ValueError("families take exactly three parameters")
    families = {"vt": make_vt, "ijk": make_ijk}
    if variant not in families:
        raise ValueError(f"unknown family variant {variant!r}")
    return families[variant](*params)


def _occupants(strands: int, indices: Iterable[int],
               start: list[int] | None = None) -> list[int]:
    """The strand (named by its 0-based entry position) at each 0-based exit
    position, after swapping positions index and index + 1 for each 1-based
    letter index in turn, starting from ``start`` (default: the identity)."""
    occupant = list(range(strands)) if start is None else start.copy()
    for index in indices:
        a = index - 1
        occupant[a], occupant[a + 1] = occupant[a + 1], occupant[a]
    return occupant


def _exit_positions(occupant: list[int]) -> list[int]:
    """0-based exit position of each strand, inverting ``_occupants``."""
    exit_of = [0] * len(occupant)
    for position, strand in enumerate(occupant):
        exit_of[strand] = position
    return exit_of


def _cycles(occupant: list[int]) -> list[list[int]]:
    """The closure's components, one per cycle of the permutation, given
    the word's ``_occupants``.  Each lists its strands in walking order: the
    strand entering where the previous one exits comes next.  The first
    component starts at strand 0."""
    exit_of = _exit_positions(occupant)
    seen = [False] * len(occupant)
    cycles = []
    for start in range(len(occupant)):
        if seen[start]:
            continue
        cycle, strand = [], start
        while not seen[strand]:
            seen[strand] = True
            cycle.append(strand)
            strand = exit_of[strand]
        cycles.append(cycle)
    return cycles


def permutation(word: BraidWord) -> tuple[int, ...]:
    """Right endpoint position of each strand, letters applied left to right.

    Entry m-1 is the 1-based position where the strand entering at position m
    exits on the right; classical and virtual letters both transpose.
    """
    occupant = _occupants(word.strands, (letter.index for letter in word.letters))
    return tuple(position + 1 for position in _exit_positions(occupant))


def component_count(word: BraidWord) -> int:
    """Number of components of the word's closure (cycles of the permutation)."""
    return len(_cycles(_occupants(word.strands,
                                  (letter.index for letter in word.letters))))


class RewriteKind(Enum):
    FAR_COMMUTE = "far-commute"
    BRAID_RELATION = "braid-relation"
    VIRTUAL_RELATION = "virtual-relation"
    MIXED_RELATION = "mixed-relation"
    VIRTUAL_CANCEL = "virtual-cancel"
    CLASSICAL_CANCEL = "classical-cancel"
    VIRTUAL_INSERT = "virtual-insert"
    CLASSICAL_INSERT = "classical-insert"
    CONJUGATE = "conjugate"


_Letters = tuple[BraidLetter, ...]


class Rewrite(NamedTuple):
    """One closure-preserving move, located by word position.

    ``index`` is set only for insertions and ``sign`` only for classical
    insertions; conjugation always has ``pos`` 0.  ``apply_rewrite``
    refuses any other value of those fields, so each move has one value.
    """

    kind: RewriteKind
    pos: int = 0
    index: int = 0
    sign: int = 1


def _far_commute(a: BraidLetter, b: BraidLetter) -> _Letters | None:
    # x_k y_l  <->  y_l x_k  for |k - l| >= 2
    return (b, a) if abs(a.index - b.index) >= 2 else None


def _virtual_cancel(a: BraidLetter, b: BraidLetter) -> _Letters | None:
    # v_k v_k  ->  empty
    return () if a.is_virtual and b.is_virtual and a.index == b.index else None


def _classical_cancel(a: BraidLetter, b: BraidLetter) -> _Letters | None:
    # s_k^e s_k^-e  ->  empty
    ok = (a.is_classical and b.is_classical and a.index == b.index
          and a.sign == -b.sign)
    return () if ok else None


def _braid_relation(a: BraidLetter, b: BraidLetter, c: BraidLetter) -> _Letters | None:
    # s_k^e s_{k±1}^e s_k^e  <->  s_{k±1}^e s_k^e s_{k±1}^e
    if (a.is_classical and b.is_classical and c.is_classical
            and a.index == c.index and abs(a.index - b.index) == 1
            and a.sign == b.sign == c.sign):
        return (classical(b.index, a.sign), classical(a.index, a.sign),
                classical(b.index, a.sign))
    return None


def _virtual_relation(a: BraidLetter, b: BraidLetter, c: BraidLetter) -> _Letters | None:
    # v_k v_{k±1} v_k  <->  v_{k±1} v_k v_{k±1}
    if (a.is_virtual and b.is_virtual and c.is_virtual
            and a.index == c.index and abs(a.index - b.index) == 1):
        return (virtual(b.index), virtual(a.index), virtual(b.index))
    return None


def _mixed_pattern(a: BraidLetter, b: BraidLetter, c: BraidLetter) -> _Letters | None:
    # v_k v_{k+1} s_k^e  <->  s_{k+1}^e v_k v_{k+1}
    if (a.is_virtual and b.is_virtual and c.is_classical
            and b.index == a.index + 1 and c.index == a.index):
        return (classical(a.index + 1, c.sign), virtual(a.index), virtual(a.index + 1))
    if (a.is_classical and b.is_virtual and c.is_virtual
            and a.index == b.index + 1 and c.index == b.index + 1):
        return (virtual(b.index), virtual(b.index + 1), classical(b.index, a.sign))
    return None


# Each local rewrite: its window width and the function that returns the
# window's replacement, or None where the pattern is absent.  Listing order
# within a window follows this table.
_LOCAL_MOVES = {
    RewriteKind.FAR_COMMUTE: (2, _far_commute),
    RewriteKind.VIRTUAL_CANCEL: (2, _virtual_cancel),
    RewriteKind.CLASSICAL_CANCEL: (2, _classical_cancel),
    RewriteKind.BRAID_RELATION: (3, _braid_relation),
    RewriteKind.VIRTUAL_RELATION: (3, _virtual_relation),
    RewriteKind.MIXED_RELATION: (3, _mixed_pattern),
}


def rewrite_moves(word: BraidWord, include_insertions: bool = True) -> tuple[Rewrite, ...]:
    """All rewrites applicable to ``word``, in a fixed deterministic order:
    2-letter moves by position, 3-letter moves by position, conjugation,
    then insertions.

    Pair insertions apply at every position, so they dominate the listing;
    pass ``include_insertions=False`` for only the length-preserving and
    length-reducing moves.
    """
    letters = word.letters
    n = len(letters)
    moves: list[Rewrite] = []
    for width in (2, 3):
        for pos in range(n - width + 1):
            window = letters[pos:pos + width]
            moves.extend(Rewrite(kind, pos)
                         for kind, (size, replace) in _LOCAL_MOVES.items()
                         if size == width and replace(*window) is not None)
    if n >= 1:
        moves.append(Rewrite(RewriteKind.CONJUGATE))
    if include_insertions:
        for pos in range(n + 1):
            for index in range(1, word.strands):
                moves.append(Rewrite(RewriteKind.VIRTUAL_INSERT, pos, index))
                moves.append(Rewrite(RewriteKind.CLASSICAL_INSERT, pos, index, 1))
                moves.append(Rewrite(RewriteKind.CLASSICAL_INSERT, pos, index, -1))
    return tuple(moves)


def apply_rewrite(word: BraidWord, move: Rewrite) -> BraidWord:
    """Apply one rewrite; raises RewriteError when it does not fit."""
    letters = word.letters
    n = len(letters)
    kind, pos = move.kind, move.pos
    # one Rewrite value per move: fields the kind does not use keep their defaults
    if move.sign != 1 and kind is not RewriteKind.CLASSICAL_INSERT:
        raise RewriteError(f"{kind.value} takes no sign, got {move.sign}")
    if move.index != 0 and kind not in (RewriteKind.VIRTUAL_INSERT,
                                        RewriteKind.CLASSICAL_INSERT):
        raise RewriteError(f"{kind.value} takes no index, got {move.index}")
    if kind in _LOCAL_MOVES:
        width, replace = _LOCAL_MOVES[kind]
        if not 0 <= pos <= n - width:
            raise RewriteError(f"{kind.value} needs {width} letters at position {pos}")
        replacement = replace(*letters[pos:pos + width])
        if replacement is None:
            raise RewriteError(f"{kind.value} pattern not present at position {pos}")
        return word.replace(pos, pos + width, replacement)
    if kind is RewriteKind.VIRTUAL_INSERT:
        if not 0 <= pos <= n or not 1 <= move.index < word.strands:
            raise RewriteError("virtual insertion out of range")
        return word.replace(pos, pos, (virtual(move.index), virtual(move.index)))
    if kind is RewriteKind.CLASSICAL_INSERT:
        if (not 0 <= pos <= n or not 1 <= move.index < word.strands
                or move.sign not in (1, -1)):
            raise RewriteError("classical insertion out of range")
        return word.replace(pos, pos, (classical(move.index, move.sign),
                                       classical(move.index, -move.sign)))
    if kind is RewriteKind.CONJUGATE:
        if n == 0:
            raise RewriteError("cannot conjugate the empty word")
        if pos != 0:
            raise RewriteError(f"conjugation is listed at position 0, got {pos}")
        return BraidWord(word.strands, letters[1:] + letters[:1])
    raise RewriteError(f"unknown rewrite kind {kind!r}")
