"""Virtual braid words: parsing, family constructors and closure
combinatorics.

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
``_cycles`` is the one walk of the closure's components.
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
        if type(strands) is not int:
            raise ValueError(f"strand count must be an integer, got {strands!r}")
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

    def emit(self) -> str:
        """Canonical text form: single-space-separated tokens."""
        return " ".join(letter.token() for letter in self.letters)


_BRAID_TOKEN = re.compile(r"(v|-)?([0-9]+)\Z")


def parse_braid(text: str, strands: int | None = None) -> BraidWord:
    """Parse whitespace-separated tokens ``K`` / ``-K`` / ``vK``.

    ``K`` is a positive generator, ``-K`` its inverse, ``vK`` a virtual swap.
    When ``strands`` is omitted it is inferred as one more than the largest
    index (1 for the empty word).  Only the token syntax is checked here;
    index and strand-count ranges are BraidLetter's and BraidWord's to check.
    Each distinct token, in order of first appearance, is checked and then
    built once, and equal tokens share their letter, as family words do.
    """
    tokens = text.split()
    groups = dict.fromkeys(tokens)
    for token in groups:
        match = _BRAID_TOKEN.match(token)
        if match is None:
            raise BraidParseError(f"malformed braid token {token!r}")
        groups[token] = match.groups()
    try:
        letters = {token: BraidLetter(_VIRTUAL if prefix == "v" else _CLASSICAL,
                                      int(digits), -1 if prefix == "-" else 1)
                   for token, (prefix, digits) in groups.items()}
        if strands is None:
            strands = 1 + max((letter.index for letter in letters.values()), default=0)
        return BraidWord(strands, map(letters.__getitem__, tokens))
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


def _cycles(occupant: list[int]) -> list[list[int]]:
    """The closure's components, one per cycle of the permutation, given
    the word's ``_occupants``.  Each lists its strands in walking order: the
    strand entering where the previous one exits comes next.  The first
    component starts at strand 0."""
    exit_of = [0] * len(occupant)  # each strand's 0-based exit position
    for position, strand in enumerate(occupant):
        exit_of[strand] = position
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


def component_count(word: BraidWord) -> int:
    """Number of components of the word's closure (cycles of the permutation)."""
    return len(_cycles(_occupants(word.strands,
                                  (letter.index for letter in word.letters))))
