"""Virtual braid words: parsing, family constructors, closure combinatorics,
and equivalence-preserving rewrites.

A word lives on a fixed strand count and is read left to right.  Classical
letters are signed braid generators; virtual letters are unsigned strand
swaps.  The closure joins right endpoint m to left endpoint m, so the
components of the closed-up link are exactly the cycles of the word's
permutation.  All values are immutable and every operation returns a new
word, so concurrent use needs no locking.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable


class LetterKind(Enum):
    CLASSICAL = "classical"
    VIRTUAL = "virtual"


class BraidParseError(ValueError):
    """Malformed braid text, out-of-range index, or bad strand count."""


class RewriteError(ValueError):
    """A rewrite that does not apply at its stated location."""


@dataclass(frozen=True)
class BraidLetter:
    """A single generator acting on strand positions ``index`` and ``index + 1``."""

    kind: LetterKind
    index: int
    sign: int = 1

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError(f"letter index must be >= 1, got {self.index}")
        if self.sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {self.sign}")
        if self.kind is LetterKind.VIRTUAL and self.sign != 1:
            raise ValueError("virtual letters always carry sign +1")

    @property
    def is_classical(self) -> bool:
        return self.kind is LetterKind.CLASSICAL

    @property
    def is_virtual(self) -> bool:
        return self.kind is LetterKind.VIRTUAL

    def token(self) -> str:
        if self.is_virtual:
            return f"v{self.index}"
        return str(self.index if self.sign > 0 else -self.index)

    def inverse(self) -> "BraidLetter":
        if self.is_virtual:
            return self
        return BraidLetter(self.kind, self.index, -self.sign)


def classical(index: int, sign: int = 1) -> BraidLetter:
    return BraidLetter(LetterKind.CLASSICAL, index, sign)


def virtual(index: int) -> BraidLetter:
    return BraidLetter(LetterKind.VIRTUAL, index)


@dataclass(frozen=True)
class BraidWord:
    """An ordered sequence of letters on ``strands`` strands."""

    strands: int
    letters: tuple[BraidLetter, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(self.letters))
        if self.strands < 1:
            raise ValueError(f"strand count must be >= 1, got {self.strands}")
        for letter in self.letters:
            if letter.index >= self.strands:
                raise ValueError(
                    f"letter {letter.token()} needs at least {letter.index + 1} "
                    f"strands, word has {self.strands}"
                )

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


def parse_braid(text: str, strands: int | None = None) -> BraidWord:
    """Parse whitespace-separated tokens ``K`` / ``-K`` / ``vK``.

    ``K`` is a positive generator, ``-K`` its inverse, ``vK`` a virtual swap.
    When ``strands`` is omitted it is inferred as one more than the largest
    index (1 for the empty word).
    """
    letters: list[BraidLetter] = []
    for token in text.split():
        if token.startswith("v"):
            kind, sign, body = LetterKind.VIRTUAL, 1, token[1:]
        elif token.startswith("-"):
            kind, sign, body = LetterKind.CLASSICAL, -1, token[1:]
        else:
            kind, sign, body = LetterKind.CLASSICAL, 1, token
        if not body.isdigit() or int(body) < 1:
            raise BraidParseError(f"malformed braid token {token!r}")
        letters.append(BraidLetter(kind, int(body), sign))
    if strands is None:
        strands = 1 + max((letter.index for letter in letters), default=0)
    if strands < 1:
        raise BraidParseError(f"strand count must be >= 1, got {strands}")
    for letter in letters:
        if letter.index >= strands:
            raise BraidParseError(
                f"token {letter.token()!r} out of range for {strands} strands")
    return BraidWord(strands, tuple(letters))


@dataclass(frozen=True)
class FamilySpec:
    """A named diagram family plus its three integer parameters.

    ``vt:P,Q,N`` is the standard (P,Q) torus braid with its first N ascending
    blocks virtualized; ``ijk:I,J,K`` appends the descending tail of length K
    to a singly-virtualized torus braid.
    """

    variant: str
    params: tuple[int, int, int]

    def __post_init__(self) -> None:
        # the parameter ranges are make_vt's and make_ijk's to check
        object.__setattr__(self, "params", tuple(self.params))
        if len(self.params) != 3:
            raise ValueError("families take exactly three parameters")
        if self.variant not in ("vt", "ijk"):
            raise ValueError(f"unknown family variant {self.variant!r}")

    @classmethod
    def parse(cls, text: str) -> "FamilySpec":
        variant, sep, rest = text.partition(":")
        if not sep:
            raise ValueError(
                f"family must look like 'vt:P,Q,N' or 'ijk:I,J,K', got {text!r}")
        try:
            params = tuple(int(part) for part in rest.split(","))
        except ValueError:
            raise ValueError(f"non-integer family parameters in {text!r}") from None
        if len(params) != 3:
            raise ValueError(f"family {text!r} needs exactly three parameters")
        return cls(variant, params)  # type: ignore[arg-type]

    def build(self) -> BraidWord:
        if self.variant == "vt":
            return make_vt(*self.params)
        return make_ijk(*self.params)


def make_vt(p: int, q: int, n: int) -> BraidWord:
    """Standard (p,q) torus braid with the first n ascending blocks virtualized.

    The word is (v_1 ... v_{p-1})^n (s_1 ... s_{p-1})^{q-n} on p strands with
    every classical sign +1; in each classical block the strand entering at
    position 1 passes over everything it crosses.
    """
    if p < 2 or q < 1 or not 1 <= n <= q:
        raise ValueError(f"invalid vt parameters (p,q,n)=({p},{q},{n}): "
                         "need p >= 2, q >= 1, 1 <= n <= q")
    # letters are frozen, so every block shares one list of them
    virtual_block = [virtual(k) for k in range(1, p)]
    classical_block = [classical(k) for k in range(1, p)]
    letters: list[BraidLetter] = []
    for _ in range(n):
        letters.extend(virtual_block)
    for _ in range(q - n):
        letters.extend(classical_block)
    return BraidWord(p, tuple(letters))


def make_ijk(i: int, j: int, k: int) -> BraidWord:
    """One virtualized ascending block, j-1 classical ascending blocks, then
    the descending tail s_k s_{k-1} ... s_1, all on i strands.

    The classical crossing count is (i-1)(j-1) + k.
    """
    if i < 1 or j < 1 or not 0 <= k < i:
        raise ValueError(f"invalid ijk parameters (i,j,k)=({i},{j},{k}): "
                         "need i >= 1, j >= 1, 0 <= k < i")
    # letters are frozen, so every block shares one list of them
    block = [classical(t) for t in range(1, i)]
    letters = [virtual(t) for t in range(1, i)]
    for _ in range(j - 1):
        letters.extend(block)
    letters.extend(reversed(block[:k]))
    return BraidWord(i, tuple(letters))


def permutation(word: BraidWord) -> tuple[int, ...]:
    """Right endpoint position of each strand, letters applied left to right.

    Entry m-1 is the 1-based position where the strand entering at position m
    exits on the right; classical and virtual letters both transpose.
    """
    occupant = list(range(word.strands))
    for letter in word.letters:
        a = letter.index - 1
        occupant[a], occupant[a + 1] = occupant[a + 1], occupant[a]
    result = [0] * word.strands
    for position, start in enumerate(occupant):
        result[start] = position + 1
    return tuple(result)


def component_count(word: BraidWord) -> int:
    """Number of components of the word's closure (cycles of the permutation)."""
    perm = permutation(word)
    seen = [False] * word.strands
    cycles = 0
    for start in range(word.strands):
        if seen[start]:
            continue
        cycles += 1
        m = start
        while not seen[m]:
            seen[m] = True
            m = perm[m] - 1
    return cycles


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


@dataclass(frozen=True)
class Rewrite:
    """One closure-preserving move, located by word position.

    ``index`` and ``sign`` only matter for insertions.
    """

    kind: RewriteKind
    pos: int = 0
    index: int = 0
    sign: int = 1


def _mixed_pattern(a: BraidLetter, b: BraidLetter,
                   c: BraidLetter) -> tuple[BraidLetter, ...] | None:
    # v_k v_{k+1} s_k^e  <->  s_{k+1}^e v_k v_{k+1}
    if (a.is_virtual and b.is_virtual and c.is_classical
            and b.index == a.index + 1 and c.index == a.index):
        return (classical(a.index + 1, c.sign), virtual(a.index), virtual(a.index + 1))
    if (a.is_classical and b.is_virtual and c.is_virtual
            and a.index == b.index + 1 and c.index == b.index + 1):
        return (virtual(b.index), virtual(b.index + 1), classical(b.index, a.sign))
    return None


def rewrite_moves(word: BraidWord, include_insertions: bool = True) -> tuple[Rewrite, ...]:
    """All rewrites applicable to ``word``, in a fixed deterministic order.

    Pair insertions apply at every position, so they dominate the listing;
    pass ``include_insertions=False`` for only the length-preserving and
    length-reducing moves.
    """
    letters = word.letters
    n = len(letters)
    moves: list[Rewrite] = []
    for pos in range(n - 1):
        a, b = letters[pos], letters[pos + 1]
        if abs(a.index - b.index) >= 2:
            moves.append(Rewrite(RewriteKind.FAR_COMMUTE, pos))
        if a.is_virtual and b.is_virtual and a.index == b.index:
            moves.append(Rewrite(RewriteKind.VIRTUAL_CANCEL, pos))
        if (a.is_classical and b.is_classical and a.index == b.index
                and a.sign == -b.sign):
            moves.append(Rewrite(RewriteKind.CLASSICAL_CANCEL, pos))
    for pos in range(n - 2):
        a, b, c = letters[pos], letters[pos + 1], letters[pos + 2]
        if a.index == c.index and abs(a.index - b.index) == 1:
            if (a.is_classical and b.is_classical and c.is_classical
                    and a.sign == b.sign == c.sign):
                moves.append(Rewrite(RewriteKind.BRAID_RELATION, pos))
            if a.is_virtual and b.is_virtual and c.is_virtual:
                moves.append(Rewrite(RewriteKind.VIRTUAL_RELATION, pos))
        if _mixed_pattern(a, b, c) is not None:
            moves.append(Rewrite(RewriteKind.MIXED_RELATION, pos))
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

    def window(size: int) -> tuple[BraidLetter, ...]:
        if not 0 <= pos <= n - size:
            raise RewriteError(f"{kind.value} needs {size} letters at position {pos}")
        return letters[pos:pos + size]

    if kind is RewriteKind.FAR_COMMUTE:
        a, b = window(2)
        if abs(a.index - b.index) < 2:
            raise RewriteError("far commutation needs index distance >= 2")
        return word.replace(pos, pos + 2, (b, a))
    if kind is RewriteKind.VIRTUAL_CANCEL:
        a, b = window(2)
        if not (a.is_virtual and b.is_virtual and a.index == b.index):
            raise RewriteError("virtual cancellation needs v_k v_k")
        return word.replace(pos, pos + 2, ())
    if kind is RewriteKind.CLASSICAL_CANCEL:
        a, b = window(2)
        if not (a.is_classical and b.is_classical and a.index == b.index
                and a.sign == -b.sign):
            raise RewriteError("classical cancellation needs an opposite-sign pair")
        return word.replace(pos, pos + 2, ())
    if kind is RewriteKind.BRAID_RELATION:
        a, b, c = window(3)
        ok = (a.is_classical and b.is_classical and c.is_classical
              and a.index == c.index and abs(a.index - b.index) == 1
              and a.sign == b.sign == c.sign)
        if not ok:
            raise RewriteError("braid relation needs equal-sign s_k s_{k±1} s_k")
        return word.replace(pos, pos + 3, (
            classical(b.index, a.sign), classical(a.index, a.sign),
            classical(b.index, a.sign)))
    if kind is RewriteKind.VIRTUAL_RELATION:
        a, b, c = window(3)
        if not (a.is_virtual and b.is_virtual and c.is_virtual
                and a.index == c.index and abs(a.index - b.index) == 1):
            raise RewriteError("virtual relation needs v_k v_{k±1} v_k")
        return word.replace(pos, pos + 3,
                            (virtual(b.index), virtual(a.index), virtual(b.index)))
    if kind is RewriteKind.MIXED_RELATION:
        replacement = _mixed_pattern(*window(3))
        if replacement is None:
            raise RewriteError("mixed relation pattern not present")
        return word.replace(pos, pos + 3, replacement)
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
        return BraidWord(word.strands, letters[1:] + letters[:1])
    raise RewriteError(f"unknown rewrite kind {kind!r}")
