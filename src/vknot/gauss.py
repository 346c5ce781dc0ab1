"""Gauss diagrams traced from one-component braid closures.

A diagram is a cyclic sequence of 2N endpoint records read from a fixed
basepoint, plus a sign per chord.  Chord c's arrow runs from its over
passage (the tail) to its under passage (the head); virtual crossings leave
no trace.  The basepoint and orientation come from the tracing convention
(start at strand position 1, follow the braid left to right), but every
invariant downstream is defined cyclically and so cannot depend on them.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Iterable, NamedTuple

from .braid import BraidLetter, BraidWord, _CLASSICAL, _Checked, _cycles


class Role(Enum):
    OVER = "O"
    UNDER = "U"

    def flipped(self) -> "Role":
        return _UNDER if self is _OVER else _OVER


# loops over endpoints compare against these names, as braid's loops over
# letters compare against _CLASSICAL and _VIRTUAL
_OVER, _UNDER = Role.OVER, Role.UNDER


class MultiComponentError(ValueError):
    """The closure is a link, not a knot."""

    def __init__(self, components: int):
        super().__init__(f"closure has {components} components, need exactly 1")
        self.components = components


class GaussCodeError(ValueError):
    """Malformed Gauss-code text."""


class _GaussDiagram(NamedTuple):
    endpoints: tuple[tuple[int, Role], ...]
    signs: tuple[int, ...]


class GaussDiagram(_Checked, _GaussDiagram):
    """Cyclic endpoint sequence with one sign per chord.

    Chord ids are dense integers in [0, n_chords); each id appears exactly
    once with each role.  The walk that checks this also records where
    each chord's over and under endpoints sit, in the instance dict, so the
    tuple and with it equality, hash and repr hold only the two fields.
    """

    def __new__(cls, endpoints: Iterable[tuple[int, Role]],
                signs: Iterable[int]) -> GaussDiagram:
        endpoints, signs = tuple(endpoints), tuple(signs)
        n = len(signs)
        if len(endpoints) != 2 * n:
            raise ValueError("endpoint sequence must list every chord twice")
        over, under = [-1] * n, [-1] * n
        for position, (chord, role) in enumerate(endpoints):
            if type(chord) is not int:
                raise ValueError(f"chord ids must be integers, got {chord!r}")
            if not 0 <= chord < n:
                raise ValueError(f"chord id {chord} out of range for {n} chords")
            seen = over if role is _OVER else under if role is _UNDER else None
            if seen is None:
                raise ValueError(f"chord {chord} has role {role!r}, not a Role")
            if seen[chord] >= 0:
                raise ValueError(f"chord {chord} repeats role {role.value}")
            seen[chord] = position
        if not {*signs} <= {1, -1} or not {*map(type, signs)} <= {int}:
            raise ValueError("chord signs must be +1 or -1")
        self = tuple.__new__(cls, (endpoints, signs))
        self.__dict__["_positions"] = (tuple(over), tuple(under))
        return self

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot set or delete {name!r}: GaussDiagram is immutable")

    __delattr__ = __setattr__

    @property
    def n_chords(self) -> int:
        return len(self.signs)

    def check_chord(self, chord: int) -> None:
        if type(chord) is not int or not 0 <= chord < self.n_chords:
            raise ValueError(f"invalid chord reference {chord!r}")

    def chord_positions(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Positions of every chord's (over, under) endpoint, indexed by id."""
        return self._positions


def gauss_from_closure(word: BraidWord) -> GaussDiagram:
    """Trace the closure of ``word`` from the left end of strand position 1.

    Classical letters are recorded on both visits: in a positive letter the
    strand entering at the letter's index passes over, in a negative letter
    it passes under.  Virtual letters only transpose the walker.  Chords are
    numbered by the order of the classical letters in the word and carry the
    letter signs.

    One sweep over the letters records what each strand meets; the strands'
    records are then spliced along the closure's one component, which must
    hold every strand.
    """
    visits: list[list[tuple[int, Role]]] = [[] for _ in range(word.strands)]
    occupant = list(range(word.strands))  # strands, named by entry position
    signs: list[int] = []
    _sweep(word.letters, visits, occupant, signs)
    cycles = _cycles(occupant)
    if len(cycles) != 1:
        raise MultiComponentError(len(cycles))
    return _splice(visits, cycles[0], signs)


def _sweep(letters: Iterable[BraidLetter], visits: list[list[tuple[int, Role]]],
           occupant: list[int], signs: list[int]) -> None:
    """Extend a trace in place by ``letters``: each strand's ``visits``, the
    strand at each position (``occupant``) and the chord ``signs``.  A word
    traced in pieces gives the same lists as traced whole."""
    classical, over, under = _CLASSICAL, _OVER, _UNDER
    for letter in letters:
        a = letter.index - 1
        top, bottom = occupant[a], occupant[a + 1]
        if letter.kind is classical:
            chord, sign = len(signs), letter.sign
            signs.append(sign)
            if sign > 0:
                visits[top].append((chord, over))
                visits[bottom].append((chord, under))
            else:
                visits[top].append((chord, under))
                visits[bottom].append((chord, over))
        occupant[a], occupant[a + 1] = bottom, top


def _splice(visits: list[list[tuple[int, Role]]], cycle: list[int],
            signs: list[int]) -> GaussDiagram:
    """The diagram of a finished trace: the strands' visits joined along
    ``cycle``, the closure's one component as ``_cycles`` walks it."""
    endpoints = [visit for strand in cycle for visit in visits[strand]]
    return GaussDiagram(tuple(endpoints), tuple(signs))


def flip(diagram: GaussDiagram, chord: int) -> GaussDiagram:
    """Reverse one chord's arrow and negate its sign (one crossing change)."""
    diagram.check_chord(chord)
    endpoints = tuple((c, role.flipped() if c == chord else role)
                      for c, role in diagram.endpoints)
    signs = tuple(-s if c == chord else s for c, s in enumerate(diagram.signs))
    return GaussDiagram(endpoints, signs)


def remove_chords(diagram: GaussDiagram, chords: Iterable[int]) -> GaussDiagram:
    """Drop the given chords and re-index the survivors densely."""
    chords = tuple(chords)
    for chord in chords:  # before the set merges False into 0, or 1.0 into 1
        diagram.check_chord(chord)
    doomed = set(chords)
    relabel: dict[int, int] = {}
    for chord in range(diagram.n_chords):
        if chord not in doomed:
            relabel[chord] = len(relabel)
    endpoints = tuple(
        (relabel[c], role) for c, role in diagram.endpoints if c not in doomed)
    signs = tuple(s for c, s in enumerate(diagram.signs) if c not in doomed)
    return GaussDiagram(endpoints, signs)


_GAUSS_TOKEN = re.compile(r"([OU])([0-9]+)([+-])\Z")


def emit_gauss_code(diagram: GaussDiagram) -> str:
    """Endpoint tokens from the basepoint: role letter, 1-based label, sign."""
    # each chord's label and sign once; a dict keyed by Role would hash
    # through Enum.__hash__, slower than the identity test
    labels = [f"{chord + 1}{'+' if sign > 0 else '-'}"
              for chord, sign in enumerate(diagram.signs)]
    return " ".join([("O" if role is _OVER else "U") + labels[chord]
                     for chord, role in diagram.endpoints])


def parse_gauss_code(text: str) -> GaussDiagram:
    """Inverse of emit_gauss_code; labels may be any positive integers.

    Token syntax and sign consistency are checked here.  That every chord
    appears once as O and once as U is GaussDiagram's to check; its messages
    name the dense 0-based chord ids.
    """
    entries: list[tuple[int, Role, int]] = []
    for token in text.split():
        match = _GAUSS_TOKEN.match(token)
        if match is None:
            raise GaussCodeError(f"malformed Gauss-code token {token!r}")
        role = _OVER if match.group(1) == "O" else _UNDER
        try:
            label = int(match.group(2))
        except ValueError as error:  # more digits than int() converts
            raise GaussCodeError(str(error)) from None
        if label < 1:
            raise GaussCodeError(f"labels are 1-based, got {token!r}")
        entries.append((label, role, 1 if match.group(3) == "+" else -1))
    labels = sorted({label for label, _, _ in entries})
    index = {label: i for i, label in enumerate(labels)}
    sign_of: dict[int, int] = {}
    for label, _, sign in entries:
        if sign_of.setdefault(label, sign) != sign:
            raise GaussCodeError(f"chord {label} has inconsistent signs")
    endpoints = tuple((index[label], role) for label, role, _ in entries)
    signs = tuple(sign_of[label] for label in labels)
    try:
        return GaussDiagram(endpoints, signs)
    except ValueError as error:
        raise GaussCodeError(str(error)) from None
