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
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .braid import BraidWord, component_count


class Role(Enum):
    OVER = "O"
    UNDER = "U"

    def flipped(self) -> "Role":
        return Role.UNDER if self is Role.OVER else Role.OVER


class MultiComponentError(ValueError):
    """The closure is a link, not a knot."""

    def __init__(self, components: int):
        super().__init__(f"closure has {components} components, need exactly 1")
        self.components = components


class GaussCodeError(ValueError):
    """Malformed Gauss-code text."""


@dataclass(frozen=True)
class GaussDiagram:
    """Cyclic endpoint sequence with one sign per chord.

    Chord ids are dense integers in [0, n_chords); each id appears exactly
    once with each role.
    """

    endpoints: tuple[tuple[int, Role], ...]
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "endpoints", tuple(self.endpoints))
        object.__setattr__(self, "signs", tuple(self.signs))
        n = len(self.signs)
        if len(self.endpoints) != 2 * n:
            raise ValueError("endpoint sequence must list every chord twice")
        has_over, has_under = [False] * n, [False] * n
        for chord, role in self.endpoints:
            if not 0 <= chord < n:
                raise ValueError(f"chord id {chord} out of range for {n} chords")
            seen = has_over if role is Role.OVER else has_under
            if seen[chord]:
                raise ValueError(f"chord {chord} repeats role {role.value}")
            seen[chord] = True
        if any(sign not in (1, -1) for sign in self.signs):
            raise ValueError("chord signs must be +1 or -1")

    @property
    def n_chords(self) -> int:
        return len(self.signs)

    def check_chord(self, chord: int) -> None:
        if not isinstance(chord, int) or not 0 <= chord < self.n_chords:
            raise ValueError(f"invalid chord reference {chord!r}")

    def chord_positions(self) -> tuple[list[int], list[int]]:
        """Positions of every chord's (over, under) endpoint, indexed by id."""
        over = [-1] * self.n_chords
        under = [-1] * self.n_chords
        for position, (chord, role) in enumerate(self.endpoints):
            if role is Role.OVER:
                over[chord] = position
            else:
                under[chord] = position
        return over, under


def gauss_from_closure(word: BraidWord) -> GaussDiagram:
    """Trace the closure of ``word`` from the left end of strand position 1.

    Classical letters are recorded on both visits: in a positive letter the
    strand entering at the letter's index passes over, in a negative letter
    it passes under.  Virtual letters only transpose the walker.  Chords are
    numbered by the order of the classical letters in the word and carry the
    letter signs.

    One sweep over the letters records what each strand meets; the strands'
    records are then spliced along the closure arcs.  A walk that is back at
    strand position 1 before it has used every strand has traced one
    component of a link.
    """
    visits: list[list[tuple[int, Role]]] = [[] for _ in range(word.strands)]
    occupant = list(range(word.strands))  # strands, named by entry position
    signs: list[int] = []
    for letter in word.letters:
        a = letter.index - 1
        top, bottom = occupant[a], occupant[a + 1]
        if letter.is_classical:
            chord = len(signs)
            signs.append(letter.sign)
            top_over = letter.sign > 0
            visits[top].append((chord, Role.OVER if top_over else Role.UNDER))
            visits[bottom].append((chord, Role.UNDER if top_over else Role.OVER))
        occupant[a], occupant[a + 1] = bottom, top
    exit_of = [0] * word.strands
    for position, strand in enumerate(occupant):
        exit_of[strand] = position
    endpoints = visits[0]
    strand, used = exit_of[0], 1
    while strand != 0:
        endpoints.extend(visits[strand])
        strand, used = exit_of[strand], used + 1
    if used != word.strands:
        raise MultiComponentError(component_count(word))
    return GaussDiagram(tuple(endpoints), tuple(signs))


def flip(diagram: GaussDiagram, chord: int) -> GaussDiagram:
    """Reverse one chord's arrow and negate its sign (one crossing change)."""
    diagram.check_chord(chord)
    endpoints = tuple(
        (c, role.flipped() if c == chord else role)
        for c, role in diagram.endpoints)
    signs = tuple(-s if c == chord else s for c, s in enumerate(diagram.signs))
    return GaussDiagram(endpoints, signs)


def normalize_positive(diagram: GaussDiagram) -> GaussDiagram:
    """Flip exactly the negative chords; the result has all signs +1."""
    negative = {c for c, s in enumerate(diagram.signs) if s < 0}
    if not negative:
        return diagram
    endpoints = tuple(
        (c, role.flipped() if c in negative else role)
        for c, role in diagram.endpoints)
    return GaussDiagram(endpoints, (1,) * diagram.n_chords)


def rotate_basepoint(diagram: GaussDiagram, offset: int) -> GaussDiagram:
    """Move the basepoint ``offset`` endpoints forward along the circle."""
    total = len(diagram.endpoints)
    if total == 0:
        return diagram
    offset %= total
    return GaussDiagram(diagram.endpoints[offset:] + diagram.endpoints[:offset],
                        diagram.signs)


def linked(diagram: GaussDiagram, c: int, d: int) -> bool:
    """True when d's endpoints interleave with c's around the circle."""
    diagram.check_chord(c)
    diagram.check_chord(d)
    if c == d:
        raise ValueError("linkage needs two distinct chords")
    over, under = diagram.chord_positions()
    total = len(diagram.endpoints)
    start = over[c]
    span = (under[c] - start) % total
    inside_over = 0 < (over[d] - start) % total < span
    inside_under = 0 < (under[d] - start) % total < span
    return inside_over != inside_under


def find_r1_chord(diagram: GaussDiagram) -> int | None:
    """First chord whose two endpoints are cyclically adjacent, if any."""
    total = len(diagram.endpoints)
    for position in range(total):
        chord = diagram.endpoints[position][0]
        if diagram.endpoints[(position + 1) % total][0] == chord:
            return chord
    return None


def find_r2_pair(diagram: GaussDiagram) -> tuple[int, int] | None:
    """First cancelling pair: the four endpoints form two cyclically adjacent
    pairs, each holding one endpoint of either chord, the chords have
    opposite signs, and the roles within a pair agree (so the two heads sit
    together, equivalently the two tails do).

    Both endpoint arrangements qualify: the nested one (c d ... d c) and the
    crossed one (c d ... c d).
    """
    total = len(diagram.endpoints)
    if diagram.n_chords < 2:
        return None
    over, under = diagram.chord_positions()

    def other(chord: int, position: int) -> int:
        return over[chord] if under[chord] == position else under[chord]

    for position in range(total):
        c, role_c = diagram.endpoints[position]
        follower = (position + 1) % total
        d, role_d = diagram.endpoints[follower]
        if c == d or role_c is not role_d:
            continue
        if diagram.signs[c] != -diagram.signs[d]:
            continue
        oc = other(c, position)
        od = other(d, follower)
        if (od + 1) % total == oc or (oc + 1) % total == od:
            return (c, d)
    return None


def remove_chords(diagram: GaussDiagram, chords: Iterable[int]) -> GaussDiagram:
    """Drop the given chords and re-index the survivors densely."""
    doomed = set(chords)
    for chord in doomed:
        diagram.check_chord(chord)
    relabel: dict[int, int] = {}
    for chord in range(diagram.n_chords):
        if chord not in doomed:
            relabel[chord] = len(relabel)
    endpoints = tuple(
        (relabel[c], role) for c, role in diagram.endpoints if c not in doomed)
    signs = tuple(s for c, s in enumerate(diagram.signs) if c not in doomed)
    return GaussDiagram(endpoints, signs)


def r1_reduce(diagram: GaussDiagram) -> GaussDiagram:
    """Remove one chord with cyclically adjacent endpoints; no-op if none."""
    chord = find_r1_chord(diagram)
    if chord is None:
        return diagram
    return remove_chords(diagram, (chord,))


def r2_reduce(diagram: GaussDiagram) -> GaussDiagram:
    """Remove one cancelling pair (see find_r2_pair); no-op if none."""
    pair = find_r2_pair(diagram)
    if pair is None:
        return diagram
    return remove_chords(diagram, pair)


def simplify(diagram: GaussDiagram) -> GaussDiagram:
    """Apply both reductions greedily until neither fires."""
    while True:
        reduced = r1_reduce(diagram)
        if reduced is not diagram:
            diagram = reduced
            continue
        reduced = r2_reduce(diagram)
        if reduced is not diagram:
            diagram = reduced
            continue
        return diagram


_GAUSS_TOKEN = re.compile(r"([OU])([0-9]+)([+-])\Z")


def emit_gauss_code(diagram: GaussDiagram) -> str:
    """Endpoint tokens from the basepoint: role letter, 1-based label, sign."""
    parts = []
    for chord, role in diagram.endpoints:
        sign = "+" if diagram.signs[chord] > 0 else "-"
        parts.append(f"{role.value}{chord + 1}{sign}")
    return " ".join(parts)


def parse_gauss_code(text: str) -> GaussDiagram:
    """Inverse of emit_gauss_code; labels may be any positive integers."""
    entries: list[tuple[int, Role, int]] = []
    for token in text.split():
        match = _GAUSS_TOKEN.match(token)
        if match is None:
            raise GaussCodeError(f"malformed Gauss-code token {token!r}")
        role = Role.OVER if match.group(1) == "O" else Role.UNDER
        label = int(match.group(2))
        if label < 1:
            raise GaussCodeError(f"labels are 1-based, got {token!r}")
        entries.append((label, role, 1 if match.group(3) == "+" else -1))
    labels = sorted({label for label, _, _ in entries})
    index = {label: i for i, label in enumerate(labels)}
    roles_seen: dict[int, set[Role]] = {label: set() for label in labels}
    sign_of: dict[int, int] = {}
    for label, role, sign in entries:
        if role in roles_seen[label]:
            raise GaussCodeError(f"chord {label} repeats role {role.value}")
        roles_seen[label].add(role)
        if sign_of.setdefault(label, sign) != sign:
            raise GaussCodeError(f"chord {label} has inconsistent signs")
    for label, roles in roles_seen.items():
        if len(roles) != 2:
            raise GaussCodeError(
                f"chord {label} must appear once as O and once as U")
    endpoints = tuple((index[label], role) for label, role, _ in entries)
    signs = tuple(sign_of[label] for label in labels)
    return GaussDiagram(endpoints, signs)
