"""Independent reference implementations used to check the library.

Everything here is deliberately written along different lines than the
package code: permutations as image dicts instead of occupant arrays, the
closure trace both as per-strand event lists spliced along the closure and
as one walker making a full pass over the word per strand, arc membership
as literal position sets, and the cancelling-pair matcher as an
all-pairings search.
"""

from vknot.braid import BraidWord
from vknot.gauss import GaussDiagram, MultiComponentError, Role
from vknot.unknotting import IJKState, StepKind, UnknottingSequence


def oracle_permutation(word: BraidWord) -> tuple[int, ...]:
    """Compose the transpositions as functions, first letter innermost."""
    def tau(index: int, value: int) -> int:
        if value == index:
            return index + 1
        if value == index + 1:
            return index
        return value

    images = {m: m for m in range(1, word.strands + 1)}
    for letter in word.letters:
        images = {m: tau(letter.index, image) for m, image in images.items()}
    return tuple(images[m] for m in range(1, word.strands + 1))


def oracle_cycle_count(word: BraidWord) -> int:
    perm = oracle_permutation(word)
    remaining = set(range(1, word.strands + 1))
    cycles = 0
    while remaining:
        cycles += 1
        m = start = remaining.pop()
        while perm[m - 1] != start:
            m = perm[m - 1]
            remaining.discard(m)
    return cycles


def oracle_trace(word: BraidWord) -> list[tuple[int, str, int]]:
    """Closure trace as (chord, role letter, sign) events.

    Precomputes each strand's pass through the word from the evolving
    occupant vector, then splices the per-strand event lists together along
    the closure arcs starting from strand 1.
    """
    components = oracle_cycle_count(word)
    if components != 1:
        raise MultiComponentError(components)
    events: dict[int, list[tuple[int, str, int]]] = {
        m: [] for m in range(1, word.strands + 1)}
    occupant = list(range(1, word.strands + 1))
    chord = 0
    for letter in word.letters:
        a = letter.index - 1
        top, bottom = occupant[a], occupant[a + 1]
        if letter.is_classical:
            role_top = "O" if letter.sign > 0 else "U"
            role_bottom = "U" if letter.sign > 0 else "O"
            events[top].append((chord, role_top, letter.sign))
            events[bottom].append((chord, role_bottom, letter.sign))
            chord += 1
        occupant[a], occupant[a + 1] = occupant[a + 1], occupant[a]
    end_position = {strand: position + 1
                    for position, strand in enumerate(occupant)}
    sequence: list[tuple[int, str, int]] = []
    strand = 1
    for _ in range(word.strands):
        sequence.extend(events[strand])
        strand = end_position[strand]
    assert strand == 1, "closure must return to the start"
    return sequence


def oracle_strand_walk(word: BraidWord) -> list[tuple[int, str, int]]:
    """Closure trace as (chord, role letter, sign) events, by one walker.

    The walker starts at position 1 and makes one full left-to-right pass
    over the word per strand, moving with every letter that touches its
    position and re-entering on the left where it left on the right.
    """
    components = oracle_cycle_count(word)
    if components != 1:
        raise MultiComponentError(components)
    chord_of: list[int | None] = []
    chords = 0
    for letter in word.letters:
        chord_of.append(chords if letter.is_classical else None)
        chords += letter.is_classical
    sequence: list[tuple[int, str, int]] = []
    position = 1
    for _ in range(word.strands):
        for letter, chord in zip(word.letters, chord_of):
            if letter.index == position:
                if chord is not None:
                    role = "O" if letter.sign > 0 else "U"
                    sequence.append((chord, role, letter.sign))
                position += 1
            elif letter.index + 1 == position:
                if chord is not None:
                    role = "U" if letter.sign > 0 else "O"
                    sequence.append((chord, role, letter.sign))
                position -= 1
    assert position == 1, "knot traversal must close up at the basepoint"
    return sequence


def _position_table(diagram: GaussDiagram) -> dict[int, dict[str, int]]:
    table: dict[int, dict[str, int]] = {}
    for position, (chord, role) in enumerate(diagram.endpoints):
        table.setdefault(chord, {})[role.value] = position
    return table


def _arc_between(start: int, stop: int, total: int) -> set[int]:
    positions = set()
    position = (start + 1) % total
    while position != stop:
        positions.add(position)
        position = (position + 1) % total
    return positions


def brute_chord_index(diagram: GaussDiagram, chord: int) -> int:
    """Arc membership with literal sets: over-count minus under-count."""
    table = _position_table(diagram)
    total = len(diagram.endpoints)
    gamma1 = _arc_between(table[chord]["O"], table[chord]["U"], total)
    value = 0
    for d in range(diagram.n_chords):
        if d == chord:
            continue
        over_inside = table[d]["O"] in gamma1
        under_inside = table[d]["U"] in gamma1
        if over_inside == under_inside:
            continue
        value += -diagram.signs[d] if under_inside else diagram.signs[d]
    return value


def brute_crossing_index(diagram: GaussDiagram, chord: int) -> int:
    table = _position_table(diagram)
    total = len(diagram.endpoints)
    forward = _arc_between(table[chord]["O"], table[chord]["U"], total)
    value = 0
    for d in range(diagram.n_chords):
        if d == chord:
            continue
        tail_inside = table[d]["O"] in forward
        head_inside = table[d]["U"] in forward
        if tail_inside == head_inside:
            continue
        value += 1 if tail_inside else -1
    return value


def brute_p_coefficients(diagram: GaussDiagram) -> dict[int, int]:
    """P's coefficients, exponent to coefficient, from brute_chord_index."""
    coefficients: dict[int, int] = {}
    for chord in range(diagram.n_chords):
        value = brute_chord_index(diagram, chord)
        if value:
            coefficients[abs(value)] = (coefficients.get(abs(value), 0)
                                        + diagram.signs[chord])
    return {m: b for m, b in coefficients.items() if b}


def brute_u_coefficients(diagram: GaussDiagram) -> dict[int, int]:
    """u's coefficients from brute_crossing_index, after flipping the arrow
    of every negative chord by hand."""
    flipped = {"O": Role.UNDER, "U": Role.OVER}
    positive = GaussDiagram(
        tuple((chord, flipped[role.value] if diagram.signs[chord] < 0 else role)
              for chord, role in diagram.endpoints),
        (1,) * diagram.n_chords)
    coefficients: dict[int, int] = {}
    for chord in range(positive.n_chords):
        value = brute_crossing_index(positive, chord)
        if value:
            coefficients[abs(value)] = (coefficients.get(abs(value), 0)
                                        + (1 if value > 0 else -1))
    return {m: b for m, b in coefficients.items() if b}


def r1_chords(diagram: GaussDiagram) -> set[int]:
    """Chords whose endpoints are cyclically adjacent."""
    table = _position_table(diagram)
    total = len(diagram.endpoints)
    found = set()
    for chord, positions in table.items():
        a, b = positions["O"], positions["U"]
        if (a + 1) % total == b or (b + 1) % total == a:
            found.add(chord)
    return found


def r2_removable_pairs(diagram: GaussDiagram) -> set[frozenset]:
    """All chord pairs satisfying the cancelling-pair pattern, by trying
    both ways of grouping the four endpoints into adjacent pairs."""
    total = len(diagram.endpoints)
    table = _position_table(diagram)
    roles = {position: role for position, (chord, role)
             in enumerate(diagram.endpoints)}

    def adjacent(x: int, y: int) -> bool:
        return (x + 1) % total == y or (y + 1) % total == x

    pairs: set[frozenset] = set()
    for c in range(diagram.n_chords):
        for d in range(c + 1, diagram.n_chords):
            if diagram.signs[c] != -diagram.signs[d]:
                continue
            c1, c2 = table[c]["O"], table[c]["U"]
            d1, d2 = table[d]["O"], table[d]["U"]
            for grouping in (((c1, d1), (c2, d2)), ((c1, d2), (c2, d1))):
                if not all(adjacent(x, y) for x, y in grouping):
                    continue
                if any(roles[x] is roles[y] for x, y in grouping):
                    pairs.add(frozenset((c, d)))
    return pairs


def replay_sequence(sequence: UnknottingSequence) -> None:
    """Re-derive every step's transition formula and cost from scratch."""
    state = sequence.start
    total = 0
    for step in sequence.steps:
        assert step.before == state
        i, j, k = state.i, state.j, state.k
        if step.kind is StepKind.REDUCE:
            assert j > i
            assert step.after == IJKState(i, j - i, k)
            assert step.changes == i * (i - 1) // 2
        elif step.kind is StepKind.A:
            assert j >= 2 and 2 <= k + j < i
            assert step.after == IJKState(i - 1, j, j + k - 1)
            assert step.changes == 0
        elif step.kind is StepKind.B:
            assert j >= 2 and i < k + j < 2 * i - 1 and i != k + 1
            assert step.after == IJKState(i - 1, j - 1, j + k - i - 1)
            assert step.changes == i - 1
        elif step.kind is StepKind.C:
            assert j >= 2 and i == k + 1
            assert step.after == IJKState(i, j - 1, 0)
            assert step.changes == i - 1
        else:
            raise AssertionError(f"unknown step kind {step.kind}")
        total += step.changes
        state = step.after
    assert state.j == 1 and state.k == 0
    assert total == sequence.total_changes


def diagram_from_layout(layout: list[int], over_first: list[bool],
                        signs: list[int]) -> GaussDiagram:
    """Build a diagram from a chord-id layout for exhaustive enumeration.

    ``over_first[c]`` says whether chord c's first occurrence in the layout
    is its over endpoint.
    """
    seen: set[int] = set()
    endpoints = []
    for chord in layout:
        first = chord not in seen
        seen.add(chord)
        if first == over_first[chord]:
            endpoints.append((chord, Role.OVER))
        else:
            endpoints.append((chord, Role.UNDER))
    return GaussDiagram(tuple(endpoints), tuple(signs))
