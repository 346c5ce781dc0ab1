"""Independent reference implementations used to check the library.

Everything here is deliberately written along different lines than the
package code: permutations as image dicts instead of occupant arrays, the
closure trace both as per-strand event lists spliced along the closure and
as one walker making a full pass over the word per strand, arc membership
as literal position sets, the cancelling-pair matcher as an
all-pairings search, Gauss-code parsing as per-label role and sign sets,
the unknotting moves as if-chains, the (i, j, k) knot states from the
shape of their permutation, a torus knot's P as a closed-form sum, a scan
subset's word letter by letter, and a scan summary folded one record at a
time.

The braid rewrite table is here too, though it checks no package code:
the invariance tests walk words through its closure-preserving moves.
Each local pattern is one function in ``_LOCAL_MOVES``, which both
``rewrite_moves`` (where it matches) and ``apply_rewrite`` (where it does
not) read.
"""

from collections import Counter
from enum import Enum
from functools import cache
from typing import NamedTuple

from vknot.braid import BraidLetter, BraidWord, classical, make_ijk, virtual
from vknot.gauss import GaussDiagram, MultiComponentError, Role, remove_chords
from vknot.invariants import IndexPolynomial
from vknot.search import ScanSummary
from vknot.unknotting import IJKState, StepKind, UnknottingSequence, VerifyRow


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


def oracle_subset_word(p: int, q: int, subset) -> BraidWord:
    """The (p, q) torus braid (s_1 ... s_{p-1})^q with the letters at the
    0-based ``subset`` positions virtual."""
    return BraidWord(p, tuple((virtual if m in subset else classical)(m % (p - 1) + 1)
                              for m in range((p - 1) * q)))


def fold_summary(records) -> ScanSummary:
    """``ScanSummary.add`` over ``records`` one at a time; the scan command
    adds each class of equal records once, with its count."""
    summary = ScanSummary()
    for record in records:
        summary.add(record)
    return summary


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


def oracle_knot_states(max_i: int):
    """Every one-component (i, j, k) with 2 <= i <= max_i, 1 <= j <= i and
    0 <= k < i, in parameter order, from the permutation's shape: j
    ascending blocks take 0-based position p to p - j mod i, and the tail
    s_k ... s_1 takes k to 0 and each p < k to p + 1.  One component means
    the cycle through 0 has length i."""
    for i in range(2, max_i + 1):
        for j in range(1, i + 1):
            for k in range(i):
                image = [(p - j) % i for p in range(i)]
                image = [0 if p == k else p + (p < k) for p in image]
                position, length = image[0], 1
                while position:
                    position, length = image[position], length + 1
                if length == i:
                    yield (i, j, k)


def oracle_torus_p(p: int, q: int) -> IndexPolynomial:
    """P of the singly virtualized torus knot vt(p, q, 1) in closed form:
    2 * sum over b = 1 ... q-1 of t + t^2 + ... + t^floor(bp/q)."""
    coefficients = Counter()
    for b in range(1, q):
        for m in range(1, b * p // q + 1):
            coefficients[m] += 2
    return IndexPolynomial.from_coefficients(coefficients)


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


class RewriteError(ValueError):
    """A rewrite that does not apply at its stated location."""


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
    if kind is RewriteKind.CONJUGATE:
        if n == 0:
            raise RewriteError("cannot conjugate the empty word")
        if pos != 0:
            raise RewriteError(f"conjugation is listed at position 0, got {pos}")
        return BraidWord(word.strands, letters[1:] + letters[:1])
    if kind in _LOCAL_MOVES:
        width, replace = _LOCAL_MOVES[kind]
        if not 0 <= pos <= n - width:
            raise RewriteError(f"{kind.value} needs {width} letters at position {pos}")
        replacement = replace(*letters[pos:pos + width])
        if replacement is None:
            raise RewriteError(f"{kind.value} pattern not present at position {pos}")
    else:
        width, index, sign = 0, move.index, move.sign
        if not 0 <= pos <= n or not 1 <= index < word.strands or sign not in (1, -1):
            raise RewriteError(f"{kind.value} out of range")
        replacement = ((virtual(index),) * 2 if kind is RewriteKind.VIRTUAL_INSERT
                       else (classical(index, sign), classical(index, -sign)))
    return BraidWord(word.strands, letters[:pos] + replacement + letters[pos + width:])


def oracle_parse_gauss_code(text: str) -> GaussDiagram | None:
    """Gauss-code text read by per-label role and sign sets; None where a
    token is malformed, a label is below 1, a chord's signs disagree, or a
    chord does not appear exactly once as O and once as U."""
    entries = []
    for token in text.split():
        role, digits, sign = token[:1], token[1:-1], token[-1:]
        if (role not in ("O", "U") or sign not in ("+", "-") or not digits
                or any(ch not in "0123456789" for ch in digits)
                or int(digits) < 1):
            return None
        entries.append((int(digits), role, sign))
    roles: dict[int, list[str]] = {}
    signs: dict[int, set[str]] = {}
    for label, role, sign in entries:
        roles.setdefault(label, []).append(role)
        signs.setdefault(label, set()).add(sign)
    if any(sorted(seen) != ["O", "U"] for seen in roles.values()):
        return None
    if any(len(seen) != 1 for seen in signs.values()):
        return None
    labels = sorted(roles)
    dense = {label: chord for chord, label in enumerate(labels)}
    return GaussDiagram(
        tuple((dense[label], Role(role)) for label, role, _ in entries),
        tuple(1 if signs[label] == {"+"} else -1 for label in labels))


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
    return _brute_chord_index(diagram, _position_table(diagram), chord)


def _brute_chord_index(diagram: GaussDiagram, table: dict[int, dict[str, int]],
                       chord: int) -> int:
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
    """Tails minus heads of the linked chords on the arc from ``chord``'s
    tail to its head, on an all-positive diagram."""
    return _brute_crossing_index(diagram, _position_table(diagram), chord)


def _brute_crossing_index(diagram: GaussDiagram, table: dict[int, dict[str, int]],
                          chord: int) -> int:
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
    table = _position_table(diagram)
    coefficients: dict[int, int] = {}
    for chord in range(diagram.n_chords):
        value = _brute_chord_index(diagram, table, chord)
        if value:
            coefficients[abs(value)] = (coefficients.get(abs(value), 0)
                                        + diagram.signs[chord])
    return {m: b for m, b in coefficients.items() if b}


def flipped_positive(diagram: GaussDiagram) -> GaussDiagram:
    """The diagram with every negative chord's arrow reversed by hand and
    every sign +1."""
    flipped = {"O": Role.UNDER, "U": Role.OVER}
    return GaussDiagram(
        tuple((chord, flipped[role.value] if diagram.signs[chord] < 0 else role)
              for chord, role in diagram.endpoints),
        (1,) * diagram.n_chords)


def brute_u_coefficients(diagram: GaussDiagram) -> dict[int, int]:
    """u's coefficients from brute_crossing_index on ``flipped_positive``."""
    positive = flipped_positive(diagram)
    table = _position_table(positive)
    coefficients: dict[int, int] = {}
    for chord in range(positive.n_chords):
        value = _brute_crossing_index(positive, table, chord)
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


def reduce_r1_r2(diagram: GaussDiagram) -> GaussDiagram:
    """Remove R1 kinks, else the least cancelling pair, until neither is left."""
    while True:
        doomed = r1_chords(diagram) or min(r2_removable_pairs(diagram),
                                           key=sorted, default=())
        if not doomed:
            return diagram
        diagram = remove_chords(diagram, doomed)


def rotate(diagram: GaussDiagram, offset: int) -> GaussDiagram:
    """Move the basepoint ``offset`` endpoints forward along the circle."""
    endpoints = diagram.endpoints
    return GaussDiagram(endpoints[offset:] + endpoints[:offset], diagram.signs)


def oracle_move_rule(kind: StepKind, i: int, j: int,
                     k: int) -> tuple[bool, tuple[int, int, int], int]:
    """Whether ``kind`` applies at (i, j, k), and its target and cost."""
    if kind is StepKind.REDUCE:
        return j > i, (i, j - i, k), i * (i - 1) // 2
    if kind is StepKind.A:
        return j >= 2 and 2 <= k + j < i, (i - 1, j, j + k - 1), 0
    if kind is StepKind.B:
        return (j >= 2 and i < k + j < 2 * i - 1 and i != k + 1,
                (i - 1, j - 1, j + k - i - 1), i - 1)
    if kind is StepKind.C:
        return j >= 2 and i == k + 1, (i, j - 1, 0), i - 1
    raise AssertionError(f"unknown step kind {kind}")


def oracle_first_move(i: int, j: int,
                      k: int) -> tuple[StepKind, tuple[int, int, int], int] | None:
    """The move for a state as one if-chain that checks the component
    count first; None at a terminal state, MultiComponentError on a link."""
    if j == 1 and k == 0:
        return None
    components = oracle_cycle_count(make_ijk(i, j, k))
    if components != 1:
        raise MultiComponentError(components)
    if j > i:
        return StepKind.REDUCE, (i, j - i, k), i * (i - 1) // 2
    if j < 2 or k + j == i:
        raise AssertionError(f"({i},{j},{k}) is a knot of a link shape")
    if k + j < i:
        return StepKind.A, (i - 1, j, j + k - 1), 0
    if i == k + 1:
        return StepKind.C, (i, j - 1, 0), i - 1
    return StepKind.B, (i - 1, j - 1, j + k - i - 1), i - 1


@cache
def _oracle_state_check(i: int, j: int, k: int) -> tuple[int, bool]:
    """Half P's absolute coefficient sum, rounded up, and whether u is
    nonzero, by the brute-force arc sets on the state's ``oracle_trace``."""
    events = oracle_trace(make_ijk(i, j, k))
    signs = {chord: sign for chord, _, sign in events}
    diagram = GaussDiagram(tuple((chord, Role(role)) for chord, role, _ in events),
                           tuple(signs[chord] for chord in range(len(signs))))
    p = brute_p_coefficients(diagram)
    return (sum(map(abs, p.values())) + 1) // 2, bool(brute_u_coefficients(diagram))


def oracle_verify_row(i: int, j: int, k: int) -> VerifyRow:
    """The theorem-2 row of a knot state, rebuilt from scratch: the chain
    from ``oracle_first_move``, P and u from the brute-force arc sets, and
    the first state in chain order with a nonzero u as the complaint."""
    chain, upper = [(i, j, k)], 0
    move = oracle_first_move(i, j, k)
    while move is not None:
        _, state, cost = move
        chain.append(state)
        upper += cost
        move = oracle_first_move(*state)
    lower = _oracle_state_check(i, j, k)[0]
    formula = ((i - 1) * (j - 1) + k) // 2
    problems = []
    if not lower == upper == formula:
        problems.append(f"bounds disagree: lower={lower} upper={upper} "
                        f"formula={formula}")
    failing = [state for state in chain if _oracle_state_check(*state)[1]]
    if failing:
        problems.append("intermediate ({},{},{}) has nonzero u".format(*failing[0]))
    return VerifyRow(i, j, k, lower, upper, formula, not problems,
                     "; ".join(problems))


def replay_sequence(sequence: UnknottingSequence) -> None:
    """Re-derive every step's transition formula and cost from scratch."""
    state = sequence.start
    total = 0
    for step in sequence.steps:
        assert step.before == state
        applies, target, cost = oracle_move_rule(step.kind, *state.as_tuple())
        assert applies
        assert step.after == IJKState(*target)
        assert step.changes == cost
        total += step.changes
        state = step.after
    assert state.j == 1 and state.k == 0
    assert total == sequence.total_changes
