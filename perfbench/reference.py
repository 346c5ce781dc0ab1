"""Independent reference for `vknot invariants --json` on a braid word.

The benchmark checks every `invariants_large` output byte for byte against
what this module renders.  It shares no code and no algorithm with the
program: the closure is traced strand by strand from one left-to-right
sweep of the word (the program walks the whole word once per strand), and
both chord indices come from cyclic prefix sums of endpoint weights (the
program compares every pair of chords).

A word is a list of ``(index, sign)`` letters on ``strands`` strands; sign
is +1 or -1 for a classical generator and 0 for a virtual swap.
"""

from __future__ import annotations

import json


def word_text(letters: list[tuple[int, int]]) -> str:
    """The word in the CLI's token syntax: ``K``, ``-K`` or ``vK``."""
    return " ".join(f"v{index}" if sign == 0 else str(sign * index)
                    for index, sign in letters)


def trace(strands: int, letters: list[tuple[int, int]]) -> tuple[list[tuple[int, bool]], list[int]]:
    """Endpoints ``(chord, is_over)`` from the basepoint, and chord signs.

    Chords are numbered by the order of the classical letters.  In a
    positive letter the strand entering at the letter's index passes over;
    in a negative letter it passes under.  The walk starts at left position
    1 and re-enters the word at the position where each strand exits.
    """
    occupant = list(range(strands))
    visits: list[list[tuple[int, bool]]] = [[] for _ in range(strands)]
    signs: list[int] = []
    for index, sign in letters:
        low, high = occupant[index - 1], occupant[index]
        if sign:
            chord = len(signs)
            signs.append(sign)
            visits[low].append((chord, sign > 0))
            visits[high].append((chord, sign < 0))
        occupant[index - 1], occupant[index] = high, low
    exit_position = [0] * strands
    for position, strand in enumerate(occupant):
        exit_position[strand] = position
    endpoints: list[tuple[int, bool]] = []
    strand = 0
    for step in range(strands):
        if step and strand == 0:
            raise ValueError("the closure is not a knot")
        endpoints.extend(visits[strand])
        strand = exit_position[strand]
    if strand != 0:
        raise ValueError("the closure is not a knot")
    return endpoints, signs


def _arc_sums(endpoints: list[tuple[int, bool]], weights: list[int], n_chords: int) -> list[int]:
    """For each chord, the sum of ``weights`` strictly inside the arc that
    runs forward from its over endpoint to its under endpoint."""
    prefix = [0]
    for weight in weights:
        prefix.append(prefix[-1] + weight)
    over = [0] * n_chords
    under = [0] * n_chords
    for position, (chord, is_over) in enumerate(endpoints):
        if is_over:
            over[chord] = position
        else:
            under[chord] = position
    sums = []
    for chord in range(n_chords):
        a, b = over[chord], under[chord]
        if a < b:
            sums.append(prefix[b] - prefix[a + 1])
        else:
            sums.append(prefix[-1] - prefix[a + 1] + prefix[b])
    return sums


def _terms(coefficients: dict[int, int]) -> dict:
    return {"terms": [{"exp": m, "coef": b}
                      for m, b in sorted(coefficients.items(), reverse=True) if b]}


def invariants(strands: int, letters: list[tuple[int, int]]) -> dict:
    """The JSON object `vknot invariants --json` prints for this word.

    P: a linked chord d adds +sign(d) to chord c's index when its over
    endpoint lies inside c's arc and -sign(d) when its under endpoint does;
    unlinked chords add both or neither, so the index is an arc sum.  u does
    the same on the diagram with every negative chord flipped, weighting an
    over endpoint +1 and an under endpoint -1.
    """
    endpoints, signs = trace(strands, letters)
    n = len(signs)
    p_index = _arc_sums(
        endpoints, [signs[c] if is_over else -signs[c] for c, is_over in endpoints], n)
    p: dict[int, int] = {}
    for chord, value in enumerate(p_index):
        if value:
            p[abs(value)] = p.get(abs(value), 0) + signs[chord]
    normalized = [(c, is_over == (signs[c] > 0)) for c, is_over in endpoints]
    u: dict[int, int] = {}
    for value in _arc_sums(normalized, [1 if is_over else -1 for _, is_over in normalized], n):
        if value:
            u[abs(value)] = u.get(abs(value), 0) + (1 if value > 0 else -1)
    gauss = " ".join(f"{'O' if is_over else 'U'}{c + 1}{'+' if signs[c] > 0 else '-'}"
                     for c, is_over in endpoints)
    return {"bound": (sum(abs(b) for b in p.values()) + 1) // 2,
            "gauss_code": gauss, "p": _terms(p), "u": _terms(u)}


def invariants_stdout(strands: int, letters: list[tuple[int, int]]) -> bytes:
    """The exact bytes `vknot invariants --braid WORD --strands N --json` writes."""
    return (json.dumps(invariants(strands, letters), sort_keys=True) + "\n").encode()
