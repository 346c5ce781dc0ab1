"""Chord-index invariants of Gauss diagrams.

Two polynomials are computed here.  ``p_invariant`` weights every chord by
the signed count of chords linked with it; half its absolute coefficient sum
bounds the number of crossing changes needed to undo the knot from below.
``u_invariant`` weights every chord by the net crossing direction of the
chords over it, read as if every sign were +1; it is unchanged by crossing
changes, so any nonzero value certifies that no amount of crossing changing
can reach the unknot.

Both indices are arc sums.  Give every endpoint a weight: +sign at an over
endpoint, -sign at an under endpoint.  A chord with both endpoints strictly
inside chord c's open arc from its over to its under endpoint adds +w and
-w, and one with neither adds nothing, so c's index i(c) is just the weight
sum inside that arc.  The weights around the whole circle sum to zero, so
one prefix-sum pass gives every chord's index in linear time, whether or not
its arc wraps past the basepoint; everything is cyclic, so basepoint choices
never matter.

Flipping a negative chord to make it positive leaves every endpoint weight
where it was and swaps the chord's arc for the complementary one, whose
weights sum to -i(c).  So u's crossing index is n(c) = sign(c) * i(c), read
off the same arc sums on the diagram as given, and ``u_and_p`` builds both
polynomials from one pass.  The orientation convention
that decides which crossing direction counts as positive for ``u`` fixes
only a global sign; negating the polynomial gives the mirror convention.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, Mapping, NamedTuple

from .braid import _Checked
from .gauss import GaussDiagram, _OVER


class _IndexPolynomial(NamedTuple):
    terms: tuple[tuple[int, int], ...]


class IndexPolynomial(_Checked, _IndexPolynomial):
    """Sparse integer polynomial in t with exponents >= 1.

    ``terms`` holds (exponent, coefficient) pairs in strictly descending
    exponent order with no zero coefficients, so equality of values is
    equality of coefficient maps.
    """

    __slots__ = ()

    def __new__(cls, terms: Iterable[tuple[int, int]] = ()) -> IndexPolynomial:
        terms = tuple((m, b) for m, b in terms)
        previous = None
        for exponent, coefficient in terms:
            if not type(exponent) is type(coefficient) is int or exponent < 1:
                raise ValueError("terms need integer exponents >= 1, got "
                                 f"{(exponent, coefficient)!r}")
            if coefficient == 0:
                raise ValueError("zero coefficients must be dropped")
            if previous is not None and exponent >= previous:
                raise ValueError("terms must be in strictly descending order")
            previous = exponent
        return tuple.__new__(cls, (terms,))

    @classmethod
    def from_coefficients(cls, coefficients: Mapping[int, int]) -> "IndexPolynomial":
        terms = sorted(((m, b) for m, b in coefficients.items() if b != 0),
                       reverse=True)
        return cls(tuple(terms))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def abs_coefficients(self) -> dict[int, int]:
        return {m: abs(b) for m, b in self.terms}

    def abs_coefficient_sum(self) -> int:
        return sum(abs(b) for _, b in self.terms)

    def __str__(self) -> str:
        """Descending exponents, e.g. "t^2 - 2t", "2t", "0"."""
        if self.is_zero:
            return "0"
        parts = []
        for position, (exponent, coefficient) in enumerate(self.terms):
            magnitude = abs(coefficient)
            body = "t" if exponent == 1 else f"t^{exponent}"
            if magnitude != 1:
                body = f"{magnitude}{body}"
            if position == 0:
                parts.append(body if coefficient > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coefficient > 0 else f"- {body}")
        return " ".join(parts)

    def to_json_dict(self) -> dict:
        return {"terms": [{"exp": m, "coef": b} for m, b in self.terms]}


def _endpoint_weights(diagram: GaussDiagram) -> list[int]:
    """+sign at every over endpoint and -sign at every under endpoint, in
    circle order."""
    signs = diagram.signs
    return [signs[chord] if role is _OVER else -signs[chord]
            for chord, role in diagram.endpoints]


def _arc_sums(diagram: GaussDiagram,
              weights: list[int] | None = None) -> list[int]:
    """Every chord's endpoint weight sum strictly inside its over -> under arc.

    Endpoints weigh +sign (over) and -sign (under), so the circle sums to
    zero and the open arc (o, u) sums to prefix[u] - prefix[o + 1] even when
    it wraps past the basepoint.  ``weights`` replaces those endpoint
    weights; any that sum to zero around the circle work the same way.
    With some chords' weights set to 0, every other chord's sum is its
    index in the diagram without those chords; with only chord d's two
    weights, each chord's sum is what removing d takes off its index.
    """
    over, under = diagram.chord_positions()
    prefix = [0, *accumulate(_endpoint_weights(diagram) if weights is None
                             else weights)]
    return [prefix[u] - prefix[o + 1] for o, u in zip(over, under)]


def _u_and_p(values: Iterable[int],
             signs: Iterable[int]) -> tuple[IndexPolynomial, IndexPolynomial]:
    """(u, P) from the chords' arc sums i(c) and signs, in one loop.

    P adds sign(c) * t^|i(c)| and u adds sign(n(c)) * t^|n(c)| with
    n(c) = sign(c) * i(c), so both take the exponent |i(c)| and skip i(c) = 0.
    """
    u: dict[int, int] = {}
    p: dict[int, int] = {}
    for value, sign in zip(values, signs):
        if value > 0:
            p[value] = p.get(value, 0) + sign
            u[value] = u.get(value, 0) + sign
        elif value:
            m = -value
            p[m] = p.get(m, 0) + sign
            u[m] = u.get(m, 0) - sign
    return (IndexPolynomial.from_coefficients(u),
            IndexPolynomial.from_coefficients(p))


def chord_index(diagram: GaussDiagram, chord: int) -> int:
    """Signed count of the chords linked with ``chord``.

    Split the circle at the chord into gamma_1, the open arc from its over
    endpoint to its under endpoint in circle orientation, and the
    complementary arc gamma_2.  A linked chord contributes +sign when its
    under endpoint lies on gamma_2 (the knot passes over it while running
    along gamma_1) and -sign when the arrowhead lands on gamma_1.
    """
    diagram.check_chord(chord)
    return _arc_sums(diagram)[chord]


def u_and_p(diagram: GaussDiagram) -> tuple[IndexPolynomial, IndexPolynomial]:
    """``(u_invariant(diagram), p_invariant(diagram))`` from one arc-sum pass."""
    return _u_and_p(_arc_sums(diagram), diagram.signs)


def p_invariant(diagram: GaussDiagram) -> IndexPolynomial:
    """Sum of sign(c) * t^|chord_index(c)| over chords with nonzero index."""
    return u_and_p(diagram)[1]


def bound_from_p(p: IndexPolynomial) -> int:
    """Ceiling of half the absolute coefficient sum of a p-invariant."""
    return (p.abs_coefficient_sum() + 1) // 2


def vu_lower_bound(diagram: GaussDiagram) -> int:
    """Ceiling of half the absolute coefficient sum of the p-invariant.

    A valid lower bound on crossing changes only for knots that can be
    undone by crossing changes at all; that premise is the caller's
    responsibility.
    """
    return bound_from_p(p_invariant(diagram))


def u_invariant(diagram: GaussDiagram) -> IndexPolynomial:
    """Sum of sign(n(c)) * t^|n(c)| with n(c) = sign(c) * chord_index(c).

    n(c) is the crossing index of c on the sign-normalized diagram, which
    crossing changes leave untouched, so this value is exactly invariant
    under them.
    """
    return u_and_p(diagram)[0]
