"""Chord-index invariants of Gauss diagrams.

Two polynomials are computed here.  ``p_invariant`` weights every chord by
the signed count of chords linked with it; half its absolute coefficient sum
bounds the number of crossing changes needed to undo the knot from below.
``u_invariant`` first normalizes all signs to +1 and then weights every
chord by the net crossing direction of the chords over it; it is unchanged
by crossing changes, so any nonzero value certifies that no amount of
crossing changing can reach the unknot.

Both indices are arc sums.  Give every endpoint a weight: +sign at an over
endpoint, -sign at an under endpoint (on the normalized diagram for ``u``,
so +1 and -1).  A chord with both endpoints strictly inside chord c's open
arc from its over to its under endpoint adds +w and -w, and one with
neither adds nothing, so c's index is just the weight sum inside that arc.
The weights around the whole circle sum to zero, so one prefix-sum pass
gives every chord's index in linear time, whether or not its arc wraps past
the basepoint; everything is cyclic, so basepoint choices never matter.
The orientation convention that decides which crossing direction counts as
positive for ``u`` fixes only a global sign; ``negate=True`` selects the
mirror convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Mapping

from .gauss import GaussDiagram, Role, normalize_positive


@dataclass(frozen=True)
class IndexPolynomial:
    """Sparse integer polynomial in t with exponents >= 1.

    ``terms`` holds (exponent, coefficient) pairs in strictly descending
    exponent order with no zero coefficients, so equality of values is
    equality of coefficient maps.
    """

    terms: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms",
                           tuple((int(m), int(b)) for m, b in self.terms))
        previous = None
        for exponent, coefficient in self.terms:
            if exponent < 1:
                raise ValueError(f"exponents must be >= 1, got {exponent}")
            if coefficient == 0:
                raise ValueError("zero coefficients must be dropped")
            if previous is not None and exponent >= previous:
                raise ValueError("terms must be in strictly descending order")
            previous = exponent

    @classmethod
    def from_coefficients(cls, coefficients: Mapping[int, int]) -> "IndexPolynomial":
        terms = sorted(((m, b) for m, b in coefficients.items() if b != 0),
                       reverse=True)
        return cls(tuple(terms))

    @classmethod
    def zero(cls) -> "IndexPolynomial":
        return cls(())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficients(self) -> dict[int, int]:
        return dict(self.terms)

    def abs_coefficients(self) -> dict[int, int]:
        return {m: abs(b) for m, b in self.terms}

    def abs_coefficient_sum(self) -> int:
        return sum(abs(b) for _, b in self.terms)

    def __neg__(self) -> "IndexPolynomial":
        return IndexPolynomial(tuple((m, -b) for m, b in self.terms))

    def __str__(self) -> str:
        return poly_to_string(self)

    def to_json_dict(self) -> dict:
        return {"terms": [{"exp": m, "coef": b} for m, b in self.terms]}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "IndexPolynomial":
        return cls.from_coefficients(
            {term["exp"]: term["coef"] for term in data["terms"]})


def poly_to_string(poly: IndexPolynomial) -> str:
    """Render with descending exponents, e.g. "t^2 - 2t", "2t", "0"."""
    if poly.is_zero:
        return "0"
    parts = []
    for position, (exponent, coefficient) in enumerate(poly.terms):
        magnitude = abs(coefficient)
        body = "t" if exponent == 1 else f"t^{exponent}"
        if magnitude != 1:
            body = f"{magnitude}{body}"
        if position == 0:
            parts.append(body if coefficient > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coefficient > 0 else f"- {body}")
    return " ".join(parts)


def _arc_sums(diagram: GaussDiagram) -> list[int]:
    """Every chord's endpoint weight sum strictly inside its over -> under arc.

    Endpoints weigh +sign (over) and -sign (under), so the circle sums to
    zero and the open arc (o, u) sums to prefix[u] - prefix[o + 1] even when
    it wraps past the basepoint.
    """
    over, under = diagram.chord_positions()
    signs = diagram.signs
    prefix = [0, *accumulate([signs[chord] if role is Role.OVER else -signs[chord]
                              for chord, role in diagram.endpoints])]
    return [prefix[u] - prefix[o + 1] for o, u in zip(over, under)]


def _index_polynomial(values: list[int],
                      weights: Iterable[int]) -> IndexPolynomial:
    """Sum of weight * t^|value| over the chords with nonzero value."""
    coefficients: dict[int, int] = {}
    for value, weight in zip(values, weights):
        if value:
            m = abs(value)
            coefficients[m] = coefficients.get(m, 0) + weight
    return IndexPolynomial.from_coefficients(coefficients)


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


def p_invariant(diagram: GaussDiagram) -> IndexPolynomial:
    """Sum of sign(c) * t^|chord_index(c)| over chords with nonzero index."""
    return _index_polynomial(_arc_sums(diagram), diagram.signs)


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


def crossing_index(diagram: GaussDiagram, chord: int) -> int:
    """Net crossing direction over ``chord`` on an all-positive diagram.

    With the chord's tail T (over endpoint) and head H (under endpoint), a
    linked chord counts +1 when its tail lies on the open arc T -> H in
    circle orientation (its head then lies on H -> T) and -1 in the opposite
    case.  Linked pairs contribute antisymmetrically, so these values always
    sum to zero over the whole diagram.
    """
    diagram.check_chord(chord)
    if any(s != 1 for s in diagram.signs):
        raise ValueError("crossing index needs an all-positive diagram; "
                         "normalize first")
    return _arc_sums(diagram)[chord]


def u_invariant(diagram: GaussDiagram, negate: bool = False) -> IndexPolynomial:
    """Sum of sign(n(c)) * t^|n(c)| over the sign-normalized diagram.

    Crossing changes leave the normalized diagram untouched, so this value
    is exactly invariant under them.  ``negate`` picks the mirror of the
    crossing-direction convention, negating every coefficient.
    """
    values = _arc_sums(normalize_positive(diagram))
    unit = -1 if negate else 1
    return _index_polynomial(values, (unit if v > 0 else -unit for v in values))
