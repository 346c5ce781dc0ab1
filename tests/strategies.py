"""Hypothesis strategies shared across the test modules."""

from hypothesis import strategies as st

from vknot.braid import BraidWord, classical, component_count, virtual
from vknot.gauss import GaussDiagram, Role, emit_gauss_code


@st.composite
def braid_words(draw, max_strands=5, max_len=10, allow_virtual=True,
                allow_negative=True):
    strands = draw(st.integers(2, max_strands))
    length = draw(st.integers(0, max_len))
    letters = []
    for _ in range(length):
        index = draw(st.integers(1, strands - 1))
        if allow_virtual and draw(st.booleans()):
            letters.append(virtual(index))
        else:
            sign = draw(st.sampled_from((1, -1))) if allow_negative else 1
            letters.append(classical(index, sign))
    return BraidWord(strands, tuple(letters))


@st.composite
def knot_words(draw, max_strands=5, max_len=10, **kwargs):
    word = draw(braid_words(max_strands=max_strands, max_len=max_len, **kwargs)
                .filter(lambda w: component_count(w) == 1))
    return word


@st.composite
def gauss_diagrams(draw, max_chords=5):
    """Arbitrary chord diagrams (not necessarily closure-realizable)."""
    n = draw(st.integers(0, max_chords))
    layout = draw(st.permutations(sorted(list(range(n)) * 2)))
    endpoints = []
    seen = set()
    for chord in layout:
        over_first = draw(st.booleans()) if chord not in seen else None
        if chord not in seen:
            seen.add(chord)
            endpoints.append((chord, Role.OVER if over_first else Role.UNDER))
        else:
            have = {role for c, role in endpoints if c == chord}
            missing = (Role.OVER if Role.UNDER in have else Role.UNDER)
            endpoints.append((chord, missing))
    signs = tuple(draw(st.sampled_from((1, -1))) for _ in range(n))
    return GaussDiagram(tuple(endpoints), signs)


_GAUSS_TOKENS = st.builds("{}{}{}".format, st.sampled_from("OU"),
                          st.sampled_from("0123"), st.sampled_from("+-"))


@st.composite
def gauss_token_lists(draw):
    """Gauss-code tokens over the labels 0-3: a valid code of at most three
    chords with up to two edits, each deleting a token, inserting one or
    negating one's sign."""
    tokens = emit_gauss_code(draw(gauss_diagrams(max_chords=3))).split()
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(("delete", "insert", "negate")))
        if edit == "insert" or not tokens:
            tokens.insert(draw(st.integers(0, len(tokens))), draw(_GAUSS_TOKENS))
            continue
        position = draw(st.integers(0, len(tokens) - 1))
        if edit == "delete":
            del tokens[position]
        else:
            token = tokens[position]
            tokens[position] = token[:-1] + ("-" if token[-1] == "+" else "+")
    return tokens
