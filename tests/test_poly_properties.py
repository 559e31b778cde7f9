"""Property tests: parse_poly reads generated text to the terms it spells,
format_poly's text parses back to the same polynomial, and on any text over
the grammar's tokens parse_poly agrees with the token-by-token oracle."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from helpers import oracle_parse_poly
from toricdegen import (HomogPoly, PolySyntaxError, ZeroPolynomialError,
                        format_poly, parse_poly)


@st.composite
def poly_texts(draw):
    """(text, n, d, terms): text in the grammar with optional spaces,
    coefficients written as n, n/m or not at all, with or without '*',
    factors in any order and possibly repeated, and repeated monomials;
    terms sums the signed coefficients per exponent as the text spells them.
    """
    n = draw(st.integers(0, 3))
    d = draw(st.integers(1, 4))
    space = st.sampled_from(["", " ", "  "])
    pieces = []
    terms: dict[tuple[int, ...], Fraction] = {}
    for k in range(draw(st.integers(1, 5))):
        sign = draw(st.sampled_from(["+", "-"]))
        if k == 0 and sign == "+":
            sign = ""
        num = draw(st.integers(1, 20))
        den = draw(st.integers(1, 9))
        written = draw(st.sampled_from(["none", "int", "frac"]))
        coeff = {"none": Fraction(1), "int": Fraction(num),
                 "frac": Fraction(num, den)}[written]
        text = {"none": "", "int": f"{num}", "frac": f"{num}/{den}"}[written]
        if text:
            text += draw(st.sampled_from(["*", ""]))
        # split d into positive factor exponents, each on a drawn variable
        cuts = sorted(draw(st.sets(st.integers(1, d - 1))) if d > 1 else [])
        exps = [b - a for a, b in zip([0] + cuts, cuts + [d])]
        u = [0] * (n + 1)
        factors = []
        for e in exps:
            i = draw(st.integers(0, n))
            u[i] += e
            caret = draw(st.booleans()) if e == 1 else True
            factors.append(f"x{i}^{e}" if caret else f"x{i}")
        text += "*".join(factors)
        pieces.append(sign + draw(space) + text)
        u = tuple(u)
        terms[u] = terms.get(u, Fraction(0)) + (-coeff if sign == "-" else coeff)
    joined = pieces[0]
    for piece in pieces[1:]:
        joined += draw(space) + piece
    return joined, n, d, {u: c for u, c in terms.items() if c}


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(poly_texts())
def test_parse_then_format_round_trips(case):
    text, n, d, terms = case
    if not terms:
        with pytest.raises(ZeroPolynomialError):
            parse_poly(text, n, d)
        return
    f = parse_poly(text, n, d)
    assert f == HomogPoly(n, d, terms)
    assert oracle_parse_poly(text, n, d) == f
    canonical = format_poly(f)
    again = parse_poly(canonical, n, d)
    assert again == f
    assert format_poly(again) == canonical


# single tokens of the grammar, a few glued as they often are, and spaces
_TOKENS = ["x", "0", "1", "2", "3", "10", "^", "*", "/", "+", "-", " ",
           "x0", "x1", "x2^2", "3/2"]


@hypothesis.settings(max_examples=600, deadline=None, derandomize=True)
@hypothesis.given(st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join),
                  st.integers(0, 3), st.integers(0, 4))
def test_parse_agrees_with_token_oracle(text, n, d):
    # the token-by-token parser accepts the same texts with the same terms;
    # matching the grammar first may only turn its error into a syntax error
    try:
        expected = oracle_parse_poly(text, n, d)
    except ValueError as oracle_error:
        with pytest.raises(ValueError) as caught:
            parse_poly(text, n, d)
        assert caught.type in (type(oracle_error), PolySyntaxError)
    else:
        assert parse_poly(text, n, d) == expected
