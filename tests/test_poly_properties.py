"""Property test: parse_poly reads generated text to the terms it spells,
and format_poly's text parses back to the same polynomial."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from toricdegen import HomogPoly, ZeroPolynomialError, format_poly, parse_poly


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
    canonical = format_poly(f)
    again = parse_poly(canonical, n, d)
    assert again == f
    assert format_poly(again) == canonical
