"""Exact sparse homogeneous polynomials over the rationals.

A polynomial in variables x0..xn is stored as a map from exponent tuples
(length n+1, entries summing to the declared degree d) to nonzero Fraction
coefficients.  Terms are kept in descending graded-lexicographic order, so
iteration and formatting are deterministic.

Text grammar::

    poly   := [sign] term (sign term)*
    term   := [coeff ['*']] factor ('*' factor)* ['*']
    factor := 'x' index ['^' exponent]
    coeff  := integer ['/' integer]
    sign   := '+' | '-'

Whitespace may separate tokens but not split a number: ``1 2*x0`` is
malformed, and no number may have more digits than the interpreter's
integer string limit (4,300 by default).  A leading '+' and a '*' closing a
term are accepted.  A text is checked against the whole grammar first, so a
malformed text raises PolySyntaxError before any index or degree error.

Example: ``3*x0^2*x1 - 5/2*x2^3``.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import comb
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    DegreeError,
    DimensionMismatchError,
    DomainError,
    PolySyntaxError,
    VariableIndexError,
    ZeroPolynomialError,
)

Exponent = tuple[int, ...]
RatLike = int | Fraction

_ZERO = Fraction(0)


def iter_exponents(n: int, d: int) -> Iterator[Exponent]:
    """All exponents of degree d in n+1 variables, descending graded-lex.

    An odometer from (d, 0, ..., 0): each step takes one unit from the last
    nonzero entry x_i before x_n, and x_(i+1) gets it plus all of x_n.
    """
    u = [d] + [0] * n
    while True:
        yield tuple(u)
        i = n - 1
        while i >= 0 and not u[i]:
            i -= 1
        if i < 0:
            return
        last, u[n] = u[n], 0
        u[i] -= 1
        u[i + 1] = last + 1


# Largest ambient dimension C(n+d, d) admitted, which fixes the (n, d)
# domain of every command.  Sampling and the rank certificates read only
# the face, 1 + (n-1)*d coefficients, so their cost does not depend on it.
MAX_AMBIENT = 500_000


def check_ambient(n: int, d: int) -> None:
    """Reject a negative n or d, and (n, d) with more than MAX_AMBIENT
    degree-d exponents, or more than MAX_AMBIENT variables (which C(n+d, d)
    misses at d = 0).

    For m = min(n, d), C(n+d, d) >= C(2m, m) >= 2^m, so 2^m past the limit
    rejects at once; otherwise m <= 18, and comb multiplies at most 18
    factors.
    """
    if n < 0 or d < 0:
        raise DomainError(f"need n >= 0 and d >= 0, got n={n}, d={d}")
    if n + 1 > MAX_AMBIENT:
        raise DomainError(
            f"{n + 1} variables at n={n} exceed the limit of {MAX_AMBIENT}")
    if 2 ** min(n, d) > MAX_AMBIENT or comb(n + d, d) > MAX_AMBIENT:
        raise DomainError(
            f"ambient dimension C({n + d}, {d}) at n={n}, d={d} exceeds the "
            f"limit of {MAX_AMBIENT}")


def check_domain(n: int, d: int) -> None:
    """Reject n < 2 or d < 2, the certificates' domain, then run
    check_ambient."""
    if n < 2 or d < 2:
        raise DomainError(f"need n >= 2 and d >= 2, got n={n}, d={d}")
    check_ambient(n, d)


class HomogPoly:
    """Homogeneous polynomial of fixed degree with exact coefficients: a
    validated map from exponents to nonzero Fractions, in descending
    graded-lex order.  It has no arithmetic.

    Immutable: __new__ sets the three slots, with no __init__ to run again,
    and any later assignment or deletion raises AttributeError.  The empty
    map is representable, but parse_poly and initial_form reject the zero
    polynomial with ZeroPolynomialError.
    """

    __slots__ = ("n", "d", "_terms")

    def __new__(cls, n: int, d: int, terms: Mapping[Exponent, RatLike]):
        if n < 0 or d < 0:
            raise DimensionMismatchError(f"invalid shape n={n}, d={d}")
        clean: dict[Exponent, Fraction] = {}
        for u, c in terms.items():
            u = tuple(u)
            if len(u) != n + 1:
                raise DimensionMismatchError(
                    f"exponent {u} has length {len(u)}, expected {n + 1}")
            if min(u) < 0:
                raise DegreeError(f"negative exponent in {u}")
            if sum(u) != d:
                raise DegreeError(f"term {u} has degree {sum(u)}, expected {d}")
            c = Fraction(c)
            if c:
                clean[u] = c
        self = super().__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        # descending graded-lex; dicts preserve insertion order
        object.__setattr__(self, "_terms",
                           {u: clean[u] for u in sorted(clean, reverse=True)})
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set "
                             f"{name!r} to {value!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot "
                             f"delete {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __new__, not by setting slots
        return (HomogPoly, (self.n, self.d, dict(self._terms)))

    def terms(self) -> Iterator[tuple[Exponent, Fraction]]:
        return iter(self._terms.items())

    def support(self) -> tuple[Exponent, ...]:
        return tuple(self._terms)

    def coeff(self, u: Sequence[int]) -> Fraction:
        return self._terms.get(tuple(u), _ZERO)

    def num_terms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HomogPoly):
            return NotImplemented
        return (self.n, self.d, self._terms) == (other.n, other.d, other._terms)

    def __hash__(self) -> int:
        return hash((self.n, self.d, tuple(self._terms.items())))

    def __repr__(self) -> str:
        return f"HomogPoly({self.n}, {self.d}, {format_poly(self)!r})"


# ---------------------------------------------------------------------------
# parsing / formatting

# The grammar as patterns over the text with its whitespace removed.  They
# stay strings, compiled on first use through re's cache, so importing this
# module compiles none.  Each text has at most one parse, so a failing match
# backtracks only within one digit run or across one '*' at a time.
_FACTOR = r"x\d+(?:\^\d+)?"
_COEFF = r"\d+(?:/\d+)?"
_TERM = rf"(?:{_COEFF}\*?)?{_FACTOR}(?:\*{_FACTOR})*\*?"
_POLY = rf"[+-]?{_TERM}(?:[+-]{_TERM})*"


def parse_poly(text: str, n: int, d: int) -> HomogPoly:
    """Parse the text grammar into a degree-d polynomial in x0..xn.

    The whole text is checked against the grammar first, so a malformed
    text raises PolySyntaxError before any index or degree error.
    Coefficients of repeated monomials are collected exactly; if everything
    cancels, the result would be zero and ZeroPolynomialError is raised.
    Before any of that, (n, d) must pass check_ambient, and the text's
    terms, at most 1 + its count of '+' and '-', times the n + 1 exponent
    entries each must not exceed MAX_AMBIENT; DomainError otherwise.
    """
    check_ambient(n, d)
    terms = 1 + text.count("+") + text.count("-")
    if (n + 1) * terms > MAX_AMBIENT:
        raise DomainError(
            f"up to {terms} terms over {n + 1} variables exceed the "
            f"limit of {MAX_AMBIENT} exponent entries")
    if re.search(r"\d\s+\d", text):
        raise PolySyntaxError("whitespace splits a number")
    text = "".join(text.split())
    if not re.fullmatch(_POLY, text):
        raise PolySyntaxError("polynomial text does not follow the grammar")
    # int() refuses longer digit runs; interpreters before the limit have none
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit and max(map(len, re.findall(r"\d+", text))) > limit:
        raise PolySyntaxError(f"a number exceeds the limit of {limit} digits")
    acc: dict[Exponent, Fraction] = {}
    for sign, num, den, factors in re.findall(
            r"([+-]?)(?:(\d+)(?:/(\d+))?)?([^+-]+)", text):
        if den and not int(den):
            raise PolySyntaxError("zero denominator")
        coeff = Fraction(int(num or 1), int(den or 1))
        u = [0] * (n + 1)
        for index, power in re.findall(r"x(\d+)\^?(\d*)", factors):
            i = int(index)
            if i > n:
                raise VariableIndexError(
                    f"variable x{i} exceeds ambient index {n}")
            u[i] += int(power or 1)
        if sum(u) != d:
            raise DegreeError(
                f"term of degree {sum(u)} in a degree-{d} polynomial")
        key = tuple(u)
        acc[key] = acc.get(key, _ZERO) + (-coeff if sign == "-" else coeff)
    poly = HomogPoly(n, d, acc)
    if poly.is_zero():
        raise ZeroPolynomialError("all terms cancelled; zero polynomial rejected")
    return poly


def _format_monomial(u: Exponent) -> str:
    parts = [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(u) if e]
    return "*".join(parts)


def format_poly(f: HomogPoly) -> str:
    """Canonical text form: descending graded-lex, exact coefficients."""
    if f.is_zero():
        return "0"
    pieces: list[str] = []
    for k, (u, c) in enumerate(f.terms()):
        mono = _format_monomial(u)
        mag = abs(c)
        if mono:
            body = mono if mag == 1 else f"{mag}*{mono}"
        else:
            body = str(mag)
        if k == 0:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


# ---------------------------------------------------------------------------
# weights and initial forms

WeightVector = tuple[Fraction, ...]


def weight_vector(entries: Iterable[RatLike]) -> WeightVector:
    return tuple(Fraction(e) for e in entries)


def weight_of(u: Sequence[int], w: Sequence[RatLike]) -> Fraction:
    """Scalar product of an exponent with a weight vector; zero entries of
    the exponent add nothing and are skipped."""
    if len(u) != len(w):
        raise DimensionMismatchError(f"lengths {len(u)} vs {len(w)}")
    return sum((Fraction(wi) * ui for ui, wi in zip(u, w) if ui), Fraction(0))


def initial_form(f: HomogPoly, w: Sequence[RatLike]) -> HomogPoly:
    """Sum of the terms of f whose weight attains the maximum over f."""
    if f.is_zero():
        raise ZeroPolynomialError("initial form of the zero polynomial is undefined")
    if len(w) != f.n + 1:
        raise DimensionMismatchError(f"weight length {len(w)}, expected {f.n + 1}")
    weights = {u: weight_of(u, w) for u in f.support()}
    top = max(weights.values())
    return HomogPoly(f.n, f.d,
                     {u: c for u, c in f.terms() if weights[u] == top})
