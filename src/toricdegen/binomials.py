"""Prime binomials: classification and support-pattern enumeration.

A two-term homogeneous polynomial a*x^u + b*x^v (a, b nonzero) generates a
prime ideal over an algebraically closed field of characteristic zero exactly
when the supports of u and v are disjoint and the entries of u and v are
jointly coprime.  A shared variable factors out as a monomial; a joint gcd
k >= 2 makes the binomial a difference/sum of k-th powers, which splits.
Coefficient values never matter beyond being nonzero, so enumeration works
on support patterns with fixed coefficients 1 and -1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import comb, gcd

from .errors import DegreeError, DimensionMismatchError, DomainError
from .poly import Exponent, HomogPoly, count_exponents, iter_exponents

PRIME = "Prime"
NOT_TWO_TERMS = "NotTwoTerms"
SHARED_VARIABLE = "SharedVariable"
PROPER_POWER = "ProperPower"

# Largest number of unordered monomial pairs C(C(n+d, d), 2) that pattern
# enumeration will filter: (5, 10) has 4,507,503, (5, 11) has 9,537,528.
MAX_PAIRS = 5_000_000


@dataclass(frozen=True)
class PrimeVerdict:
    tag: str
    power: int | None = None

    @property
    def is_prime(self) -> bool:
        return self.tag == PRIME


@dataclass(frozen=True)
class BinomialPattern:
    """Unordered two-monomial support pattern with nonzero coefficients."""

    u: Exponent
    v: Exponent
    a: Fraction = field(default=Fraction(1))
    b: Fraction = field(default=Fraction(1))

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(self.u))
        object.__setattr__(self, "v", tuple(self.v))
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if len(self.u) != len(self.v):
            raise DimensionMismatchError(
                f"exponent lengths {len(self.u)} vs {len(self.v)}")
        for w in (self.u, self.v):
            if any(e < 0 for e in w):
                raise DegreeError(f"negative exponent in {w}")
        if self.u == self.v:
            raise DegreeError("the two monomials must be distinct")
        if sum(self.u) != sum(self.v):
            raise DegreeError(
                f"degrees {sum(self.u)} vs {sum(self.v)} differ")
        if self.a == 0 or self.b == 0:
            raise DegreeError("binomial coefficients must be nonzero")

    @property
    def n(self) -> int:
        return len(self.u) - 1

    @property
    def d(self) -> int:
        return sum(self.u)

    def to_poly(self) -> HomogPoly:
        return HomogPoly(self.n, self.d, {self.u: self.a, self.v: self.b})


def classify(g: BinomialPattern) -> PrimeVerdict:
    """Primality verdict for a binomial pattern.

    SharedVariable when some x_i divides both monomials; ProperPower(k) when
    the joint gcd k of all exponent entries is at least 2; Prime otherwise.
    """
    if any(x > 0 and y > 0 for x, y in zip(g.u, g.v)):
        return PrimeVerdict(SHARED_VARIABLE)
    k = 0
    for e in (*g.u, *g.v):
        k = gcd(k, e)
    if k >= 2:
        return PrimeVerdict(PROPER_POWER, power=k)
    return PrimeVerdict(PRIME)


def pattern_from_poly(f: HomogPoly) -> BinomialPattern | None:
    """The pattern of a two-term polynomial, or None if not two terms."""
    if f.num_terms() != 2:
        return None
    (u, a), (v, b) = f.terms()
    return BinomialPattern(u, v, a, b)


def classify_poly(f: HomogPoly) -> PrimeVerdict:
    g = pattern_from_poly(f)
    if g is None:
        return PrimeVerdict(NOT_TWO_TERMS)
    return classify(g)


def check_pair_budget(n: int, d: int) -> None:
    """Reject (n, d) whose C(C(n+d, d), 2) monomial pairs exceed MAX_PAIRS.

    More than MAX_PAIRS monomials already make more than MAX_PAIRS pairs, so
    the monomial count is capped there.
    """
    if comb(count_exponents(n, d, MAX_PAIRS), 2) > MAX_PAIRS:
        raise DomainError(
            f"C(C({n + d}, {d}), 2) monomial pairs at n={n}, d={d} exceed the "
            f"limit of {MAX_PAIRS}")


def enumerate_patterns(n: int, d: int) -> list[BinomialPattern]:
    """All prime support patterns of degree d in n+1 variables.

    Each unordered pair appears once, with the graded-lex earlier exponent
    first and symbolic coefficients 1 and -1.  A pair is tested on support
    bit masks and exponent gcds; only prime pairs become patterns.
    """
    check_pair_budget(n, d)
    exps = tuple(iter_exponents(n, d))
    masks = [sum(1 << i for i, e in enumerate(u) if e) for u in exps]
    gcds = [reduce(gcd, u) for u in exps]
    out: list[BinomialPattern] = []
    for i, u in enumerate(exps):
        mu, gu = masks[i], gcds[i]
        for j in range(i + 1, len(exps)):
            if not mu & masks[j] and gcd(gu, gcds[j]) == 1:
                out.append(BinomialPattern(u, exps[j], Fraction(1), Fraction(-1)))
    return out
