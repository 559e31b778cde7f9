"""Prime binomials: classification and support-pattern enumeration.

A two-term homogeneous polynomial a*x^u + b*x^v (a, b nonzero) generates a
prime ideal over an algebraically closed field of characteristic zero exactly
when the supports of u and v are disjoint and the entries of u and v are
jointly coprime.  A shared variable factors out as a monomial; a joint gcd
k >= 2 makes the binomial a difference/sum of k-th powers, which splits.
Coefficient values never matter beyond being nonzero, so enumeration works
on support patterns with fixed coefficients 1 and -1.

prime_pairs generates the prime patterns directly as exponent pairs, each
exponent paired only with the exponents on the variables it leaves free, so
the work is about twice the pattern count rather than C(C(n+d, d), 2)
monomial pairs.  shape_pattern_count counts the patterns on one pair of
supports in closed form, and count_prime_patterns gives their total, which
decides the listing budget before anything is generated.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb, gcd
from typing import Iterator, NamedTuple, Sequence

from . import domain
from .errors import (CertificateError, DegreeError, DimensionMismatchError,
                     DomainError)
from .poly import Exponent, HomogPoly, RatLike, iter_exponents

PRIME = "Prime"
NOT_TWO_TERMS = "NotTwoTerms"
SHARED_VARIABLE = "SharedVariable"
PROPER_POWER = "ProperPower"

# Most exponent entries, 2*(n+1) per pattern, that a listing of every
# pattern holds and enumerate-binomials prints: (5, 11) has 934,920,
# (30, 2) has 6,688,560.
MAX_LISTED = 1_000_000

_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)


class PrimeVerdict(NamedTuple):
    tag: str
    power: int | None = None

    @property
    def is_prime(self) -> bool:
        return self.tag == PRIME


class BinomialPattern(namedtuple("BinomialPattern", "u v a b")):
    """Unordered two-monomial support pattern with nonzero coefficients."""

    __slots__ = ()

    def __new__(cls, u: Sequence[int], v: Sequence[int],
                a: RatLike = _ONE, b: RatLike = _ONE):
        u, v = tuple(u), tuple(v)
        a = a if isinstance(a, Fraction) else Fraction(a)
        b = b if isinstance(b, Fraction) else Fraction(b)
        if len(u) != len(v):
            raise DimensionMismatchError(f"exponent lengths {len(u)} vs {len(v)}")
        for w in (u, v):
            if min(w, default=0) < 0:
                raise DegreeError(f"negative exponent in {w}")
        if u == v:
            raise DegreeError("the two monomials must be distinct")
        if sum(u) != sum(v):
            raise DegreeError(f"degrees {sum(u)} vs {sum(v)} differ")
        if a == 0 or b == 0:
            raise DegreeError("binomial coefficients must be nonzero")
        return tuple.__new__(cls, (u, v, a, b))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, so it validates like the constructor
        return cls(*iterable)

    @property
    def n(self) -> int:
        return len(self.u) - 1


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


def _mobius(g: int) -> int:
    """Moebius function: 0 unless g is squarefree, else (-1)^(prime count)."""
    sign, k, f = 1, g, 2
    while f * f <= k:
        if k % f == 0:
            k //= f
            if k % f == 0:
                return 0
            sign = -sign
        f += 1
    return -sign if k > 1 else sign


def shape_pattern_count(d: int, s: int, t: int) -> int:
    """The number of prime patterns of degree d on two given disjoint
    supports of sizes s and t.  Their exponent pairs are pairs of positive
    compositions of d, C(d-1, s-1) C(d-1, t-1) of them, and those with joint
    gcd divisible by g are g times a pair of degree d/g, so Moebius
    inversion leaves sum_(g|d) mu(g) C(d/g-1, s-1) C(d/g-1, t-1)."""
    return sum(_mobius(g) * comb(d // g - 1, s - 1) * comb(d // g - 1, t - 1)
               for g in range(1, d + 1) if d % g == 0)


def count_prime_patterns(n: int, d: int) -> int:
    """The number of prime patterns of degree d in n+1 variables, in closed
    form.  check_ambient runs first, which rejects a negative n or d and
    keeps the sum short.

    The ordered pairs of disjoint supports of sizes s and t number
    C(n+1, s) C(n+1-s, t), and each carries shape_pattern_count(d, s, t)
    patterns; summing over s and t counts every pattern twice.
    """
    domain.check_ambient(n, d)
    return sum(comb(n + 1, s) * comb(n + 1 - s, t) * shape_pattern_count(d, s, t)
               for s in range(1, min(n + 1, d) + 1)
               for t in range(1, min(n + 1 - s, d) + 1)) // 2


def check_listing_budget(n: int, d: int) -> int:
    """The prime-pattern count, or DomainError when listing every pattern
    takes more than MAX_LISTED exponent entries."""
    count = count_prime_patterns(n, d)
    if 2 * (n + 1) * count > MAX_LISTED:
        raise DomainError(
            f"{2 * (n + 1) * count} exponent entries of the {count} prime "
            f"patterns at n={n}, d={d} exceed the limit of {MAX_LISTED}")
    return count


def prime_pairs(n: int, d: int) -> Iterator[tuple[Exponent, Exponent]]:
    """Every prime pattern of degree d in n+1 variables as an exponent pair
    (u, v), u graded-lex before v, in the order of u and then of v.

    With disjoint supports, v comes after u exactly when v lives on variables
    past u's first one, so v runs over the degree-d exponents on the
    variables past min(supp(u)) outside supp(u), descending, and is kept when
    the entries of u and v are jointly coprime.  Up to placement those
    exponents depend only on how many variables are free, so the list for
    each number is built once.
    """
    rests: dict[int, tuple[Exponent, ...]] = {}
    for u in iter_exponents(n, d):
        first = next((i for i, e in enumerate(u) if e), n)
        free = [i for i in range(first + 1, n + 1) if not u[i]]
        if not free:
            continue
        ws = rests.get(len(free))
        if ws is None:
            ws = rests[len(free)] = tuple(iter_exponents(len(free) - 1, d))
        g = gcd(*u)
        for w in ws:
            if g == 1 or gcd(g, *w) == 1:
                v = [0] * (n + 1)
                for i, e in zip(free, w):
                    v[i] = e
                yield u, tuple(v)


def listed_pairs(n: int, d: int, count: int) -> Iterator[tuple[Exponent, ...]]:
    """prime_pairs(n, d) as they are generated, for a listing of count
    patterns; raises CertificateError at the end unless count came."""
    listed = 0
    for pair in prime_pairs(n, d):
        listed += 1
        yield pair
    if listed != count:
        raise CertificateError(
            f"{listed} prime patterns listed at n={n}, d={d}, but the closed "
            f"form counts {count}")


def enumerate_patterns(n: int, d: int) -> list[BinomialPattern]:
    """All prime support patterns of degree d in n+1 variables, as
    prime_pairs lists them, with symbolic coefficients 1 and -1.

    Raises DomainError when the list would hold more than MAX_LISTED
    exponent entries, and CertificateError unless the patterns listed add
    up to the closed-form count.
    """
    return [BinomialPattern(u, v, _ONE, _MINUS_ONE)
            for u, v in listed_pairs(n, d, check_listing_budget(n, d))]
