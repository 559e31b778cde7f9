"""Shared generators, oracles and property suites for the tests.

The property runners take a case count so the unit tests can run quick
passes while the acceptance suite runs the full counts.
"""

from __future__ import annotations

import heapq
import re
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import accumulate, combinations
from math import comb, gcd
from random import Random
from typing import Iterable, Iterator, NamedTuple, Sequence

from toricdegen import (
    BinomialPattern,
    CertificateError,
    DegreeError,
    DimensionMismatchError,
    DomainError,
    FamilyPoint,
    HomogPoly,
    LinearSystem,
    PolySyntaxError,
    VariableIndexError,
    ZeroPolynomialError,
    classify,
    difference_functional,
    format_poly,
    initial_form,
    parse_poly,
    prime_pairs,
    satisfies,
    solve,
    verify_certificate,
)
from toricdegen.binomials import check_listing_budget, listed_pairs
from toricdegen.domain import check_domain
from toricdegen.poly import Exponent, RatLike, _format_monomial, iter_exponents
from toricdegen.theorem import _check_shape, _spike_exponents


def random_poly(rng: Random, n: int, d: int, max_terms: int = 6) -> HomogPoly:
    exps = list(iter_exponents(n, d))
    count = rng.randint(1, min(max_terms, len(exps)))
    chosen = rng.sample(exps, count)
    terms = {}
    for u in chosen:
        c = 0
        while c == 0:
            c = rng.randint(-9, 9)
        terms[u] = Fraction(c, rng.randint(1, 4))
    return HomogPoly(n, d, terms)


def monomial(u: Sequence[int], coeff: RatLike = 1) -> HomogPoly:
    """The term coeff * x^u, in len(u) variables."""
    u = tuple(u)
    return HomogPoly(len(u) - 1, sum(u), {u: coeff})


def random_weight(rng: Random, n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                 for _ in range(n + 1))


def random_shape(rng: Random) -> tuple[int, int]:
    return rng.randint(1, 3), rng.randint(1, 3)


def pattern_poly(g: BinomialPattern) -> HomogPoly:
    """The binomial a*x^u + b*x^v of a pattern."""
    return HomogPoly(g.n, sum(g.u), {g.u: g.a, g.v: g.b})


def permute_poly(f: HomogPoly, perm: tuple[int, ...]) -> HomogPoly:
    terms = {}
    for u, c in f.terms():
        v = [0] * len(u)
        for i, e in enumerate(u):
            v[perm[i]] = e
        terms[tuple(v)] = c
    return HomogPoly(f.n, f.d, terms)


def permute_weight(w, perm: tuple[int, ...]):
    out = [Fraction(0)] * len(w)
    for i, e in enumerate(w):
        out[perm[i]] = Fraction(e)
    return tuple(out)


# ---------------------------------------------------------------------------
# exact algebra that only the oracles and property suites use

class SingularMatrixError(ValueError):
    """A linear change of coordinates requires an invertible matrix."""


def partial_derivative(f: HomogPoly, i: int) -> HomogPoly:
    """Partial derivative with respect to x_i; may be the zero polynomial."""
    if i < 0 or i > f.n:
        raise VariableIndexError(f"index {i} outside 0..{f.n}")
    out: dict[Exponent, Fraction] = {}
    for u, c in f.terms():
        if u[i] == 0:
            continue
        v = u[:i] + (u[i] - 1,) + u[i + 1:]
        out[v] = out.get(v, Fraction(0)) + c * u[i]
    return HomogPoly(f.n, max(f.d - 1, 0), out)


def multiply(f: HomogPoly, g: HomogPoly) -> HomogPoly:
    """Exact product; degrees add."""
    if f.n != g.n:
        raise DimensionMismatchError(f"ambient {f.n} vs {g.n}")
    out: dict[Exponent, Fraction] = {}
    for u, cu in f.terms():
        for v, cv in g.terms():
            uv = tuple(a + b for a, b in zip(u, v))
            out[uv] = out.get(uv, Fraction(0)) + cu * cv
    return HomogPoly(f.n, f.d + g.d, out)


def _det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by exact Gaussian elimination (small matrices only)."""
    m = [row[:] for row in rows]
    size = len(m)
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if m[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, size):
            if m[r][col]:
                factor = m[r][col] * inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def apply_linear_change(f: HomogPoly, matrix: Sequence[Sequence[RatLike]]) -> HomogPoly:
    """Substitute x_i <- sum_j matrix[i][j] * x_j and expand exactly.

    The matrix must be invertible.  Applying A then B equals applying the
    product A*B in one step.
    """
    size = f.n + 1
    rows = [[Fraction(e) for e in row] for row in matrix]
    if len(rows) != size or any(len(row) != size for row in rows):
        raise DimensionMismatchError(
            f"matrix must be {size}x{size} for n={f.n}")
    if _det(rows) == 0:
        raise SingularMatrixError("change-of-coordinates matrix is singular")
    images = [
        HomogPoly(f.n, 1, {tuple(1 if j == k else 0 for k in range(size)): rows[i][j]
                           for j in range(size) if rows[i][j]})
        for i in range(size)
    ]
    # cache powers of each variable image; exponents repeat across terms
    powers: list[dict[int, HomogPoly]] = [dict() for _ in range(size)]

    def power(i: int, e: int) -> HomogPoly:
        cached = powers[i].get(e)
        if cached is None:
            cached = images[i] if e == 1 else multiply(power(i, e - 1), images[i])
            powers[i][e] = cached
        return cached

    total: dict[Exponent, Fraction] = {}
    for u, c in f.terms():
        piece = monomial((0,) * size)
        for i, e in enumerate(u):
            if e:
                piece = multiply(piece, power(i, e))
        for v, cv in piece.terms():
            total[v] = total.get(v, Fraction(0)) + c * cv
    return HomogPoly(f.n, f.d, total)


def transpose(rows: Sequence[Sequence[RatLike]]) -> list[tuple[RatLike, ...]]:
    return list(zip(*rows))


# ---------------------------------------------------------------------------
# result records

def check_record(cls, fields: dict, defaults: dict | None = None):
    """Check a record type's construction contract and return one instance.

    `fields` lists every field in declaration order with a value already in
    stored form; `defaults` maps the fields that may be omitted to their
    default values.  Keyword and positional construction must give equal
    records with equal hashes; leaving out the defaulted fields must give
    the defaults.  A NamedTuple record must refuse attribute assignment,
    and _replace with no change must give an equal record of its type.
    """
    by_name = cls(**fields)
    by_position = cls(*fields.values())
    assert by_name == by_position, cls.__name__
    assert hash(by_name) == hash(by_position), cls.__name__
    for name, value in fields.items():
        assert getattr(by_name, name) == value, (cls.__name__, name)
    if defaults:
        short = cls(**{k: v for k, v in fields.items() if k not in defaults})
        for name, value in defaults.items():
            assert getattr(short, name) == value, (cls.__name__, name)
    if isinstance(by_name, tuple):
        first = next(iter(fields))
        try:
            setattr(by_name, first, getattr(by_name, first))
        except AttributeError:
            pass
        else:
            raise AssertionError(f"{cls.__name__} accepted an attribute assignment")
        same = by_name._replace()
        assert same == by_name and type(same) is cls, cls.__name__
    return by_name


# ---------------------------------------------------------------------------
# property suites (criterion: initial-form laws)

def run_idempotence(rng: Random, cases: int) -> None:
    for _ in range(cases):
        n, d = random_shape(rng)
        f = random_poly(rng, n, d)
        w = random_weight(rng, n)
        once = initial_form(f, w)
        assert initial_form(once, w) == once


def run_multiplicativity(rng: Random, cases: int) -> None:
    for _ in range(cases):
        n, _ = random_shape(rng)
        f = random_poly(rng, n, rng.randint(1, 3))
        g = random_poly(rng, n, rng.randint(1, 3))
        w = random_weight(rng, n)
        assert initial_form(multiply(f, g), w) == \
            multiply(initial_form(f, w), initial_form(g, w))


def run_translation_scaling(rng: Random, cases: int) -> None:
    for _ in range(cases):
        n, d = random_shape(rng)
        f = random_poly(rng, n, d)
        w = random_weight(rng, n)
        base = initial_form(f, w)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        shifted = tuple(e + c for e in w)
        assert initial_form(f, shifted) == base
        s = Fraction(rng.randint(1, 7), rng.randint(1, 5))
        scaled = tuple(s * e for e in w)
        assert initial_form(f, scaled) == base


def run_permutation_equivariance(rng: Random, cases: int) -> None:
    for _ in range(cases):
        n, d = random_shape(rng)
        f = random_poly(rng, n, d)
        w = random_weight(rng, n)
        perm = list(range(n + 1))
        rng.shuffle(perm)
        perm = tuple(perm)
        assert initial_form(permute_poly(f, perm), permute_weight(w, perm)) \
            == permute_poly(initial_form(f, w), perm)


# ---------------------------------------------------------------------------
# brute-force oracle for prime pattern enumeration

def brute_prime_pairs(n: int, d: int) -> set[frozenset]:
    """Independent filter over all monomial pairs (no library calls)."""
    exps: list[tuple[int, ...]] = []

    def build(prefix, remaining, slots):
        if slots == 1:
            exps.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining + 1):
            build(prefix + [e], remaining - e, slots - 1)

    build([], d, n + 1)
    out = set()
    for u, v in combinations(exps, 2):
        if any(a > 0 and b > 0 for a, b in zip(u, v)):
            continue
        joint = 0
        for e in (*u, *v):
            joint = gcd(joint, e)
        if joint == 1:
            out.add(frozenset((u, v)))
    return out


def recursive_exponents(n: int, d: int) -> Iterator[Exponent]:
    """Order oracle for iter_exponents: the first entry from d down to 0,
    each followed by every exponent of the rest, recursing once per
    variable."""
    if n == 0:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in recursive_exponents(n - 1, d - first):
            yield (first,) + rest


def ordered_prime_pairs(n: int, d: int) -> list[tuple[Exponent, Exponent]]:
    """Order oracle for prime_pairs: every monomial pair (u, v) with u
    graded-lex before v, filtered on support bit masks and exponent gcds."""
    exps = tuple(iter_exponents(n, d))
    masks = [sum(1 << i for i, e in enumerate(u) if e) for u in exps]
    gcds = [gcd(*u) for u in exps]
    return [(u, exps[j]) for i, u in enumerate(exps)
            for j in range(i + 1, len(exps))
            if not masks[i] & masks[j] and gcd(gcds[i], gcds[j]) == 1]


def listing_payload(n: int, d: int) -> dict:
    """Oracle for enumerate-binomials: its payload the plain way, one dict
    per pattern with each monomial formatted on its own."""
    count = check_listing_budget(n, d)
    return {"n": n, "d": d, "count": count,
            "patterns": [{"u": u, "v": v, "lhs": _format_monomial(u),
                          "rhs": _format_monomial(v)}
                         for u, v in listed_pairs(n, d, count)]}


def listing_table(payload: dict) -> str:
    """The --format table text of a listing_payload."""
    lines = [f"{key} = {payload[key]}" for key in ("n", "d", "count")]
    lines += [f"{p['lhs']}  |  {p['rhs']}" for p in payload["patterns"]]
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# random linear systems for the solver suite

def random_system(rng: Random) -> LinearSystem:
    dim = rng.randint(2, 6)

    def func():
        return tuple(Fraction(rng.randint(-4, 4)) for _ in range(dim))

    return LinearSystem(
        dim,
        equalities=tuple(func() for _ in range(rng.randint(0, 2))),
        weak_ineqs=tuple(func() for _ in range(rng.randint(0, 4))),
        strict_ineqs=tuple(func() for _ in range(rng.randint(0, 3))),
    )


def run_solver_suite(rng: Random, cases: int) -> tuple[int, int]:
    """Solve random systems; witnesses substituted, certificates expanded.

    Returns (feasible_count, infeasible_count)."""
    feasible = infeasible = 0
    for _ in range(cases):
        system = random_system(rng)
        result = solve(system)
        if result.feasible:
            feasible += 1
            assert satisfies(system, result.witness)
        else:
            infeasible += 1
            assert verify_certificate(system, result.certificate)
    return feasible, infeasible


# ---------------------------------------------------------------------------
# implied inequalities over a weight chain cut by one balance equation: the
# closed form chain_implies, its Fourier-Motzkin oracle implies, and the
# forced-equal weight runs of a pattern's cone

def chain_implies(h: Sequence[RatLike], f: Sequence[RatLike]) -> bool:
    """True iff <f, w> >= 0 on the cone w0 >= w1 >= ... >= wn, <h, w> = 0.

    With t_k = w_k - w_(k+1) >= 0 and prefix sums H_k, F_k (k < n), both
    functionals summing to zero, <f, w> = sum F_k t_k on the cone.  By Farkas
    the implication holds exactly when some lam has F_k - lam*H_k >= 0 for
    every k, i.e. f = lam*h + sum mu_k (e_k - e_(k+1)) with mu_k >= 0.  The
    candidate lam is the tightest bound from one side; the n inequalities are
    then re-checked exactly, which certifies a True answer.
    """
    if len(h) != len(f):
        raise DimensionMismatchError(f"lengths {len(h)} vs {len(f)}")
    if sum(h) != 0 or sum(f) != 0:
        raise DomainError("chain implication needs functionals summing to zero")
    # (F_k, H_k) for every k; the last pair is (0, 0) and constrains nothing
    pairs = list(zip(accumulate(f), accumulate(h)))
    # lam = num/den with den > 0: the smallest F_j/H_j over H_j > 0, else the
    # largest over H_j < 0, else 0.  Ratios are compared and the inequalities
    # checked by cross-multiplying, so integers stay integers.
    num = den = None
    for a, b in pairs:
        if b > 0 and (den is None or a * den < num * b):
            num, den = a, b
    if den is None:
        for a, b in pairs:
            if b < 0 and (den is None or a * den < num * b):
                num, den = -a, -b
    if den is None:
        num, den = 0, 1
    return all(a * den >= num * b for a, b in pairs)


def implies(cone: LinearSystem, func: Sequence) -> bool:
    """True iff <func, w> >= 0 holds on every point of the cone.

    Decided as infeasibility of the cone together with <func, w> < 0.
    The cone must not contain strict inequalities.
    """
    if cone.strict_ineqs:
        raise DomainError("implication cone must not contain strict inequalities")
    test = tuple(-Fraction(e) for e in func)
    augmented = LinearSystem(cone.dim, cone.equalities, cone.weak_ineqs, (test,))
    return not solve(augmented).feasible


def forced_blocks(g: BinomialPattern) -> list[list[int]]:
    """Maximal index runs on which g's compatible cone (identity ordering)
    forces equal weights: j + 1 joins j's run when w_(j+1) >= w_j is implied."""
    h = tuple(a - b for a, b in zip(g.u, g.v))
    blocks = [[0]]
    for j in range(g.n):
        f = [1 if i == j + 1 else -1 if i == j else 0 for i in range(g.n + 1)]
        if chain_implies(h, f):
            blocks[-1].append(j + 1)
        else:
            blocks.append([j + 1])
    return blocks


def compatible_cone(g: BinomialPattern, ordering: Sequence[int]) -> LinearSystem:
    """Weight vectors weakly decreasing along the ordering that balance g.

    The ordering lists variable indices from most to least dominant; adjacent
    pairs contribute w_i >= w_j, and the two monomials of g are forced to
    share a weight.
    """
    dim = g.n + 1
    if sorted(ordering) != list(range(dim)):
        raise DomainError(f"ordering must be a permutation of 0..{g.n}")
    weak = []
    for i, j in zip(ordering, ordering[1:]):
        f = [Fraction(0)] * dim
        f[i] = Fraction(1)
        f[j] = Fraction(-1)
        weak.append(tuple(f))
    return LinearSystem(dim, (difference_functional(g.u, g.v),), tuple(weak), ())


# ---------------------------------------------------------------------------
# per-pattern strata reduction: the oracle for the survey's shape check,
# deciding each prime pattern on its own through general chain implications

class NormalizationError(RuntimeError):
    """No certified swap normalizes the pattern for the reduction check."""


def _support(u: Exponent) -> tuple[int, ...]:
    return tuple(i for i, e in enumerate(u) if e)


def _relabel(u: Exponent, ordering: Sequence[int]) -> Exponent:
    """Relabel variables so the given ordering becomes 0, 1, ..., n."""
    return tuple(u[i] for i in ordering)


def _split_terms(u: Exponent, v: Exponent) -> tuple[Exponent, Exponent, int, int]:
    """Leading term (containing the smallest index), other term, and their
    smallest indices p and q."""
    su, sv = _support(u), _support(v)
    if su[0] <= sv[0]:
        return u, v, su[0], sv[0]
    return v, u, sv[0], su[0]


def _is_normalized(u: Exponent, v: Exponent) -> bool:
    lead, _other, _p, q = _split_terms(u, v)
    return _support(lead)[-1] > q


def _diff(u: Exponent, v: Exponent) -> tuple[int, ...]:
    return tuple(a - b for a, b in zip(u, v))


def _cone_within(u: Exponent, v: Exponent, cu: Exponent, cv: Exponent) -> bool:
    """Certify that every weight compatible with u / v is compatible with
    cu / cv: the chain parts coincide, so only the candidate's balance
    equality needs to hold on the cone of u / v (both implied directions)."""
    h, hc = _diff(u, v), _diff(cu, cv)
    return chain_implies(h, hc) and chain_implies(h, tuple(-a for a in hc))


def _normalize(u: Exponent, v: Exponent) -> tuple[Exponent, Exponent]:
    """Swap the leading term's last index with the other term's first index
    q, re-checking that the result is normalized and that the swap keeps
    every compatible weight."""
    lead, _other, _p, q = _split_terms(u, v)
    last = _support(lead)[-1]
    swap = list(range(len(u)))
    swap[last], swap[q] = q, last  # a transposition is its own inverse
    cu, cv = _relabel(u, swap), _relabel(v, swap)
    if not (_is_normalized(cu, cv) and _cone_within(u, v, cu, cv)):
        raise NormalizationError(
            f"swapping x{last} and x{q} does not normalize pattern {u} / {v}")
    return cu, cv


def _check_pattern(u: Exponent, v: Exponent, x1d: Exponent,
                   excluded: frozenset[Exponent]) -> bool:
    """The reduction check on the identity-ordered pattern u / v: normalize
    if the lead lies wholly below the other term, then no monomial may be
    excluded and x1^d must weigh at least the other term on the cone."""
    lead, other, _p, q = _split_terms(u, v)
    if q == 0:
        raise CertificateError(f"pattern {u} / {v} has x0 in both terms")
    if _support(lead)[-1] < q:
        u, v = _normalize(u, v)
        _lead, other, _p, _q = _split_terms(u, v)
    if u in excluded or v in excluded:
        return False
    # excluded w - x1^d = a*(e0 - e1), a >= 1, and the chain has w0 >= w1
    return chain_implies(_diff(u, v), _diff(x1d, other))


def _check_constants(n: int, d: int) -> tuple[Exponent, frozenset[Exponent]]:
    """x1^d and the excluded exponents, which every pattern's check reads."""
    x1d, _ = _spike_exponents(n, d)
    return x1d, frozenset(excluded_exponents(n, d))


def pattern_verdicts(n: int, d: int) -> dict[tuple[Exponent, Exponent], bool]:
    """The per-pattern verdict on every prime pattern (u, v) of prime_pairs;
    a NormalizationError counts as a failure."""
    x1d, excluded = _check_constants(n, d)
    verdicts = {}
    for u, v in prime_pairs(n, d):
        try:
            verdicts[u, v] = _check_pattern(u, v, x1d, excluded)
        except NormalizationError:
            verdicts[u, v] = False
    return verdicts


def strata_reduction_check(n: int, d: int, g: BinomialPattern,
                           ordering: Sequence[int]) -> bool:
    """The survey's _check_shape on one (pattern, ordering) stratum: certify
    that the forms with initial form g, under weights compatible with the
    ordering, lie in a coordinate permutation of the restricted family.

    After relabeling the ordering to the identity, g's shape runs through
    _check_shape, and its verdict is returned.  Raises DomainError unless
    the ordering is a permutation of 0..n.
    """
    check_domain(n, d)
    if not classify(g).is_prime:
        raise DomainError("strata reduction applies to prime patterns only")
    if sum(g.u) != d or g.n != n:
        raise DomainError(
            f"pattern shape ({g.n},{sum(g.u)}) vs given ({n},{d})")
    if sorted(ordering) != list(range(n + 1)):
        raise DomainError(
            f"ordering {tuple(ordering)} is not a permutation of 0..{n}")
    # position k of the relabeled pattern holds x_(ordering[k])
    return _check_shape(*sorted(tuple(k for k, i in enumerate(ordering) if w[i])
                                for w in (g.u, g.v)))[0]


# ---------------------------------------------------------------------------
# per-shape strata survey: the oracle for the survey's shape classes

def support_shapes(n: int, d: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The supports (S, T) of the prime patterns of degree d >= 2 in n+1
    variables, S holding the smallest index: disjoint, 1 <= |S|, |T| <= d,
    and not both single variables, as x_i^d and x_j^d share the gcd d.
    Every such pair carries at least one prime pattern."""
    for s in range(1, min(n + 1, d) + 1):
        for lead in combinations(range(n + 1), s):
            free = [i for i in range(lead[0] + 1, n + 1) if i not in lead]
            for t in range(1 + (s == 1), min(len(free), d) + 1):
                for other in combinations(free, t):
                    yield lead, other


def shape_count(n: int, d: int) -> int:
    """The number of pairs support_shapes(n, d) yields, in closed form: the
    unordered pairs of disjoint supports of sizes 1 <= s, t <= d, two single
    variables aside."""
    return sum(comb(n + 1, s) * comb(n + 1 - s, t)
               for s in range(1, min(n + 1, d) + 1)
               for t in range(1 + (s == 1), min(n + 1 - s, d) + 1)) // 2


def shape_class(lead: tuple[int, ...],
                other: tuple[int, ...]) -> tuple[bool, int, int]:
    """The class (case, |S|, |T|) of a shape; the case is True when all of S
    lies below all of T, so that the check swaps max S with min T."""
    return lead[-1] < other[0], len(lead), len(other)


def shape_survey(n: int, d: int) -> dict[tuple[bool, int, int], Counter]:
    """The survey shape by shape: the verdicts on every shape of
    support_shapes(n, d), counted per class as {class: {verdict: shapes}}."""
    classes: dict[tuple[bool, int, int], Counter] = {}
    for lead, other in support_shapes(n, d):
        key = shape_class(lead, other)
        classes.setdefault(key, Counter())[_check_shape(lead, other)[0]] += 1
    return classes


def roundtrip_text(f: HomogPoly) -> None:
    text = format_poly(f)
    again = parse_poly(text, f.n, f.d)
    assert again == f
    assert format_poly(again) == text


# ---------------------------------------------------------------------------
# token-by-token parser: the oracle for parse_poly, which matches the grammar
# as a whole.  It reads the same texts to the same polynomials; the one
# difference is that it raises an index, degree or zero-denominator error at
# the token where it meets one, before it sees a syntax error further on.

_TOKEN = re.compile(r"\s*(\d+|[x^*/+-])")


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise PolySyntaxError(
                    f"unexpected character {text[pos:].strip()[0]!r} at position {pos}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str], n: int, d: int):
        self.tokens = tokens
        self.i = 0
        self.n = n
        self.d = d

    def peek(self) -> str | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def advance(self) -> str:
        tok = self.peek()
        if tok is None:
            raise PolySyntaxError("unexpected end of input")
        self.i += 1
        return tok

    def expect_int(self, what: str) -> int:
        tok = self.advance()
        if not tok.isdigit():
            raise PolySyntaxError(f"expected {what}, found {tok!r}")
        return int(tok)

    def parse_term(self) -> tuple[Exponent, Fraction]:
        coeff = Fraction(1)
        tok = self.peek()
        if tok is not None and tok.isdigit():
            num = int(self.advance())
            if self.peek() == "/":
                self.advance()
                den = self.expect_int("denominator")
                if den == 0:
                    raise PolySyntaxError("zero denominator")
                coeff = Fraction(num, den)
            else:
                coeff = Fraction(num)
            if self.peek() == "*":
                self.advance()
        exps = [0] * (self.n + 1)
        saw_factor = False
        while True:
            if self.peek() == "x":
                self.advance()
                idx = self.expect_int("variable index")
                if idx > self.n:
                    raise VariableIndexError(
                        f"variable x{idx} exceeds ambient index {self.n}")
                e = 1
                if self.peek() == "^":
                    self.advance()
                    e = self.expect_int("exponent")
                exps[idx] += e
                saw_factor = True
                if self.peek() == "*":
                    self.advance()
                    continue
            break
        if not saw_factor:
            raise PolySyntaxError(
                f"expected a variable factor, found {self.peek()!r}")
        if sum(exps) != self.d:
            raise DegreeError(
                f"term of degree {sum(exps)} in a degree-{self.d} polynomial")
        return tuple(exps), coeff


def oracle_parse_poly(text: str, n: int, d: int) -> HomogPoly:
    """Parse the text grammar token by token."""
    tokens = _tokenize(text)
    if not tokens:
        raise PolySyntaxError("empty polynomial text")
    parser = _Parser(tokens, n, d)
    sign = 1
    if parser.peek() in ("+", "-"):
        sign = -1 if parser.advance() == "-" else 1
    acc: dict[Exponent, Fraction] = {}
    while True:
        u, c = parser.parse_term()
        acc[u] = acc.get(u, Fraction(0)) + sign * c
        tok = parser.peek()
        if tok is None:
            break
        if tok not in ("+", "-"):
            raise PolySyntaxError(f"expected '+' or '-', found {tok!r}")
        parser.advance()
        sign = -1 if tok == "-" else 1
    poly = HomogPoly(n, d, acc)
    if poly.is_zero():
        raise ZeroPolynomialError("all terms cancelled; zero polynomial rejected")
    return poly


# ---------------------------------------------------------------------------
# full-span oracle for the differential rank

class Generator(NamedTuple):
    """A spanning element of the differential image, tagged with its origin."""

    kind: str                      # "monomial" or "product"
    origin: tuple[int, ...]        # an exponent, or the pair (i, j)
    poly: HomogPoly


def differential_generators(f: HomogPoly) -> list[Generator]:
    """Monomial generators for every non-excluded exponent, then the
    (n+1)^2 products (df/dx_i) * x_j in row-major (i, j) order."""
    n, d = f.n, f.d
    excluded = excluded_exponents(n, d)
    gens: list[Generator] = []
    for u in iter_exponents(n, d):
        if u not in excluded:
            gens.append(Generator("monomial", u, monomial(u)))
    partials = [partial_derivative(f, i) for i in range(n + 1)]
    for i in range(n + 1):
        for j in range(n + 1):
            xj = monomial(tuple(1 if t == j else 0 for t in range(n + 1)))
            gens.append(Generator("product", (i, j), multiply(partials[i], xj)))
    return gens


SparseRow = dict[int, Fraction]


def _reduce_sparse(row: SparseRow, pivots: dict[int, SparseRow]) -> SparseRow:
    """Reduce a row against an echelon pivot set, exactly."""
    r = dict(row)
    heap = list(r)
    heapq.heapify(heap)
    while heap:
        c = heapq.heappop(heap)
        val = r.get(c)
        if not val:
            r.pop(c, None)
            continue
        piv = pivots.get(c)
        if piv is None:
            return r  # leading column c has no pivot; caller decides
        factor = val / piv[c]
        for cc, vv in piv.items():
            nv = r.get(cc, Fraction(0)) - factor * vv
            if nv:
                if cc not in r and cc != c:
                    heapq.heappush(heap, cc)
                r[cc] = nv
            else:
                r.pop(cc, None)
    return r


def rank_sparse_exact(rows: Iterable[SparseRow]) -> int:
    pivots: dict[int, SparseRow] = {}
    count = 0
    for row in rows:
        reduced = _reduce_sparse(row, pivots)
        if reduced:
            pivots[min(reduced)] = reduced
            count += 1
    return count


def sparse_rows(polys: Iterable[HomogPoly], n: int, d: int) -> list[SparseRow]:
    """Each polynomial as a sparse row over the degree-d monomials, indexed
    in descending graded-lex order."""
    index = {u: k for k, u in enumerate(iter_exponents(n, d))}
    return [{index[u]: c for u, c in f.terms()} for f in polys]


def full_span_rank(f: HomogPoly) -> int:
    """Rank of every differential generator over the full monomial basis."""
    return rank_sparse_exact(sparse_rows(
        (gen.poly for gen in differential_generators(f)), f.n, f.d))


def stuck_sampler(monkeypatch) -> list[tuple[int, int]]:
    """Make family.sample_family return the face point x1^d + x0^(d-1)*x2,
    whose key rank is below the structural bound, so no draw is generic.
    Returns the list of draws, one (n, d) per call."""
    import toricdegen.family
    import toricdegen.theorem
    draws = []

    def sample(n, d, rng, bound=1000):
        draws.append((n, d))
        x1d, lead = toricdegen.theorem._spike_exponents(n, d)
        return face_point(HomogPoly(n, d, {x1d: 1, lead: 1}))

    monkeypatch.setattr(toricdegen.family, "sample_family", sample)
    return draws


def spikeless_sampler(monkeypatch) -> None:
    """Make family.sample_family drop c[x1^d] from each point it draws,
    which sampling never does, so no draw's block ranks 1 + its key
    matrix."""
    import toricdegen.family
    sample = toricdegen.family.sample_family

    def spikeless(n, d, rng, bound=1000):
        return sample(n, d, rng, bound)._replace(spike=0)

    monkeypatch.setattr(toricdegen.family, "sample_family", spikeless)


def step_reference(w: Exponent, i: int, j: int) -> Exponent:
    """w - e_j + e_i: the exponent whose term, differentiated by x_i and
    multiplied by x_j, lands on x^w."""
    u = list(w)
    u[j] -= 1
    u[i] += 1
    return tuple(u)


def _excluded(u: Exponent) -> bool:
    """Whether a degree-d exponent is excluded: it holds x0 and lies on
    {x0, x1}."""
    return u[0] > 0 and not any(u[2:])


def face_exponents(n: int, d: int) -> tuple[Exponent, ...]:
    """The non-excluded exponents that a product step can send onto an
    excluded one, in closed form: x1^d and x0^a*x1^(d-1-a)*x_i for
    0 <= a <= d-1 and i >= 2, 1 + (n-1)*d in all, descending graded-lex."""
    check_domain(n, d)
    z = (0,) * (n - 1)
    spokes = [(a, d - 1 - a) + z[:i] + (1,) + z[i + 1:]
              for a in range(d) for i in range(n - 1)]
    return tuple(sorted([(0, d) + z] + spokes, reverse=True))


def face_point(f: HomogPoly) -> FamilyPoint:
    """The family point holding f's face coefficients, f's terms off the
    face dropped; DomainError if f is nonzero on an excluded exponent.  A
    point holds ints, so each face coefficient must be integral, and is
    converted with int(c)."""
    bad = [u for u in f.support() if _excluded(u)]
    if bad:
        raise DomainError(f"nonzero coefficients on excluded exponents {bad}")
    n, d = f.n, f.d
    z = (0,) * (n - 1)

    def coeff(u):
        c = f.coeff(u)
        if c.denominator != 1:
            raise ValueError(f"coefficient {c} at {u} is not integral")
        return int(c)

    return FamilyPoint(n, d, coeff((0, d) + z), (
        [coeff((d - 1 - k, k) + z[:i] + (1,) + z[i + 1:]) for k in range(d)]
        for i in range(n - 1)))


def sample_family_reference(n: int, d: int, rng: Random,
                            bound: int = 1000) -> HomogPoly:
    """family.sample_family's point as a polynomial, drawn one value per
    dense face exponent in descending graded-lex order."""
    coeffs = {}
    for u in face_exponents(n, d):
        k = rng.randrange(2 * bound)
        coeffs[u] = k - bound if k < bound else k - bound + 1
    return HomogPoly(n, d, coeffs)


def excluded_block_reference(f: HomogPoly) -> tuple[tuple[RatLike, ...], ...]:
    """family.excluded_block entry by entry, from the definition on a dense
    polynomial: u_i * c[u] at ((i, j), w) for u = w - e_j + e_i when
    w_j >= 1, and 0 otherwise."""
    excluded = excluded_exponents(f.n, f.d)

    def coeff(u):  # an integral coefficient as an int, as the block has it
        c = f.coeff(u)
        return c.numerator if c.denominator == 1 else c

    return tuple(
        tuple((w[i] + (i != j)) * coeff(step_reference(w, i, j))
              if w[j] else 0 for w in excluded)
        for i in range(f.n + 1) for j in (0, 1))


def excluded_exponents(n: int, d: int) -> tuple[Exponent, ...]:
    """The d excluded exponents x0^(d-k)*x1^k, 0 <= k <= d-1, as dense
    (n+1)-entry tuples in descending graded-lex (x0^d first): the block's
    columns, which family reads as the pairs (d-k, k)."""
    check_domain(n, d)
    return tuple((d - k, k) + (0,) * (n - 1) for k in range(d))


def block_support_reference(n: int, d: int) -> dict[tuple[int, int, int], Exponent]:
    """family._block_support's positions, and face_exponents as its values,
    by a scan that builds every step: (i, j, k) to u = w_k - e_j + e_i for
    every excluded w_k with w_k[j] >= 1 and every i, where u is not
    excluded."""
    return {(i, j, k): u for k, w in enumerate(excluded_exponents(n, d))
            for j in range(n + 1) if w[j] for i in range(n + 1)
            if not _excluded(u := step_reference(w, i, j))}


def family_caches() -> dict:
    """Every lru_cache in family, by name."""
    import toricdegen.family as family
    return {name: obj for name, obj in vars(family).items()
            if hasattr(obj, "cache_parameters")}


@contextmanager
def patched_support(change) -> Iterator[None]:
    """Within the block, family._block_support(n, d) returns
    change(set(positions)) for the true support positions; every family
    cache is cleared on entry and on exit, so structural_rank_bound, which
    reads the support, answers with neither side's support on the other."""
    import toricdegen.family as family
    support, caches = family._block_support, family_caches().values()
    family._block_support = lambda n, d: change(set(support(n, d)))
    try:
        for cache in caches:
            cache.cache_clear()
        yield
    finally:
        family._block_support = support
        for cache in caches:
            cache.cache_clear()


def forbid_pattern_generation(monkeypatch) -> None:
    """Make prime_pairs raise under every name a toricdegen module binds it
    to, so a call that generates a prime pattern fails the test."""
    import sys

    def refuse(n, d):
        raise AssertionError(f"prime_pairs({n}, {d}) was called")

    # the package binds none of its public names, it reads them from the
    # layers, so patching it would leave a copy behind on undo
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "toricdegen" and "prime_pairs" in vars(module):
            monkeypatch.setattr(module, "prime_pairs", refuse)
