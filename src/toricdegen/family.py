"""The restricted coefficient family and the orbit-map differential.

A degree-d form in x0..xn lies in the restricted family when every monomial
involving only x0 and x1 has zero coefficient, except x1^d which is free.
The d excluded exponents are x0^d, x0^(d-1)*x1, ..., x0*x1^(d-1).

For a point c of the family, the tangent space to the orbit of f_c under
linear changes of coordinates, taken together with the family directions, is
spanned by two groups of generators: the non-excluded monomials themselves,
and the (n+1)^2 products (df_c/dx_i) * x_j.  The monomial generators are unit
vectors on every non-excluded exponent, so the rank of the whole span is
(ambient - d) plus the rank of the products' coefficients on the d excluded
exponents.  That identity holds at every point, not only at generic ones.
Products with j >= 2 have no coefficient there, since no excluded exponent
contains x2..xn, so the block built by excluded_block holds the 2(n+1)
rows (i, 0) and (i, 1).

Entry ((i, j), w) is u_i * c[u] for u = w - e_j + e_i, so excluded_block
walks the point's (u, c) pairs and looks no coefficient up: c*x^u lands on
w = u - e_i + e_j when x^u / x_i lies on {x0, x1} and w keeps x0, and an
integral c enters as an int, so integer points give integer blocks.  As c
is 0 on excluded u at a family point, the block's support (_block_support)
is a set of positions, read off each w's x0 degree and its degree off
{x0, x1} with no u built: the key rows (i, 0) and (i, 1) for i >= 2 on the
first d - 1 columns, where they form the banded key matrix, and the last
column x0*x1^(d-1), which also holds the spike of row (1, 0).
structural_rank_bound, the support's one reader, certifies from it that the
rank is at most ambient - d + 1 + min(d-1, 2n-2) at every family point, and
that rows (0, 0), (0, 1) and (1, 1) vanish off the last column, which is
the redundancy claim.  So wherever the spike is nonzero, the block's rank
is 1 + the key matrix's: every certificate ranks a point by key_rank, which
judges it too; differential_rank is its oracle.

The support's steps u are the face, the 1 + (n-1)*d non-excluded exponents
one product step from the excluded ones; face_exponents gives its closed
form, x1^d and x0^a*x1^(d-1-a)*x_i for i >= 2.  So a point is sampled on
the face alone, and the degree-d monomial basis is never built.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import comb
from random import Random
from typing import Mapping, NamedTuple

from .errors import CertificateError, DomainError
from .linalg import RankReport, rank
from .poly import Exponent, HomogPoly, RatLike, check_domain

# The key rows of the block are (i, 0) and (i, 1) for i >= _KEY_I, block
# rows 2 * _KEY_I onward.
_KEY_I = 2


def excluded_exponents(n: int, d: int) -> tuple[Exponent, ...]:
    """The d excluded exponents x0^(d-k)*x1^k, 0 <= k <= d-1, descending
    graded-lex (x0^d first)."""
    check_domain(n, d)
    return tuple((d - k, k) + (0,) * (n - 1) for k in range(d))


def _excluded(u: Exponent) -> bool:
    """Whether a degree-d exponent is excluded: it holds x0 and lies on
    {x0, x1}."""
    return u[0] > 0 and not any(u[2:])


def _block_support(n: int, d: int) -> set[tuple[int, int, int]]:
    """The block positions (i, j, k) that can be nonzero at some family
    point, c being 0 on excluded u: for every excluded w_k, j with
    w_k[j] >= 1 (every j is scanned) and i, those where u = w_k - e_j + e_i
    is not excluded, which w_k[0] and w_k's degree off {x0, x1} decide."""
    return {(i, j, k) for k, w in enumerate(excluded_exponents(n, d))
            for rest in [sum(w[2:])] for j in range(n + 1) if w[j]
            for i in range(n + 1)
            if not w[0] - (j == 0) + (i == 0) or rest - (j > 1) + (i > 1)}


@lru_cache(maxsize=1)  # every caller works on one (n, d) at a time
def face_exponents(n: int, d: int) -> tuple[Exponent, ...]:
    """The non-excluded terms that excluded_block can send onto an excluded
    exponent, in closed form: x1^d and x0^a*x1^(d-1-a)*x_i for
    0 <= a <= d-1 and i >= 2, 1 + (n-1)*d in all, descending graded-lex.
    The face only places samples, so a wrong one could cause a shortfall,
    never a false pass: every rank is bounded by the certified support."""
    check_domain(n, d)
    z = (0,) * (n - 1)
    spokes = [(a, d - 1 - a) + z[:i] + (1,) + z[i + 1:]
              for a in range(d) for i in range(n - 1)]
    return tuple(sorted([(0, d) + z] + spokes, reverse=True))


class FamilyPoint(namedtuple("FamilyPoint", "n d poly")):
    """A family member, held by its nonzero coefficients as a HomogPoly; a
    nonzero coefficient on an excluded exponent raises DomainError.  Like
    every record, it compares and hashes by value, and none of its fields
    can be reassigned."""

    __slots__ = ()

    def __new__(cls, n: int, d: int,
                coeffs: Mapping[Exponent, RatLike] | HomogPoly):
        check_domain(n, d)
        if isinstance(coeffs, HomogPoly):  # copy and pickle pass poly back
            coeffs = dict(coeffs.terms())
        poly = HomogPoly(n, d, coeffs)
        bad = [u for u in poly.support() if _excluded(u)]
        if bad:
            raise DomainError(f"nonzero coefficients on excluded exponents {bad}")
        return tuple.__new__(cls, (n, d, poly))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, so it validates like the constructor
        return cls(*iterable)

    def to_poly(self) -> HomogPoly:
        return self.poly


# Most sampled family members a certificate draws; a larger count adds
# nothing the maximum needs.  A verify-lemma sample at (5, 12) draws a
# point and ranks its key matrix in 0.25-0.48 ms (2-vCPU Xeon, Python
# 3.11.7: in process, ten medians, each of 7 runs of 200 samples).  At
# (998, 2), the widest shape check_domain admits, one takes 87-97 ms on
# that machine (medians of 5), so 1000 samples run for about 1.5 minutes.
MAX_SAMPLES = 1000


def check_samples(samples: int) -> None:
    """Reject a sample count below 1 or above MAX_SAMPLES."""
    if samples < 1:
        raise DomainError(f"samples must be positive, got {samples}")
    if samples > MAX_SAMPLES:
        raise DomainError(f"samples exceed the limit of {MAX_SAMPLES}")


def sample_family(n: int, d: int, rng: Random, bound: int = 1000) -> FamilyPoint:
    """Random family member, nonzero exactly on the face.

    One coefficient is drawn per face exponent, in descending graded-lex
    order, uniform on the nonzero integers in [-bound, bound].  Every
    certificate reads only the face: excluded_block, and with it the
    differential rank, the key matrix and the redundancy check, and the
    staircase initial form, under which every non-excluded monomial off the
    face weighs strictly less than x1^d.  A rank at any point bounds the generic rank
    from below, so a face point certifies as much as a dense one.
    """
    check_domain(n, d)
    if bound < 2:
        raise DomainError(f"bound must be at least 2, got {bound}")
    coeffs = {}
    for u in face_exponents(n, d):
        k = rng.randrange(2 * bound)
        coeffs[u] = k - bound if k < bound else k - bound + 1
    return FamilyPoint(n, d, coeffs)


def dominance_point(n: int, d: int) -> FamilyPoint:
    """The face point with c[x1^d] = 1, c[x0^(d-1-2k)*x1^(2k)*x_(k+2)] = 1
    for 0 <= k <= min(n-2, (d-1)//2), and 0 elsewhere.

    Key rows (k+2, 0) and (k+2, 1) are the unit vectors at columns 2k and
    2k+1, so the key rank is min(d-1, 2n-2), and row (1, 0) is the spike
    d on the last column: the point attains structural_rank_bound.
    """
    check_domain(n, d)
    coeffs = {tuple(d if i == 1 else 0 for i in range(n + 1)): 1}
    for k in range(min(n - 2, (d - 1) // 2) + 1):
        u = [0] * (n + 1)
        u[0], u[1], u[k + 2] = d - 1 - 2 * k, 2 * k, 1
        coeffs[tuple(u)] = 1
    return FamilyPoint(n, d, coeffs)


def excluded_block(point: FamilyPoint) -> tuple[tuple[RatLike, ...], ...]:
    """The 2(n+1) x d coefficients of the products (df/dx_i) * x_j with
    j <= 1 on the excluded exponents; row (i, j) is row 2*i + j, columns in
    excluded_exponents order.  Products with j >= 2 have none.

    Entry ((i, j), w) is u_i * c[u] for u = w - e_j + e_i when w_j >= 1,
    and 0 otherwise.  So each pair (u, c) of the point's terms is walked
    once, c made an int when it is integral, and sent to column w_1 for the
    i with x^u / x_i on {x0, x1} and the j with w_0 >= 1.  Excluded terms
    are walked too: a point built past the constructor's check shows.
    """
    block = [[0] * point.d for _ in range(2 * point.n + 2)]
    for u, c in point.poly.terms():
        rest = point.d - u[0] - u[1]  # u's degree off {x0, x1}
        if rest > 1:
            continue
        c = c.numerator if c.denominator == 1 else c
        for i in (0, 1) if rest == 0 else (u.index(1, 2),):
            for j in (0, 1):
                if u[i] and u[0] - (i == 0) + (j == 0):
                    block[2 * i + j][u[1] - (i == 1) + (j == 1)] = u[i] * c
    return tuple(map(tuple, block))


def key_matrix(point: FamilyPoint) -> tuple[tuple[RatLike, ...], ...]:
    """The (2n-2) x (d-1) block of product-generator coefficients on the
    excluded exponents other than x0*x1^(d-1): the key rows of the block
    without their last column.

    For each i in 2..n there are two rows: the coefficient run for the
    product with x0, then the same run shifted right once for the product
    with x1.  Columns follow x0^d, x0^(d-1)*x1, ..., x0^2*x1^(d-2).
    """
    return tuple(row[:-1] for row in excluded_block(point)[2 * _KEY_I:])


@lru_cache(maxsize=1)  # every caller works on one (n, d) at a time
def structural_rank_bound(n: int, d: int) -> int:
    """ambient - d + 1 + min(d-1, 2n-2), certified from the positions of the
    block's support (_block_support) as an upper bound for the differential
    rank at every family point; it is exact at generic points.

    Off the last column x0*x1^(d-1), the support must lie in the key rows
    and the first d - 1 columns, so the block's rank is at most 1 plus the
    smaller of the counts of rows and columns it meets there, which must
    equal 1 + min(d-1, 2n-2).  Every support position must also have
    j <= 1, the rows excluded_block keeps.  Else CertificateError is raised.
    """
    support = _block_support(n, d)
    stray = sorted((i, j, k) for i, j, k in support
                   if j > 1 or (k < d - 1 and i < _KEY_I))
    if stray:
        raise CertificateError(
            f"block support at n={n}, d={d} leaves the rows j <= 1, or off "
            f"the last column the key rows, at {stray}")
    body = [(i, j, k) for i, j, k in support if k < d - 1]
    rows = len({(i, j) for i, j, _k in body})
    cols = len({k for _i, _j, k in body})
    if min(rows, cols) != min(d - 1, 2 * n - 2):
        raise CertificateError(
            f"block support at n={n}, d={d} meets {rows} key rows and {cols} "
            f"columns, not min(d-1, 2n-2) = {min(d - 1, 2 * n - 2)}")
    return comb(n + d, d) - d + 1 + min(d - 1, 2 * n - 2)


def key_rank(point: FamilyPoint) -> tuple[int, RankReport]:
    """The key matrix's rank at point, and the report of the block's rank,
    ambient - d + 1 + the key rank: the one route to a certified rank.

    The support is certified first (structural_rank_bound): off the last
    column only the key rows of the block can be nonzero, so every other row
    is a multiple of the unit vector on that column, and row (1, 0) is the
    spike d*c[x1^d] times it.  Where the spike is nonzero it spans that
    vector, so rank(excluded_block(point)) = 1 + rank(key_matrix(point)).
    CertificateError is raised where c[x1^d] = 0, before any rank is taken,
    and at a rank past the bound; a shortfall is the caller's to judge.
    c[x1^d] is read from point.poly by exponent, and only tested for zero.
    """
    n, d = point.n, point.d
    bound = structural_rank_bound(n, d)
    if not point.poly.coeff((0, d) + (0,) * (n - 1)):
        raise CertificateError(
            f"c[x1^{d}] = 0 at n={n}, d={d}, so the point's block does not "
            f"rank 1 + its key matrix")
    key, ambient = rank(key_matrix(point)), comb(n + d, d)
    report = RankReport.of(ambient - d + 1 + key, ambient)
    if report.rank > bound:
        raise CertificateError(
            f"rank {report.rank} at n={n}, d={d} exceeds the structural "
            f"bound {bound}")
    return key, report


def differential_rank(point: FamilyPoint, mode: str = "exact",
                      rng: Random | None = None) -> RankReport:
    """Rank of the differential-image span among the degree-d forms,
    computed exactly as (ambient - d) + rank(excluded_block(point)): the
    general definition, valid where c[x1^d] = 0 too, and key_rank's oracle.

    Both accepted modes, "exact" and "probabilistic", run this one exact
    computation; rng is never drawn from.
    """
    if mode not in ("exact", "probabilistic"):
        raise ValueError(f"unknown rank mode {mode!r}")
    n, d = point.n, point.d
    ambient = comb(n + d, d)
    return RankReport.of(ambient - d + rank(excluded_block(point)), ambient)


class RedundancyReport(NamedTuple):
    ok: bool
    failures: tuple[tuple[int, int], ...]

    def __bool__(self) -> bool:
        return self.ok


def redundancy_check(point: FamilyPoint) -> RedundancyReport:
    """Confirm that products with i = 0, (i, j) = (1, 1), or j > 1 add nothing
    beyond the monomial generators and x0*x1^(d-1).

    Such a product lies in that span exactly when its coefficients vanish on
    the excluded exponents other than x0*x1^(d-1).  Products with j > 1 have
    no coefficient there, so the rows (0, 0), (0, 1) and (1, 1) of the
    block, those below the key rows but the spike (1, 0), are scanned;
    offenders are reported per (i, j) pair.  At a family point the check
    passes: structural_rank_bound certifies it for every point at once.
    """
    block = excluded_block(point)
    failures = tuple((i, j) for i in range(_KEY_I) for j in (0, 1)
                     if (i, j) != (1, 0) and any(block[2 * i + j][:-1]))
    return RedundancyReport(ok=not failures, failures=failures)
