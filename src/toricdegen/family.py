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

A point is held by its face, the 1 + (n-1)*d non-excluded exponents one
product step from the excluded ones: the spike c[x1^d], and for each
i = 2..n the run of c[x0^(d-1-k)*x1^k*x_i], 0 <= k <= d-1.  Entry
((i, j), w) of the block is u_i * c[u] for u = w - e_j + e_i, and off the
face every such u is excluded, where c is 0.  So excluded_block is slices
of the face: rows (i, 0) for i >= 2 are the runs, rows (i, 1) the runs
shifted right once, where they form the banded key matrix on the first
d - 1 columns, and row (1, 0) is the spike d*c[x1^d] on the last column,
x0*x1^(d-1).  An integral coefficient is stored as an int, so integer
points give integer blocks.  The block's support (_block_support) is a set
of positions, read off each w's x0 degree and its degree off {x0, x1} with
no u built; structural_rank_bound, its one reader, certifies from it that
the rank is at most ambient - d + 1 + min(d-1, 2n-2) at every family point,
and that rows (0, 0), (0, 1) and (1, 1) vanish off the last column, which
is the redundancy claim.  So wherever the spike is nonzero, the block's
rank is 1 + the key matrix's: every certificate ranks a point by key_rank,
which judges it too; differential_rank is its oracle.  A point is sampled
on the face alone, and the degree-d monomial basis is never built.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import comb
from random import Random
from typing import Iterable, NamedTuple

# read through their modules: only to_poly runs poly, so a command that
# prints no polynomial never runs it
from . import domain, poly
from .errors import CertificateError, DimensionMismatchError, DomainError
from .linalg import RankReport, rank

# The key rows of the block are (i, 0) and (i, 1) for i >= _KEY_I, block
# rows 2 * _KEY_I onward.
_KEY_I = 2


def excluded_exponents(n: int, d: int) -> tuple[poly.Exponent, ...]:
    """The d excluded exponents x0^(d-k)*x1^k, 0 <= k <= d-1, descending
    graded-lex (x0^d first)."""
    domain.check_domain(n, d)
    return tuple((d - k, k) + (0,) * (n - 1) for k in range(d))


def _block_support(n: int, d: int) -> set[tuple[int, int, int]]:
    """The block positions (i, j, k) that can be nonzero at some family
    point, c being 0 on excluded u: for every excluded w_k, j with
    w_k[j] >= 1 (every j is scanned) and i, those where u = w_k - e_j + e_i
    is not excluded, which w_k[0] and w_k's degree off {x0, x1} decide."""
    return {(i, j, k) for k, w in enumerate(excluded_exponents(n, d))
            for rest in [sum(w[2:])] for j in range(n + 1) if w[j]
            for i in range(n + 1)
            if not w[0] - (j == 0) + (i == 0) or rest - (j > 1) + (i > 1)}


def _exact(c: poly.RatLike) -> poly.RatLike:
    """c as an int when it is integral, else as a Fraction.  An int is
    returned as it is, so an integer point never imports fractions."""
    if type(c) is int:
        return c
    from fractions import Fraction
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class FamilyPoint(namedtuple("FamilyPoint", "n d spike runs")):
    """A family member, held by its face: the spike c[x1^d], and for
    i = 2..n the run runs[i-2], whose k-th entry is c[x0^(d-1-k)*x1^k*x_i].
    An integral coefficient is stored as an int, any other as a Fraction.
    Like every record, it compares and hashes by value, and none of its
    fields can be reassigned."""

    __slots__ = ()

    def __new__(cls, n: int, d: int, spike: poly.RatLike,
                runs: Iterable[Iterable[poly.RatLike]]):
        domain.check_domain(n, d)
        runs = tuple(tuple(map(_exact, run)) for run in runs)
        if len(runs) != n - 1 or any(len(run) != d for run in runs):
            raise DimensionMismatchError(
                f"a point at n={n}, d={d} holds {n - 1} runs of {d} "
                f"coefficients, got lengths {[len(run) for run in runs]}")
        return tuple.__new__(cls, (n, d, _exact(spike), runs))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, so it validates like the constructor
        return cls(*iterable)

    def to_poly(self) -> poly.HomogPoly:
        """The point as a polynomial, for output and initial forms.  Its
        terms go in in descending graded-lex, the order HomogPoly keeps:
        column k of every run for k = 0..d-2, then x1^d, then column d-1;
        each exponent is copied once from one working list."""
        n, d = self.n, self.d
        u, terms = [0] * (n + 1), {}
        for k, column in enumerate(zip(*self.runs)):
            if k == d - 1:
                terms[(0, d) + (0,) * (n - 1)] = self.spike
            u[0], u[1] = d - 1 - k, k
            for i, c in enumerate(column, 2):
                u[i] = 1
                terms[tuple(u)] = c
                u[i] = 0
        return poly.HomogPoly(n, d, terms)


# Most sampled family members a certificate draws; a larger count adds
# nothing the maximum needs.  A verify-lemma sample at (5, 12) draws a
# point and ranks its key matrix in 0.15-0.24 ms (2-vCPU Xeon, Python
# 3.11.7: in process, ten medians, each of 7 runs of 200 samples).  At
# (998, 2), the widest shape domain.check_domain admits, one takes
# 4.1-4.6 ms on that machine (ten medians of 5), so 1000 samples run for
# about 5 s.
MAX_SAMPLES = 1000


def check_samples(samples: int) -> None:
    """Reject a sample count below 1 or above MAX_SAMPLES."""
    if samples < 1:
        raise DomainError(f"samples must be positive, got {samples}")
    if samples > MAX_SAMPLES:
        raise DomainError(f"samples exceed the limit of {MAX_SAMPLES}")


def sample_family(n: int, d: int, rng: Random, bound: int = 1000) -> FamilyPoint:
    """Random family member, nonzero exactly on the face.

    One coefficient is drawn per face coefficient, uniform on the nonzero
    integers in [-bound, bound], in descending graded-lex order of the face
    exponents: column k of every run (i = 2..n inside) for k = 0..d-2, then
    the spike, then column d-1.  Every certificate reads only the face:
    excluded_block, and with it the differential rank, the key matrix and
    the redundancy check, and the staircase initial form, under which every
    non-excluded monomial off the face weighs strictly less than x1^d.  A
    rank at any point bounds the generic rank from below, so a face point
    certifies as much as a dense one.
    """
    domain.check_domain(n, d)
    if bound < 2:
        raise DomainError(f"bound must be at least 2, got {bound}")
    values = [k - bound if k < bound else k - bound + 1
              for k in (rng.randrange(2 * bound)
                        for _ in range((n - 1) * d + 1))]
    spike = values.pop((n - 1) * (d - 1))
    return FamilyPoint(n, d, spike, (values[i::n - 1] for i in range(n - 1)))


def dominance_point(n: int, d: int) -> FamilyPoint:
    """The face point with c[x1^d] = 1, c[x0^(d-1-2k)*x1^(2k)*x_(k+2)] = 1
    for 0 <= k <= min(n-2, (d-1)//2), and 0 elsewhere: run k holds a 1 at
    column 2k where 2k < d.

    Key rows (k+2, 0) and (k+2, 1) are the unit vectors at columns 2k and
    2k+1, so the key rank is min(d-1, 2n-2), and row (1, 0) is the spike
    d on the last column: the point attains structural_rank_bound.
    """
    domain.check_domain(n, d)
    return FamilyPoint(n, d, 1, ([int(k == 2 * i) for k in range(d)]
                                 for i in range(n - 1)))


def excluded_block(
        point: FamilyPoint) -> tuple[tuple[poly.RatLike, ...], ...]:
    """The 2(n+1) x d coefficients of the products (df/dx_i) * x_j with
    j <= 1 on the excluded exponents; row (i, j) is row 2*i + j, columns in
    excluded_exponents order.  Products with j >= 2 have none.

    Entry ((i, j), w) is u_i * c[u] for u = w - e_j + e_i when w_j >= 1,
    and 0 otherwise, which is a slice of the face: rows (i, 0) for i >= 2
    are the runs, rows (i, 1) the runs shifted right once, row (1, 0) is
    d*c[x1^d] on the last column, and every other entry's u is excluded,
    where c is 0.
    """
    d = point.d
    zero = (0,) * d
    return (zero, zero, zero[1:] + (d * point.spike,), zero) + tuple(
        row for run in point.runs for row in (run, (0,) + run[:-1]))


def key_matrix(point: FamilyPoint) -> tuple[tuple[poly.RatLike, ...], ...]:
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
    """
    n, d = point.n, point.d
    bound = structural_rank_bound(n, d)
    if not point.spike:
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
