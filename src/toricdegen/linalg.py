"""Exact rational matrices: rank, span membership, coefficient vectors.

Rank runs fraction-free (Bareiss) elimination on an integer-scaled copy of
the matrix, so intermediate entries stay integral.  Span membership reduces
sparse rows (column -> value) against an echelon pivot set, exactly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd
from typing import Iterable, Sequence

from .errors import DimensionMismatchError
from .poly import Exponent, HomogPoly, RatLike, iter_exponents


class QMatrix:
    """Dense rational matrix (immutable)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable[RatLike]]):
        data = tuple(tuple(Fraction(e) for e in row) for row in entries)
        if data and any(len(row) != len(data[0]) for row in data):
            raise DimensionMismatchError("ragged rows")
        self.entries = data
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i]

    def transpose(self) -> "QMatrix":
        return QMatrix(zip(*self.entries)) if self.rows else QMatrix(())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"QMatrix({self.rows}x{self.cols})"


class MonomialBasis:
    """All degree-d exponents in n+1 variables, descending graded-lex."""

    __slots__ = ("n", "d", "exponents", "_index")

    def __init__(self, n: int, d: int):
        self.n = n
        self.d = d
        self.exponents: tuple[Exponent, ...] = tuple(iter_exponents(n, d))
        self._index = {u: k for k, u in enumerate(self.exponents)}

    def index_of(self, u: Exponent) -> int:
        return self._index[tuple(u)]

    def __len__(self) -> int:
        return len(self.exponents)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonomialBasis):
            return NotImplemented
        return (self.n, self.d) == (other.n, other.d)

    def __hash__(self) -> int:
        return hash((self.n, self.d))


@lru_cache(maxsize=None)
def basis(n: int, d: int) -> MonomialBasis:
    return MonomialBasis(n, d)


def to_vector(f: HomogPoly, B: MonomialBasis) -> tuple[Fraction, ...]:
    """Coefficient vector of f in basis order (zeros for absent monomials)."""
    if f.n != B.n or f.d != B.d:
        raise DimensionMismatchError(
            f"poly shape ({f.n},{f.d}) vs basis ({B.n},{B.d})")
    return tuple(f.coeff(u) for u in B.exponents)


def from_vector(vec: Sequence[RatLike], B: MonomialBasis) -> HomogPoly:
    if len(vec) != len(B):
        raise DimensionMismatchError(f"vector length {len(vec)} vs basis {len(B)}")
    return HomogPoly(B.n, B.d,
                     {u: Fraction(c) for u, c in zip(B.exponents, vec) if c})


@dataclass(frozen=True)
class RankReport:
    rank: int
    ambient: int
    codim: int
    surjective: bool
    method: str

    @classmethod
    def of(cls, rank: int, ambient: int, method: str) -> "RankReport":
        codim = ambient - rank
        return cls(rank=rank, ambient=ambient, codim=codim,
                   surjective=(codim == 0), method=method)


# ---------------------------------------------------------------------------
# dense rank

def _integer_rows(M: QMatrix | Sequence[Sequence[RatLike]]) -> list[list[int]]:
    entries = M.entries if isinstance(M, QMatrix) else \
        [[Fraction(e) for e in row] for row in M]
    out = []
    for row in entries:
        row = [Fraction(e) for e in row]
        scale = reduce(lambda a, b: a * b // gcd(a, b),
                       (c.denominator for c in row), 1)
        out.append([int(c * scale) for c in row])
    return out

def _rank_bareiss(rows: list[list[int]]) -> int:
    """Fraction-free elimination with column skipping; exact integer rank."""
    m = [row[:] for row in rows]
    nr = len(m)
    nc = len(m[0]) if m else 0
    rank = 0
    prev = 1
    pr = 0
    for pc in range(nc):
        piv = next((i for i in range(pr, nr) if m[i][pc]), None)
        if piv is None:
            continue
        if piv != pr:
            m[pr], m[piv] = m[piv], m[pr]
        pivot = m[pr][pc]
        for i in range(pr + 1, nr):
            row_i = m[i]
            factor = row_i[pc]
            if factor or pivot != prev:
                for j in range(pc + 1, nc):
                    row_i[j] = (pivot * row_i[j] - factor * m[pr][j]) // prev
            row_i[pc] = 0
        prev = pivot
        pr += 1
        rank += 1
        if pr == nr:
            break
    return rank


def rank(M: QMatrix | Sequence[Sequence[RatLike]]) -> int:
    """Exact rank over the rationals."""
    return _rank_bareiss(_integer_rows(M))


# ---------------------------------------------------------------------------
# sparse rows (dict col -> value)

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


def span_contains(v: Sequence[RatLike], rows: Iterable[Sequence[RatLike]]) -> bool:
    """True iff v is a rational linear combination of the given rows."""
    vec = {i: Fraction(e) for i, e in enumerate(v) if Fraction(e)}
    width = len(v)
    pivots: dict[int, SparseRow] = {}
    for row in rows:
        if len(row) != width:
            raise DimensionMismatchError(
                f"row length {len(row)} vs vector length {width}")
        sparse = {i: Fraction(e) for i, e in enumerate(row) if Fraction(e)}
        reduced = _reduce_sparse(sparse, pivots)
        if reduced:
            pivots[min(reduced)] = reduced
    return not _reduce_sparse(vec, pivots)
