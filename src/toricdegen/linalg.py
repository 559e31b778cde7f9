"""Exact rational matrices and their rank.

Rank runs fraction-free (Bareiss) elimination on an integer-scaled copy of
the matrix, so intermediate entries stay integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd
from typing import Iterable, Sequence

from .errors import DimensionMismatchError
from .poly import RatLike


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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"QMatrix({self.rows}x{self.cols})"


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
