"""Exact rank of rational matrices, given as rows.

Entries are int or Fraction.  Rank runs fraction-free (Bareiss) elimination
on integer rows: a row of ints reaches it unscaled, and only a row holding a
Fraction is multiplied by the lcm of its denominators, so intermediate
entries stay integral, and integer rows never import fractions.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, NamedTuple, Sequence

from . import poly  # for its types only; never run here


class RankReport(NamedTuple):
    rank: int
    ambient: int
    codim: int
    surjective: bool
    method: str

    @classmethod
    def of(cls, rank: int, ambient: int) -> "RankReport":
        """The report of an exact rank."""
        codim = ambient - rank
        return cls(rank=rank, ambient=ambient, codim=codim,
                   surjective=(codim == 0), method="exact")


# ---------------------------------------------------------------------------
# dense rank

def _integer_rows(
        rows: Iterable[Iterable[poly.RatLike]]) -> list[Sequence[int]]:
    """Each row as integers: a row of ints unchanged, any other row scaled
    by the lcm of its entries' denominators."""
    out = []
    for row in rows:
        row = tuple(row)
        if not all(type(e) is int for e in row):
            from fractions import Fraction
            row = [Fraction(e) for e in row]
            scale = lcm(*(c.denominator for c in row))
            row = [c.numerator * (scale // c.denominator) for c in row]
        out.append(row)
    return out


def _rank_bareiss(rows: Iterable[Sequence[int]]) -> int:
    """Fraction-free elimination with column skipping; exact integer rank.
    All-zero rows are dropped first: they never hold a pivot."""
    m = [list(row) for row in rows if any(row)]
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


def rank(rows: Iterable[Iterable[poly.RatLike]]) -> int:
    """Exact rank over the rationals of the matrix with these rows."""
    return _rank_bareiss(_integer_rows(rows))
