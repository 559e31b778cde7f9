"""Exact rank of integer matrices, given as rows.

Every entry must be an int (operator.index admits it); a rational or a float
raises TypeError.  Rank runs fraction-free (Bareiss) elimination, so every
intermediate entry stays an int.  A caller holding a rational matrix scales
each row to integers first, which leaves the rank unchanged.
"""

from __future__ import annotations

from operator import index
from typing import Iterable, NamedTuple


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


def rank(rows: Iterable[Iterable[int]]) -> int:
    """Exact rank of the integer matrix with these rows: fraction-free
    elimination with column skipping.  All-zero rows are dropped first:
    they never hold a pivot."""
    m = [row for row in (list(map(index, row)) for row in rows) if any(row)]
    nr = len(m)
    nc = len(m[0]) if m else 0
    prev = 1
    pr = 0  # pivot row, and the rank found so far
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
        if pr == nr:
            break
    return pr
