"""Weight-vector cones and exact feasibility with strict inequalities.

Systems are homogeneous: every constraint compares a linear functional
<a, w> against zero (equality, weak >=, or strict >).  Feasibility is
decided exactly on integer rows: each constraint is scaled to integers and
carries its integer lineage over the originals.  Equalities are eliminated
by substitution, then Fourier-Motzkin elimination removes, one at a time,
each variable some constraint holds, a combined inequality being strict
when either parent is strict.  A feasible system yields a rational witness
by back-substitution (interval midpoints, bound+1 on an unbounded side, 0
on a variable no constraint holds, denominators cleared at the end); an
infeasible one yields a certificate: integer multipliers with gcd 1 on the
original constraints, summing them to the zero functional while
using at least one strict inequality positively, i.e. deriving 0 > 0.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence

from .binomials import BinomialPattern
from .errors import (CertificateError, DimensionMismatchError, DomainError,
                     SupportMismatchError)
from .poly import HomogPoly, RatLike

Functional = tuple[RatLike, ...]
CertEntry = tuple[str, int, int]  # (kind, index, multiplier)

# Most working constraints one Fourier-Motzkin step may produce, counted as
# lowers * uppers + passed before the step; solve raises DomainError past it.
# The largest systems the test suite solves reach 9,780.
MAX_FM_CONSTRAINTS = 20_000


def difference_functional(u: Sequence[int], v: Sequence[int]) -> Functional:
    """Functional whose value at w is weight(u) - weight(v), in integers."""
    if len(u) != len(v):
        raise DimensionMismatchError(f"lengths {len(u)} vs {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


class LinearSystem(namedtuple("LinearSystem",
                              "dim equalities weak_ineqs strict_ineqs")):
    __slots__ = ()

    def __new__(cls, dim: int, equalities: tuple[Functional, ...] = (),
                weak_ineqs: tuple[Functional, ...] = (),
                strict_ineqs: tuple[Functional, ...] = ()):
        for group in (equalities, weak_ineqs, strict_ineqs):
            for f in group:
                if len(f) != dim:
                    raise DimensionMismatchError(
                        f"functional {f} has length {len(f)}, expected {dim}")
        return super().__new__(cls, dim, equalities, weak_ineqs, strict_ineqs)

    def constraints(self) -> Iterable[tuple[str, int, Functional]]:
        for i, f in enumerate(self.equalities):
            yield "eq", i, f
        for i, f in enumerate(self.weak_ineqs):
            yield "weak", i, f
        for i, f in enumerate(self.strict_ineqs):
            yield "strict", i, f


class FeasibilityResult(NamedTuple):
    feasible: bool
    witness: tuple[RatLike, ...] | None = None
    certificate: tuple[CertEntry, ...] | None = None


def satisfies(system: LinearSystem, w: Sequence[RatLike]) -> bool:
    """Direct substitution check: equalities exact, strict ones strict."""
    if len(w) != system.dim:
        raise DimensionMismatchError(
            f"witness length {len(w)} vs dim {system.dim}")
    vals = [e if isinstance(e, (int, Fraction)) else Fraction(e) for e in w]

    def value(f: Functional) -> Fraction:
        return sum((a * b for a, b in zip(f, vals) if a), Fraction(0))

    return (all(value(f) == 0 for f in system.equalities)
            and all(value(f) >= 0 for f in system.weak_ineqs)
            and all(value(f) > 0 for f in system.strict_ineqs))


def verify_certificate(system: LinearSystem, cert: Sequence[CertEntry]) -> bool:
    """Expand a certificate and confirm it derives 0 > 0."""
    total = [Fraction(0)] * system.dim
    used_strict = False
    groups = {"eq": system.equalities, "weak": system.weak_ineqs,
              "strict": system.strict_ineqs}
    for kind, idx, mult in cert:
        mult = Fraction(mult)
        if kind not in groups or not 0 <= idx < len(groups[kind]):
            return False
        if kind != "eq" and mult < 0:
            return False
        if kind == "strict" and mult > 0:
            used_strict = True
        for j, a in enumerate(groups[kind][idx]):
            total[j] += mult * a
    return used_strict and all(t == 0 for t in total)


# ---------------------------------------------------------------------------
# solver
#
# A working row is an integer list: dim functional entries, then one lineage
# entry per original constraint (in constraints() order), each original first
# scaled to integers by the lcm of its denominators.  So row[:dim] equals
# sum row[dim + i] * scaled_i exactly, and every row is kept divided by the
# gcd of all its entries.


def _reduced(row: list[int]) -> list[int]:
    g = gcd(*row)
    return row if g < 2 else [e // g for e in row]


def _infeasible(system: LinearSystem, scales: list[int],
                lineage: list[int]) -> FeasibilityResult:
    """The 0 > 0 certificate a lineage carries, as integer multipliers with
    gcd 1, re-checked against the original system; CertificateError if it
    does not derive 0 > 0."""
    mults = _reduced([c * s for c, s in zip(lineage, scales)])
    entries = tuple((kind, idx, c) for (kind, idx, _f), c
                    in zip(system.constraints(), mults) if c)
    if not verify_certificate(system, entries):
        raise CertificateError(
            f"infeasibility certificate {entries} failed self-check")
    return FeasibilityResult(False, certificate=entries)


def solve(system: LinearSystem) -> FeasibilityResult:
    """Decide feasibility; produce a witness or an infeasibility certificate."""
    dim = system.dim
    originals = list(system.constraints())
    scales = [lcm(*(a.denominator for a in f)) for _kind, _i, f in originals]
    eqs: list[list[int]] = []
    active: list[tuple[list[int], bool]] = []
    for i, ((kind, _idx, f), s) in enumerate(zip(originals, scales)):
        lineage = [0] * len(originals)
        lineage[i] = 1
        row = [a.numerator * (s // a.denominator) for a in f] + lineage
        if kind == "eq":
            eqs.append(row)
        else:
            active.append((row, kind == "strict"))

    # each eliminated column with the functionals bounding it from below and
    # above, for back-substitution; an equality bounds its pivot both ways
    stack: list[tuple[int, list[list[int]], list[list[int]]]] = []

    # eliminate equalities by substitution: with the equality's sign chosen
    # to make its pivot p > 0 at index k, every row r becomes p*r - r[k]*eq
    while eqs:
        eq = eqs.pop(0)
        k = next((j for j in range(dim) if eq[j]), None)
        if k is None:
            continue  # 0 = 0
        if eq[k] < 0:
            eq = [-e for e in eq]
        p = eq[k]

        def substituted(row: list[int]) -> list[int]:
            c = row[k]
            if not c:
                return row
            return _reduced([p * a - c * b for a, b in zip(row, eq)])

        eqs = [substituted(row) for row in eqs]
        active = [(substituted(row), strict) for row, strict in active]
        stack.append((k, [eq[:dim]], [eq[:dim]]))

    # drop 0 >= 0; a 0 > 0 is a contradiction
    kept = []
    for row, strict in active:
        if any(row[:dim]):
            kept.append((row, strict))
        elif strict:
            return _infeasible(system, scales, row[dim:])
    active = kept

    # Fourier-Motzkin elimination over the columns some row holds, ascending;
    # a combination of rows holds no other column
    columns = sorted({j for row, _s in active
                      for j, a in enumerate(row[:dim]) if a})
    for k in columns:
        lowers = [c for c in active if c[0][k] > 0]
        uppers = [c for c in active if c[0][k] < 0]
        passed = [c for c in active if not c[0][k]]
        size = len(lowers) * len(uppers) + len(passed)
        if size > MAX_FM_CONSTRAINTS:
            raise DomainError(
                f"eliminating w{k} could leave {size} constraints, over the "
                f"limit of {MAX_FM_CONSTRAINTS}")
        stack.append((k, [row[:dim] for row, _s in lowers],
                      [row[:dim] for row, _s in uppers]))
        fresh: list[tuple[list[int], bool]] = []
        seen: set[tuple[tuple[int, ...], bool]] = set()
        for lo, lo_strict in lowers:
            for up, up_strict in uppers:
                a, b = -up[k], lo[k]
                combo = _reduced([a * x + b * y for x, y in zip(lo, up)])
                strict = lo_strict or up_strict
                func = combo[:dim]
                if not any(func):
                    if strict:
                        return _infeasible(system, scales, combo[dim:])
                    continue
                g = gcd(*func)
                key = (tuple(e // g for e in func), strict)
                if key in seen:
                    continue
                seen.add(key)
                fresh.append((combo, strict))
        active = passed + fresh

    # feasible: back-substitute; a column no row holds is 0
    values: dict[int, RatLike] = {}
    for k, lower_funcs, upper_funcs in reversed(stack):
        def bound(func: list[int]) -> Fraction:
            rest = sum((a * values.get(j, 0) for j, a in enumerate(func)
                        if j != k and a), Fraction(0))
            return -rest / func[k]

        lows = [bound(f) for f in lower_funcs]
        highs = [bound(f) for f in upper_funcs]
        if lows and highs:
            lo, hi = max(lows), min(highs)
            values[k] = (lo + hi) / 2
        elif lows:
            values[k] = max(lows) + 1
        elif highs:
            values[k] = min(highs) - 1
        else:
            values[k] = Fraction(0)

    witness = [values.get(j, 0) for j in range(dim)]
    scale = lcm(*(v.denominator for v in witness))
    witness = tuple(v * scale for v in witness)
    if not satisfies(system, witness):
        raise CertificateError(f"feasible witness {witness} failed self-check")
    return FeasibilityResult(True, witness=witness)


# ---------------------------------------------------------------------------
# the stratum of an initial form

def stratum_system(f: HomogPoly, g: BinomialPattern) -> LinearSystem:
    """Weights making g the initial form of f.

    Requires both monomials of g to appear in f with exactly the pattern's
    coefficients; every other monomial of f must fall strictly below them.
    """
    if f.n != g.n:
        raise DimensionMismatchError(f"ambient {f.n} vs {g.n}")
    if f.coeff(g.u) != g.a or f.coeff(g.v) != g.b:
        raise SupportMismatchError(
            "binomial monomials absent from f or coefficients differ")
    strict = tuple(difference_functional(g.u, w)
                   for w in f.support() if w not in (g.u, g.v))
    return LinearSystem(g.n + 1, (difference_functional(g.u, g.v),), (), strict)
