"""End-to-end certificates for the degeneration threshold.

Existence side: for any degrees, a sampled member of the restricted family
together with the staircase weight vector has a two-term initial form with
disjoint supports and coprime exponents (a prime binomial); the bundle is
degeneration-grade evidence exactly when the attached dominance report is
surjective, which happens precisely up to the threshold d = 2n - 1.

Non-existence side (d > 2n - 1): the differential rank falls short of the
ambient dimension by a positive codimension at every sampled point, the
product generators beyond the structural list are confirmed redundant, and
every (prime pattern, variable ordering) stratum reduces into a coordinate
permutation of the restricted family via implied-inequality certificates.
"""

from __future__ import annotations

from itertools import compress
from math import factorial
from operator import sub
from random import Random
from typing import NamedTuple, Sequence

from .binomials import (BinomialPattern, PrimeVerdict, check_pattern_budget,
                        classify, pattern_from_poly, prime_pairs)
from .cones import chain_implies
from .errors import CertificateError, DomainError, GenericityError, NormalizationError
from .family import (
    FamilyPoint,
    _check_domain,
    differential_rank,
    dominance_point,
    excluded_exponents,
    redundancy_check,
    sample_family,
    structural_rank_bound,
)
from .linalg import RankReport
from .poly import Exponent, HomogPoly, WeightVector, initial_form, weight_vector


def witness_weight(n: int, d: int) -> WeightVector:
    """Strictly decreasing weights with (d-1)*w0 + w2 = d*w1.

    The fixed solution is (d, d-1, 0, -1, ..., -(n-2)); both properties are
    re-checked before returning.
    """
    _check_domain(n, d)
    w = weight_vector([d, d - 1] + [-k for k in range(n - 1)])
    if not all(a > b for a, b in zip(w, w[1:])):
        raise CertificateError(f"witness weight {w} is not strictly decreasing")
    if (d - 1) * w[0] + w[2] != d * w[1]:
        raise CertificateError(f"witness weight {w} breaks (d-1)*w0 + w2 = d*w1")
    return w


class WitnessBundle(NamedTuple):
    n: int
    d: int
    point: FamilyPoint
    omega: WeightVector
    initial: HomogPoly
    verdict: PrimeVerdict
    dominance: RankReport


def _spike_exponents(n: int, d: int) -> tuple[Exponent, Exponent]:
    """The expected initial support: x1^d and x0^(d-1)*x2."""
    x1d = tuple(d if i == 1 else 0 for i in range(n + 1))
    lead = tuple(d - 1 if i == 0 else (1 if i == 2 else 0) for i in range(n + 1))
    return x1d, lead


_RESAMPLE_BUDGET = 5

# Most sampled family members a certificate draws; each costs a rank, about
# 2.7 ms at (5, 12), and a larger count adds nothing the maximum needs.
MAX_SAMPLES = 1000


def check_samples(samples: int) -> None:
    """Reject a sample count below 1 or above MAX_SAMPLES."""
    if samples < 1:
        raise DomainError(f"samples must be positive, got {samples}")
    if samples > MAX_SAMPLES:
        raise DomainError(f"samples exceed the limit of {MAX_SAMPLES}")


def _generic_point(n: int, d: int, rng: Random,
                   bound: int) -> tuple[FamilyPoint, RankReport]:
    """Sample until the differential rank meets the structural bound; after
    1 + _RESAMPLE_BUDGET draws that miss it, raise GenericityError."""
    target = structural_rank_bound(n, d)
    for _ in range(1 + _RESAMPLE_BUDGET):
        point = sample_family(n, d, rng, bound)
        report = differential_rank(point)
        if report.rank == target:
            return point, report
    raise GenericityError(
        f"no generic sample at n={n}, d={d} after {_RESAMPLE_BUDGET} resamples")


def existence_witness(n: int, d: int, rng: Random,
                      bound: int = 1000) -> WitnessBundle:
    """Sampled family member whose initial form is a prime binomial.

    The point comes from _generic_point, so its dominance report meets the
    structural rank bound (surjective iff d <= 2n - 1).  The initial form is
    recomputed from scratch and must be supported on x1^d and x0^(d-1)*x2
    with a Prime verdict, or CertificateError is raised: every face
    coefficient is nonzero, and only those two monomials reach the top
    weight d(d-1), so a failure is a fault, not bad luck in the draw.
    """
    _check_domain(n, d)
    omega = witness_weight(n, d)
    point, report = _generic_point(n, d, rng, bound)
    init = initial_form(point.to_poly(), omega)
    if set(init.support()) != set(_spike_exponents(n, d)):
        raise CertificateError(
            f"initial form on {init.support()} is not x1^d + x0^(d-1)*x2")
    verdict = classify(pattern_from_poly(init))
    if not verdict.is_prime:
        raise CertificateError(f"initial form {init} is {verdict.tag}")
    return WitnessBundle(n=n, d=d, point=point, omega=omega,
                         initial=init, verdict=verdict, dominance=report)


def dominance_certificate(n: int, d: int) -> RankReport:
    """Exact differential-rank report at dominance_point(n, d).

    A rank at any point is a lower bound for the generic rank, and the
    structural bound is an upper one, so a report that reaches the bound
    gives the generic rank; a surjective one certifies that the image of the
    construction fills a dense open subset of the degree-d coefficient
    space.  Raises CertificateError unless the rank meets the bound.
    """
    report = differential_rank(dominance_point(n, d))
    target = structural_rank_bound(n, d)
    if report.rank != target:
        raise CertificateError(
            f"rank {report.rank} at the dominance point of n={n}, d={d} "
            f"misses the structural bound {target}")
    return report


# ---------------------------------------------------------------------------
# strata reduction

def _support(u: Exponent) -> tuple[int, ...]:
    return tuple(compress(range(len(u)), u))


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
    return tuple(map(sub, u, v))


def _cone_within(u: Exponent, v: Exponent, cu: Exponent, cv: Exponent) -> bool:
    """Certify that every weight compatible with u / v is compatible with
    cu / cv.

    The chain parts coincide, so only the candidate's balance equality needs
    to hold identically on the cone of u / v (both implied directions).
    """
    h, hc = _diff(u, v), _diff(cu, cv)
    return chain_implies(h, hc) and chain_implies(h, tuple(-a for a in hc))


def _normalize(u: Exponent, v: Exponent) -> tuple[Exponent, Exponent]:
    """Swap the leading term's last index l with the other term's first index q.

    Called when l < q.  On the chain, weight(lead) >= d*w_l >= d*w_q >=
    weight(other), and the balance makes the two ends equal, so every
    compatible weight is constant on the run from the smallest index p to
    the other term's last index.  The swap stays inside that run, fixes every
    compatible weight, and so maps the stratum of u / v into the stratum of
    the swapped pattern.  That pattern is normalized: a leading term with two
    or more variables keeps p and now reaches q, past the other term's new
    first index l; a pure power x_p^d hands p to the other term, which
    primality gives two or more variables, so it reaches past q.  Both facts
    are re-checked, by _is_normalized and by implied equalities.
    """
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
    """Run the reduction checks on the identity-ordered pattern u / v, with
    x1d = x1^d and the excluded exponents built once by the caller."""
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
    return x1d, frozenset(excluded_exponents(n, d).members)


def strata_reduction_check(n: int, d: int, g: BinomialPattern,
                           ordering: Sequence[int]) -> bool:
    """Certify that the stratum of forms with initial form g (under weights
    compatible with the ordering) lies in a coordinate permutation of the
    restricted family.

    After relabeling the ordering to the identity and, if the leading term
    lies wholly below the other term, swapping its last index with the other
    term's first one (see _normalize), the check demands: no excluded
    exponent coincides with a monomial of g, and x1^d weighs at least the
    other term on the compatible cone (every excluded exponent outweighs
    x1^d on any cone with w0 >= w1).  Raises DomainError unless the ordering
    is a permutation of 0..n, and NormalizationError when the swapped
    pattern fails its re-check.
    """
    _check_domain(n, d)
    if not classify(g).is_prime:
        raise DomainError("strata reduction applies to prime patterns only")
    if g.d != d or g.n != n:
        raise DomainError(f"pattern shape ({g.n},{g.d}) vs given ({n},{d})")
    if sorted(ordering) != list(range(n + 1)):
        raise DomainError(
            f"ordering {tuple(ordering)} is not a permutation of 0..{n}")
    return _check_pattern(_relabel(g.u, ordering), _relabel(g.v, ordering),
                          *_check_constants(n, d))


class StrataSurvey(NamedTuple):
    n: int
    d: int
    checked: int
    full: bool
    passed: bool
    failures: tuple[tuple[Exponent, Exponent, tuple[int, ...], str], ...]


def strata_survey(n: int, d: int, full: bool = True) -> StrataSurvey:
    """Run the strata reduction check on every (prime pattern, ordering)
    stratum.

    Relabeling by an ordering maps the prime patterns onto themselves, since
    disjoint supports and a joint gcd of 1 survive any permutation of the
    variables, and the check is symmetric in the two monomials.  So the
    strata under all (n+1)! orderings are the identity-ordered strata of the
    patterns, each met (n+1)! times: every pattern is checked once, in
    identity order, as it streams from prime_pairs, and `checked` counts
    patterns x (n+1)!.  The streamed count must equal the closed-form count
    that decided the pattern budget, or CertificateError is raised.  A
    failure is reported as (u, v, identity ordering, reason).  The survey is
    always full; `full` is kept for callers that pass True, and any other
    value raises DomainError.
    """
    _check_domain(n, d)
    if full is not True:
        raise DomainError("the strata survey is always full")
    expected = check_pattern_budget(n, d)
    x1d, excluded = _check_constants(n, d)
    identity = tuple(range(n + 1))
    count = 0
    failures = []
    for u, v in prime_pairs(n, d):
        count += 1
        try:
            ok, reason = _check_pattern(u, v, x1d, excluded), ""
        except NormalizationError as exc:
            ok, reason = False, str(exc)
        if not ok:
            failures.append((u, v, identity, reason))
    if count != expected:
        raise CertificateError(
            f"{count} prime patterns generated at n={n}, d={d}, but the "
            f"closed form counts {expected}")
    return StrataSurvey(n=n, d=d, checked=count * factorial(n + 1),
                        full=True, passed=not failures,
                        failures=tuple(failures))


# ---------------------------------------------------------------------------
# non-existence and the sweep

class NonexistenceReport(NamedTuple):
    n: int
    d: int
    codim_bound: int
    sampled_codims: tuple[int, ...]
    redundancy_ok: bool
    strata_checked: int
    strata_full: bool
    strata_reduced: bool


def nonexistence_certificate(n: int, d: int, samples: int, rng: Random,
                             bound: int = 1000) -> NonexistenceReport:
    """Certificate that past the threshold no dense open set degenerates.

    Records the positive codimension bound d - 2n + 1, confirms the sampled
    differential codimension equals it exactly, confirms generator
    redundancy, and reduces every (prime pattern, ordering) stratum into a
    permuted copy of the restricted family with the full strata survey, at
    every (n, d) the ambient and pattern budgets admit.  The random source
    feeds the family samples only.
    """
    _check_domain(n, d)
    if d <= 2 * n - 1:
        raise DomainError(f"need d > 2n-1, got n={n}, d={d}")
    check_samples(samples)
    check_pattern_budget(n, d)
    codim_bound = d - 2 * n + 1
    sampled = []
    for _ in range(samples):
        point, report = _generic_point(n, d, rng, bound)
        if report.codim != codim_bound:
            raise CertificateError(
                f"sampled codim {report.codim} != bound {codim_bound}")
        red = redundancy_check(point)
        if not red.ok:
            raise CertificateError(
                f"redundant generators leak onto excluded monomials: {red.failures}")
        sampled.append(report.codim)
    survey = strata_survey(n, d)
    if not survey.passed:
        raise CertificateError(
            f"strata reduction failed first at {survey.failures[0]}")
    return NonexistenceReport(n=n, d=d, codim_bound=codim_bound,
                              sampled_codims=tuple(sampled),
                              redundancy_ok=True,
                              strata_checked=survey.checked,
                              strata_full=survey.full,
                              strata_reduced=True)


class SweepRow(NamedTuple):
    n: int
    d: int
    ambient: int
    generic_rank: int
    codim: int
    degenerable: bool


def sweep_row_matches(row: SweepRow) -> bool:
    return row.degenerable == (row.d <= 2 * row.n - 1)


def threshold_sweep(n_max: int, d_max: int,
                    strict: bool = True) -> list[SweepRow]:
    """Dominance certificates over the grid 2 <= n <= n_max, 2 <= d <= d_max.

    Each row is degenerable exactly when the dominance report is surjective;
    in strict mode a row contradicting the d <= 2n - 1 threshold raises
    CertificateError.  Nothing is sampled.
    """
    if n_max < 2 or d_max < 2:
        raise DomainError("need n_max >= 2 and d_max >= 2")
    _check_domain(n_max, d_max)  # the largest grid point bounds all others
    rows = []
    for n in range(2, n_max + 1):
        for d in range(2, d_max + 1):
            report = dominance_certificate(n, d)
            row = SweepRow(n=n, d=d, ambient=report.ambient,
                           generic_rank=report.rank, codim=report.codim,
                           degenerable=report.surjective)
            if strict and not sweep_row_matches(row):
                raise CertificateError(
                    f"threshold violated at n={n}, d={d}: {row}")
            rows.append(row)
    return rows
