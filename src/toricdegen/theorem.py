"""End-to-end certificates for the degeneration threshold.

Existence side: for any degrees, every sampled member of the restricted
family together with the staircase weight vector has a two-term initial
form with disjoint supports and coprime exponents (a prime binomial); the
bundle is degeneration-grade evidence exactly when the dominance report,
certified at the dominance point of (n, d), is surjective, which happens
precisely up to the threshold d = 2n - 1.

Non-existence side (d > 2n - 1): the block's exponent support certifies,
for every family point at once, that the differential rank is at most the
structural bound and that the product generators beyond the structural list
are redundant; the rank falls short of the ambient dimension by exactly the
positive codimension d - 2n + 1 at every sampled point; and every (prime
pattern, variable ordering) stratum reduces into a coordinate permutation
of the restricted family.  The reduction's chain certificates are linear in
the exponents, and whether they hold depends only on how the indices of the
two supports interleave, so they are checked once per class (case, |S|,
|T|) of support shapes, whose shapes are counted in closed form.
"""

from __future__ import annotations

from collections import Counter
from math import comb, factorial
from random import Random
from typing import Iterator, NamedTuple

# read through their modules, which run on first use: the sweep never
# classifies, so never runs binomials, and the survey never ranks, so never
# runs family or linalg
from . import binomials, family, linalg
from .errors import CertificateError, DomainError, GenericityError
from .poly import (MAX_AMBIENT, Exponent, HomogPoly, WeightVector,
                   check_domain, initial_form, weight_vector)


def witness_weight(n: int, d: int) -> WeightVector:
    """Strictly decreasing weights with (d-1)*w0 + w2 = d*w1.

    The fixed solution is (d, d-1, 0, -1, ..., -(n-2)); both properties are
    re-checked before returning.
    """
    check_domain(n, d)
    w = weight_vector([d, d - 1] + [-k for k in range(n - 1)])
    if not all(a > b for a, b in zip(w, w[1:])):
        raise CertificateError(f"witness weight {w} is not strictly decreasing")
    if (d - 1) * w[0] + w[2] != d * w[1]:
        raise CertificateError(f"witness weight {w} breaks (d-1)*w0 + w2 = d*w1")
    return w


class WitnessBundle(NamedTuple):
    n: int
    d: int
    point: family.FamilyPoint
    omega: WeightVector
    initial: HomogPoly
    verdict: binomials.PrimeVerdict
    dominance: linalg.RankReport


def _spike_exponents(n: int, d: int) -> tuple[Exponent, Exponent]:
    """The expected initial support: x1^d and x0^(d-1)*x2."""
    x1d = tuple(d if i == 1 else 0 for i in range(n + 1))
    lead = tuple(d - 1 if i == 0 else (1 if i == 2 else 0) for i in range(n + 1))
    return x1d, lead


_RESAMPLE_BUDGET = 5


def existence_witness(n: int, d: int, rng: Random,
                      bound: int = 1000) -> WitnessBundle:
    """A sampled family member whose initial form is a prime binomial, and
    dominance_certificate(n, d): the generic rank, which needs no sample.

    The initial form is computed from scratch and must be supported on x1^d
    and x0^(d-1)*x2 with a Prime verdict, or CertificateError is raised:
    every face coefficient is nonzero, and only those two monomials reach
    the top weight d(d-1), so any one draw serves and a failure is a fault.
    """
    omega = witness_weight(n, d)
    point = family.sample_family(n, d, rng, bound)
    init = initial_form(point.to_poly(), omega)
    if set(init.support()) != set(_spike_exponents(n, d)):
        raise CertificateError(
            f"initial form on {init.support()} is not x1^d + x0^(d-1)*x2")
    verdict = binomials.classify(binomials.pattern_from_poly(init))
    if not verdict.is_prime:
        raise CertificateError(f"initial form {init} is {verdict.tag}")
    return WitnessBundle(n=n, d=d, point=point, omega=omega,
                         initial=init, verdict=verdict,
                         dominance=dominance_certificate(n, d))


def dominance_certificate(n: int, d: int) -> linalg.RankReport:
    """Exact differential-rank report at dominance_point(n, d), whose rank
    is the generic rank, certified from both sides.

    The exact rank at the point bounds the generic rank from below, and
    structural_rank_bound, certified from the block's exponent support,
    bounds the rank at every family point from above; a report that reaches
    the bound therefore gives the generic rank, and a surjective one
    certifies that the image of the construction fills a dense open subset
    of the degree-d coefficient space.  Raises CertificateError unless the
    rank meets the bound, or the support fails to certify it.
    """
    report = family.differential_rank(family.dominance_point(n, d))
    target = family.structural_rank_bound(n, d)
    if report.rank != target:
        raise CertificateError(
            f"rank {report.rank} at the dominance point of n={n}, d={d} "
            f"misses the structural bound {target}")
    return report


# ---------------------------------------------------------------------------
# strata reduction, one class of support shapes at a time

def _chain_identity(lhs, chain) -> bool:
    """True iff lhs = sum a_k*(e_i - e_j) over (k, i, j) in chain, expanded
    coordinate by coordinate and exponent by exponent (a_k is the exponent
    of x_k, and lhs lists (i, k, c) for c*a_k*e_i), and every chain term is
    a nonnegative combination of steps e_m - e_(m+1): as a_k >= 1, i <= j.
    """
    total = Counter()
    for i, k, c in lhs:
        total[i, k] += c
    for k, i, j in chain:
        total[i, k] -= 1
        total[j, k] += 1
    return not any(total.values()) and all(i <= j for _k, i, j in chain)


def _swap_pair(lead, other) -> tuple[int, int]:
    """The lead's last index l and the other term's first index q."""
    return lead[-1], other[0]


def _check_shape(lead: tuple[int, ...],
                 other: tuple[int, ...]) -> tuple[bool, str]:
    """The reduction check for every identity-ordered prime pattern u / v
    with its lead u, the term holding the smallest index, on `lead` and v on
    `other`.  With h = u - v and d = sum_lead a_k = sum_other a_k:
    - when l < q (_swap_pair), d*(e_l - e_q) = h - sum_lead a_k (e_k - e_l)
      - sum_other a_k (e_q - e_k), at most 0 on the chain, so compatible
      weights have w_l = w_q and swapping x_l with x_q maps the stratum into
      the swapped shape's, which must be normalized: a lead reaching past
      the other term's first index.  Else (False, reason) is returned;
    - x1^d - x^v = sum_other a_k (e_1 - e_k), so x1^d outweighs the other
      term on the chain; it is nonnegative iff the other term avoids x0.
      With the lead reaching x2, neither term is excluded: every excluded
      exponent lies on {x0, x1} and holds x0.
    """
    l, q = _swap_pair(lead, other)
    if l < q:
        h_less_dlq = ([(k, k, 1) for k in lead] + [(l, k, -1) for k in lead]
                      + [(k, k, -1) for k in other] + [(q, k, 1) for k in other])
        chain = [(k, k, l) for k in lead] + [(k, q, k) for k in other]
        swap = {l: q, q: l}
        swapped = sorted(tuple(sorted(swap.get(i, i) for i in part))
                         for part in (lead, other))
        certified = _chain_identity(h_less_dlq, chain)
        if not (certified and swapped[0][-1] > swapped[1][0]):
            return False, (
                f"swapping x{l} and x{q} on shape {lead} / {other} " +
                ("does not normalize it" if certified else "is uncertified"))
        lead, other = swapped
    x1d_less_v = [(1, k, 1) for k in other] + [(k, k, -1) for k in other]
    return lead[-1] >= 2 and _chain_identity(
        x1d_less_v, [(k, 1, k) for k in other]), ""


def _representative(n: int, d: int,
                    *shape: tuple[int, ...]) -> tuple[Exponent, ...]:
    """One prime pattern of the shape: on each support, 1 at every index but
    the first, which takes the rest of d.  One support has two or more
    indices, so the entry 1 makes the pair coprime."""
    return tuple(tuple(d + 1 - len(s) if i == s[0] else int(i in s)
                       for i in range(n + 1)) for s in shape)


def _shape_classes(
        n: int, d: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """One representative (S, T) of each class (case, |S|, |T|) of the
    supports of the prime patterns of degree d in n+1 variables, with the
    number of shapes in the class: (S, T, count).

    S holds the smallest index, 1 <= |S|, |T| <= d, and the two are not both
    single variables, as x_i^d and x_j^d share the gcd d.  The s + t indices
    of a shape can be chosen in m = C(n+1, s+t) ways; the smallest goes to
    S, and C(s+t-1, s-1) ways remain to fill the rest of S.  In exactly one
    of them all of S lies below all of T (the swap case); the others have
    max S > min T (the no-swap case, which needs s >= 2).
    """
    for s in range(1, min(n + 1, d) + 1):
        for t in range(1 + (s == 1), min(n + 1 - s, d) + 1):
            m = comb(n + 1, s + t)
            yield tuple(range(s)), tuple(range(s, s + t)), m
            if s >= 2:
                yield ((0, *range(t + 1, s + t)), tuple(range(1, t + 1)),
                       m * (comb(s + t - 1, s - 1) - 1))


class StrataSurvey(NamedTuple):
    n: int
    d: int
    checked: int
    full: bool
    passed: bool
    failures: tuple[tuple[Exponent, Exponent, tuple[int, ...], str], ...]


def strata_survey(n: int, d: int, full: bool = True) -> StrataSurvey:
    """Run the strata reduction check on every (prime pattern, ordering)
    stratum, once per class (case, |S|, |T|) of support shapes.

    Relabeling by an ordering maps the prime patterns onto themselves, since
    disjoint supports and a joint gcd of 1 survive any permutation of the
    variables, and the check is symmetric in the two monomials.  So the
    strata under all (n+1)! orderings are the identity-ordered strata of the
    patterns, each met (n+1)! times.  One _check_shape covers a shape's
    shape_pattern_count patterns, and one representative covers its class
    from _shape_classes.  With l = max S and q = min T, the check's verdict
    cannot depend on which indices fill the class:
    1. both chain identities of _check_shape hold term by term whatever the
       index labels are;
    2. each chain direction i <= j reads k <= l for k in S, q <= k for k in
       T, and 1 <= k for the other term, and holds on every shape, because
       S holds the smallest index;
    3. the normalization test and lead[-1] >= 2 depend only on the case:
       when l > q, l >= 2; when l < q and |S| >= 2, the new lead's largest
       index is q > l > min S; when l < q and |S| = 1, max T > q > l.
    `checked` counts patterns x (n+1)!, and the patterns must add up to
    count_prime_patterns, or CertificateError is raised.  A failing class is
    reported through a representative pattern of its representative shape
    as (u, v, identity ordering, reason).  The survey is always full; `full`
    is kept for callers that pass True, and any other value raises
    DomainError.
    """
    check_domain(n, d)
    if full is not True:
        raise DomainError("the strata survey is always full")
    identity = tuple(range(n + 1))
    count = 0
    failures = []
    for lead, other, shapes in _shape_classes(n, d):
        count += shapes * binomials.shape_pattern_count(d, len(lead),
                                                        len(other))
        ok, reason = _check_shape(lead, other)
        if not ok:
            failures.append((*_representative(n, d, lead, other), identity,
                             reason))
    expected = binomials.count_prime_patterns(n, d)
    if count != expected:
        raise CertificateError(
            f"{count} prime patterns on the shape classes at n={n}, d={d}, "
            f"but the closed form counts {expected}")
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

    Records the positive codimension bound d - 2n + 1, certifies from the
    block's exponent support, before any sample is drawn, the rank upper
    bound and generator redundancy at every family point
    (structural_rank_bound), keeps only samples that meet that rank bound,
    whose codimension past the threshold is the codimension bound exactly,
    and reduces every (prime pattern, ordering) stratum into a permuted
    copy of the restricted family with the full strata survey, at every
    (n, d) the ambient limit admits.  The random source feeds the family
    samples only; a sample whose rank misses the structural bound is
    redrawn, and after 1 + _RESAMPLE_BUDGET such draws GenericityError is
    raised.
    """
    check_domain(n, d)
    if d <= 2 * n - 1:
        raise DomainError(f"need d > 2n-1, got n={n}, d={d}")
    family.check_samples(samples)
    target = family.structural_rank_bound(n, d)
    codim_bound = d - 2 * n + 1
    sampled = []
    for _ in range(samples):
        for _ in range(1 + _RESAMPLE_BUDGET):
            point = family.sample_family(n, d, rng, bound)
            report = family.differential_rank(point)
            if report.rank == target:
                break
        else:
            raise GenericityError(f"no generic sample at n={n}, d={d} "
                                  f"after {_RESAMPLE_BUDGET} resamples")
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


def threshold_sweep(n_max: int, d_max: int) -> list[SweepRow]:
    """Dominance certificates over the grid 2 <= n <= n_max, 2 <= d <= d_max.

    Each row is degenerable exactly when the dominance report is surjective,
    and a row contradicting the d <= 2n - 1 threshold raises
    CertificateError.  Nothing is sampled.  Each row builds a 2(n+1) x d
    block of (n+1)-entry exponents, so a grid whose rows hold more than
    MAX_AMBIENT exponent entries in all raises DomainError before any row.
    """
    check_domain(n_max, d_max)
    entries = (2 * sum((n + 1) ** 2 for n in range(2, n_max + 1))
               * sum(range(2, d_max + 1)))
    if entries > MAX_AMBIENT:
        raise DomainError(
            f"the sweep's blocks hold {entries} exponent entries, over the "
            f"limit of {MAX_AMBIENT}")
    rows = []
    for n in range(2, n_max + 1):
        for d in range(2, d_max + 1):
            report = dominance_certificate(n, d)
            row = SweepRow(n=n, d=d, ambient=report.ambient,
                           generic_rank=report.rank, codim=report.codim,
                           degenerable=report.surjective)
            if not sweep_row_matches(row):
                raise CertificateError(
                    f"threshold violated at n={n}, d={d}: {row}")
            rows.append(row)
    return rows
