from collections import Counter
from fractions import Fraction
from math import gcd
from random import Random

import pytest

from toricdegen import (
    BinomialPattern,
    CertificateError,
    DegreeError,
    DimensionMismatchError,
    DomainError,
    HomogPoly,
    PrimeVerdict,
    classify,
    classify_poly,
    enumerate_patterns,
    parse_poly,
    pattern_from_poly,
)
from toricdegen.binomials import (check_listing_budget, count_prime_patterns,
                                  prime_pairs, shape_pattern_count)
from helpers import (_support, brute_prime_pairs, check_record, monomial,
                     multiply, ordered_prime_pairs, pattern_poly, permute_poly,
                     shape_count, support_shapes)


def pat(u, v, a=1, b=1):
    return BinomialPattern(tuple(u), tuple(v), a, b)


class TestClassify:
    def test_prime_example(self):
        assert classify(pat((0, 3, 0), (2, 0, 1))).tag == "Prime"

    def test_proper_power(self):
        verdict = classify(pat((2, 0, 0), (0, 2, 0)))
        assert verdict.tag == "ProperPower" and verdict.power == 2

    def test_shared_variable(self):
        assert classify(pat((1, 1, 0), (1, 0, 1))).tag == "SharedVariable"

    def test_two_variables_always_power(self):
        verdict = classify(pat((3, 0), (0, 3)))
        assert verdict.tag == "ProperPower" and verdict.power == 3

    def test_swap_and_scale_invariance(self):
        rng = Random(1)
        for g in enumerate_patterns(2, 3) + [pat((2, 0, 0), (0, 2, 0)),
                                             pat((1, 1, 0), (1, 0, 1))]:
            base = classify(g)
            swapped = BinomialPattern(g.v, g.u, g.b, g.a)
            assert classify(swapped) == base
            scaled = BinomialPattern(g.u, g.v,
                                     g.a * Fraction(rng.randint(1, 9)),
                                     g.b * Fraction(-3, 7))
            assert classify(scaled) == base

    def test_permutation_invariance(self):
        rng = Random(2)
        for g in enumerate_patterns(2, 4)[:10]:
            perm = list(range(3))
            rng.shuffle(perm)
            permuted = pattern_from_poly(
                permute_poly(pattern_poly(g), tuple(perm)))
            assert classify(permuted).tag == classify(g).tag

    def test_invalid_patterns_rejected(self):
        with pytest.raises(DegreeError):
            pat((1, 0), (1, 0))
        with pytest.raises(DegreeError):
            pat((2, 0), (1, 0))
        with pytest.raises(DegreeError):
            pat((1, 0), (0, 1), a=0)

    def test_empty_exponents_are_not_distinct(self):
        # the negative-entry scan must not trip on an empty exponent
        with pytest.raises(DegreeError, match="must be distinct"):
            pat((), ())

    @pytest.mark.parametrize("u,v", [((5, -1, 0), (0, 0, 4)),
                                     ((0, 0, 4), (5, -1, 0)),
                                     ((5, 0, -1), (0, 0, 4)),
                                     ((0, 0, 4), (5, 0, -1))])
    def test_negative_exponent_rejected(self, u, v):
        # the same error HomogPoly raises for the same exponent
        with pytest.raises(DegreeError, match="negative exponent in"):
            pat(u, v)


class TestRecords:
    def test_prime_verdict(self):
        verdict = check_record(PrimeVerdict, {"tag": "ProperPower", "power": 3},
                               defaults={"power": None})
        assert not verdict.is_prime
        assert PrimeVerdict("Prime").is_prime
        assert verdict != PrimeVerdict("ProperPower", 2)

    def test_binomial_pattern(self):
        g = check_record(BinomialPattern,
                         {"u": (1, 0, 2), "v": (0, 3, 0), "a": Fraction(2),
                          "b": Fraction(-1, 2)},
                         defaults={"a": Fraction(1), "b": Fraction(1)})
        assert g != BinomialPattern((1, 0, 2), (0, 3, 0), 2, -1)
        assert g != BinomialPattern((0, 3, 0), (1, 0, 2), 2, Fraction(-1, 2))
        assert len({g, BinomialPattern([1, 0, 2], [0, 3, 0], 2, Fraction(-1, 2))}) == 1

    def test_binomial_pattern_converts(self):
        g = BinomialPattern([1, 0, 2], [0, 3, 0], 2, -1)
        assert g.u == (1, 0, 2) and g.v == (0, 3, 0)
        assert type(g.a) is Fraction and type(g.b) is Fraction
        assert (g.n, sum(g.u)) == (2, 3)

    def test_binomial_pattern_repr(self):
        assert repr(BinomialPattern((1, 0, 2), (0, 3, 0))) == (
            "BinomialPattern(u=(1, 0, 2), v=(0, 3, 0), a=Fraction(1, 1), "
            "b=Fraction(1, 1))")
        assert repr(BinomialPattern((1, 0, 2), (0, 3, 0), 2, Fraction(-1, 2))) == (
            "BinomialPattern(u=(1, 0, 2), v=(0, 3, 0), a=Fraction(2, 1), "
            "b=Fraction(-1, 2))")

    def test_binomial_pattern_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            BinomialPattern((1, 0), (0, 0, 1))

    def test_binomial_pattern_replace_validates(self):
        # _replace builds through _make, which runs the constructor
        with pytest.raises(DimensionMismatchError):
            BinomialPattern((1, 0, 2), (0, 3, 0))._replace(u=(5, 5))


class TestClassifyPoly:
    def test_not_two_terms(self):
        f = parse_poly("x0^2 + x0*x1 + x1^2", 1, 2)
        assert classify_poly(f).tag == "NotTwoTerms"
        assert classify_poly(monomial((2, 0))).tag == "NotTwoTerms"

    def test_prime_poly(self):
        assert classify_poly(parse_poly("x1^3 + x0^2*x2", 2, 3)).tag == "Prime"


class TestFactorizationWitnesses:
    """Non-prime verdicts come with explicit factorizations, checked exactly."""

    def test_shared_variable_has_monomial_factor(self):
        for g in [pat((1, 1, 0), (1, 0, 1)), pat((2, 1, 0), (1, 0, 2), 3, -5)]:
            verdict = classify(g)
            assert verdict.tag == "SharedVariable"
            shared = next(i for i, (x, y) in enumerate(zip(g.u, g.v))
                          if x > 0 and y > 0)
            e = tuple(1 if i == shared else 0 for i in range(g.n + 1))
            reduced = HomogPoly(g.n, sum(g.u) - 1, {
                tuple(a - b for a, b in zip(g.u, e)): g.a,
                tuple(a - b for a, b in zip(g.v, e)): g.b,
            })
            assert multiply(monomial(e), reduced) == pattern_poly(g)

    def test_proper_power_difference_factors(self):
        # with coefficients 1, -1 a joint gcd k factors as A^k - B^k
        for g in [pat((2, 0, 0), (0, 2, 0), 1, -1),
                  pat((3, 0), (0, 3), 1, -1),
                  pat((4, 0, 0), (0, 2, 2), 1, -1)]:
            verdict = classify(g)
            assert verdict.tag == "ProperPower"
            k = verdict.power
            a_exp = tuple(e // k for e in g.u)
            b_exp = tuple(e // k for e in g.v)
            a = monomial(a_exp)
            b = monomial(b_exp)
            linear = HomogPoly(g.n, sum(a_exp), {a_exp: 1, b_exp: -1})
            terms = {}
            for i in range(k):
                piece = monomial(tuple(0 for _ in a_exp))
                for _ in range(i):
                    piece = multiply(piece, a)
                for _ in range(k - 1 - i):
                    piece = multiply(piece, b)
                for u, c in piece.terms():
                    terms[u] = terms.get(u, 0) + c
            cofactor = HomogPoly(g.n, (k - 1) * sum(a_exp), terms)
            assert multiply(linear, cofactor) == pattern_poly(g)


class TestEnumerate:
    def test_n2_d2_exact_patterns(self):
        pats = enumerate_patterns(2, 2)
        as_sets = {frozenset((g.u, g.v)) for g in pats}
        assert as_sets == {
            frozenset(((2, 0, 0), (0, 1, 1))),
            frozenset(((0, 2, 0), (1, 0, 1))),
            frozenset(((0, 0, 2), (1, 1, 0))),
        }
        assert len(pats) == 3

    def test_one_variable_pair_empty(self):
        for d in (2, 3, 4, 5):
            assert enumerate_patterns(1, d) == []

    def test_matches_brute_force_small(self):
        for n in (1, 2, 3):
            for d in (2, 3, 4):
                got = {frozenset((g.u, g.v)) for g in enumerate_patterns(n, d)}
                assert got == brute_prime_pairs(n, d)

    def test_ordering_and_coefficients(self):
        for g in enumerate_patterns(2, 3):
            assert g.u > g.v  # graded-lex earlier exponent first
            assert (g.a, g.b) == (1, -1)

    def test_structural_facts(self):
        for n, d in [(2, 3), (3, 3), (2, 4)]:
            for g in enumerate_patterns(n, d):
                support = [i for i in range(n + 1) if g.u[i] or g.v[i]]
                assert len(support) >= 3
                assert not any(x > 0 and y > 0 for x, y in zip(g.u, g.v))
                joint = 0
                for e in (*g.u, *g.v):
                    joint = gcd(joint, e)
                assert joint == 1

    def test_listing_budget(self, monkeypatch):
        import toricdegen.binomials as binomials
        # 2 * 6 * 77,910 = 934,920 exponent entries: admitted
        assert check_listing_budget(5, 11) == 77910
        monkeypatch.setattr(binomials, "iter_exponents", None)  # never reached
        with pytest.raises(DomainError, match="13189428 exponent entries of "
                                              "the 942102 prime patterns at "
                                              "n=6, d=12 exceed the limit of "
                                              "1000000"):
            enumerate_patterns(6, 12)
        for n, d in [(30, 2), (40, 2)]:
            with pytest.raises(DomainError, match="exponent entries"):
                enumerate_patterns(n, d)
        # C(80, 40) monomials: rejected before any count is taken
        with pytest.raises(DomainError, match="ambient dimension"):
            enumerate_patterns(40, 40)

    def test_short_listing_is_a_certificate_failure(self, monkeypatch):
        import toricdegen.binomials as binomials
        pairs = binomials.prime_pairs
        monkeypatch.setattr(binomials, "prime_pairs",
                            lambda n, d: list(pairs(n, d))[1:])
        with pytest.raises(CertificateError, match="5 prime patterns listed "
                                                   "at n=2, d=3, but the "
                                                   "closed form counts 6"):
            enumerate_patterns(2, 3)

    def test_shared_coefficients(self):
        pats = enumerate_patterns(3, 4)
        assert all(g.a is pats[0].a and g.b is pats[0].b for g in pats)
        assert (type(pats[0].a), type(pats[0].b)) == (Fraction, Fraction)


class TestPrimePairs:
    @pytest.mark.parametrize("n", range(0, 5))
    def test_matches_pair_filter_in_order(self, n):
        for d in range(0, 10):
            expected = ordered_prime_pairs(n, d)
            assert list(prime_pairs(n, d)) == expected, (n, d)
            assert count_prime_patterns(n, d) == len(expected), (n, d)

    def test_matches_pair_filter_at_5_10(self):
        expected = ordered_prime_pairs(5, 10)
        assert list(prime_pairs(5, 10)) == expected
        assert count_prime_patterns(5, 10) == len(expected) == 49770

    @pytest.mark.parametrize("n,d,count", [
        (3, 7, 240), (4, 8, 2630), (5, 10, 49770), (5, 11, 77910),
        (6, 12, 942102), (6, 13, 1456434), (7, 14, 18128544),
        (30, 2, 107880), (40, 2, 335790)])
    def test_closed_form_counts(self, n, d, count):
        assert count_prime_patterns(n, d) == count

    def test_pattern_budget(self):
        # counting takes no budget of its own: the closed form reaches
        # (30, 3), with its 9,295,660 support shapes, and only the ambient
        # limit stops it
        assert shape_count(30, 3) == 9295660
        assert count_prime_patterns(30, 3) == 11291440
        with pytest.raises(DomainError, match="ambient dimension"):
            count_prime_patterns(40, 40)

    @pytest.mark.parametrize("n,d", [(-1, 3), (2, -1)])
    def test_negative_shape_rejected(self, n, d):
        with pytest.raises(DomainError, match="need n >= 0 and d >= 0"):
            count_prime_patterns(n, d)


class TestSupportShapes:
    @pytest.mark.parametrize("n,d,count", [
        (2, 4, 3), (3, 6, 19), (4, 9, 80), (5, 10, 286), (7, 14, 2997),
        (20, 2, 21945)])
    def test_closed_form_counts_the_generated_shapes(self, n, d, count):
        shapes = list(support_shapes(n, d))
        assert shape_count(n, d) == len(shapes) == len(set(shapes)) == count

    def test_shapes_are_disjoint_and_ordered(self):
        for lead, other in support_shapes(4, 3):
            assert not set(lead) & set(other)
            assert lead[0] < other[0]
            assert lead == tuple(sorted(lead)) and other == tuple(sorted(other))
            assert 1 <= len(lead) <= 3 and 1 <= len(other) <= 3
            assert len(lead) + len(other) > 2

    @pytest.mark.parametrize("n,d", [(3, 6), (4, 9), (5, 10)])
    def test_shape_counts_match_the_patterns(self, n, d):
        # prime_pairs grouped by support pair: every shape, with
        # shape_pattern_count patterns each, and nothing else
        streamed = Counter((_support(u), _support(v))
                           for u, v in prime_pairs(n, d))
        expected = {(lead, other): shape_pattern_count(d, len(lead), len(other))
                    for lead, other in support_shapes(n, d)}
        assert streamed == expected
