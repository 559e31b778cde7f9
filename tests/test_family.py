import copy
import pickle
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb
from random import Random

import pytest

from toricdegen import (
    CertificateError,
    DimensionMismatchError,
    DomainError,
    FamilyPoint,
    HomogPoly,
    RankReport,
    RedundancyReport,
    classify_poly,
    differential_rank,
    dominance_point,
    excluded_block,
    excluded_exponents,
    initial_form,
    iter_exponents,
    key_matrix,
    rank,
    redundancy_check,
    sample_family,
    parse_poly,
    structural_rank_bound,
    sweep_row_matches,
    threshold_sweep,
    weight_of,
    witness_weight,
)
from toricdegen.domain import MAX_AMBIENT
from toricdegen.family import _block_support, key_rank
from helpers import (
    _excluded,
    apply_linear_change,
    block_support_reference,
    check_record,
    differential_generators,
    excluded_block_reference,
    face_exponents,
    face_point,
    family_caches,
    full_span_rank,
    monomial,
    patched_support,
    rank_sparse_exact,
    sample_family_reference,
    sparse_rows,
    step_reference,
)


def full_support_point(n, d, rng):
    """A family member, as a polynomial, with a nonzero coefficient on every
    non-excluded exponent, face or not."""
    excl = excluded_exponents(n, d)
    return HomogPoly(n, d, {u: rng.choice((-9, -4, -1, 1, 2, 7))
                            for u in iter_exponents(n, d) if u not in excl})


def third(point):
    """The point with every coefficient divided by 3."""
    return point._replace(spike=Fraction(point.spike, 3),
                          runs=[[Fraction(c, 3) for c in run]
                                for run in point.runs])


def in_span(poly, rows, n, d):
    """Span membership by rank: adding poly to rows leaves the rank as is."""
    base = sparse_rows(rows, n, d)
    return rank_sparse_exact(base + sparse_rows([poly], n, d)) == \
        rank_sparse_exact(base)


class TestExclusionSet:
    def test_n2_d3_members(self):
        excl = excluded_exponents(2, 3)
        assert excl == ((3, 0, 0), (2, 1, 0), (1, 2, 0))

    def test_pure_x1_power_not_member(self):
        for n in (2, 3, 4):
            for d in (2, 5, 9):
                x1d = tuple(d if i == 1 else 0 for i in range(n + 1))
                assert x1d not in excluded_exponents(n, d)

    def test_sizes_on_grid(self):
        for n in range(2, 6):
            for d in range(2, 13):
                assert len(excluded_exponents(n, d)) == d

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            excluded_exponents(1, 3)
        with pytest.raises(DomainError):
            excluded_exponents(2, 1)

    def test_oversized_ambient_rejected(self):
        # C(24, 17) = 346,104 is accepted; C(25, 17) = 1,081,575 is not
        assert len(excluded_exponents(7, 17)) == 17
        with pytest.raises(DomainError, match=str(MAX_AMBIENT)):
            sample_family(8, 17, Random(1))


class TestRecords:
    def test_rank_report(self):
        report = check_record(RankReport,
                              {"rank": 9, "ambient": 10, "codim": 1,
                               "surjective": False, "method": "exact"})
        assert RankReport.of(9, 10) == report
        assert RankReport.of(10, 10).surjective
        assert repr(report) == ("RankReport(rank=9, ambient=10, codim=1, "
                                "surjective=False, method='exact')")

    def test_redundancy_report(self):
        report = check_record(RedundancyReport,
                              {"ok": False, "failures": ((0, 2), (1, 1))})
        assert not report
        assert RedundancyReport(True, ())
        assert redundancy_check(sample_family(2, 3, Random(1))) == \
            RedundancyReport(ok=True, failures=())

    def test_family_point(self):
        point = sample_family(3, 5, Random(7))
        assert isinstance(point, tuple) and \
            point._fields == ("n", "d", "spike", "runs")
        assert type(point.runs) is tuple and len(point.runs) == 2
        assert all(type(run) is tuple and len(run) == 5 for run in point.runs)
        assert face_point(point.to_poly()) == point
        for name in point._fields:
            with pytest.raises(AttributeError):
                setattr(point, name, getattr(point, name))
        again = sample_family(3, 5, Random(7))
        assert again == point and hash(again) == hash(point)
        assert point != sample_family(3, 5, Random(8))
        thirds = FamilyPoint(3, 5, Fraction(1, 3), [[Fraction(1, 3)] * 5] * 2)
        assert {c for _u, c in thirds.to_poly().terms()} == {Fraction(1, 3)}
        for p in (point, thirds):
            for twin in (copy.copy(p), pickle.loads(pickle.dumps(p))):
                assert twin == p and hash(twin) == hash(p)
                assert type(twin) is FamilyPoint

    def test_replace_validates(self):
        # _replace builds through _make, which runs the constructor: left to
        # tuple.__new__, a (3, 5) point's two runs would stand at n = 2
        point = sample_family(3, 5, Random(1))
        with pytest.raises(DimensionMismatchError):
            point._replace(n=2, d=9)
        with pytest.raises(DimensionMismatchError):
            FamilyPoint._make((2, 9, point.spike, point.runs))
        with pytest.raises(DomainError):
            point._replace(n=1)
        assert FamilyPoint._make(point) == point

    def test_run_shape_is_checked(self):
        # n - 1 runs of d coefficients each, through the constructor and
        # through _replace alike
        point = sample_family(3, 5, Random(1))
        good = [list(run) for run in point.runs]
        for runs in (good[:1], good + good[:1], [good[0], good[1][:-1]],
                     [good[0], good[1] + [7]], []):
            with pytest.raises(DimensionMismatchError, match="2 runs of 5"):
                FamilyPoint(3, 5, point.spike, runs)
            with pytest.raises(DimensionMismatchError, match="2 runs of 5"):
                point._replace(runs=runs)
        assert FamilyPoint(3, 5, point.spike, good) == point

    def test_exclusion_set(self):
        # a plain tuple of exponent tuples, and membership in closed form:
        # an exponent is excluded when it holds x0 and lies on {x0, x1}
        for n, d in [(2, 3), (3, 5), (4, 2)]:
            excl = excluded_exponents(n, d)
            assert type(excl) is tuple and len(excl) == d
            assert all(type(u) is tuple for u in excl)
            for u in iter_exponents(n, d):
                assert _excluded(u) == (u in excl), (n, d, u)


class TestIntegerPath:
    GRID = [(2, 3), (2, 40), (3, 7), (5, 12), (7, 17)]

    def test_block_entries_are_int_at_samples(self):
        rng = Random(31)
        for n, d in self.GRID:
            point = sample_family(n, d, rng)
            for m in (excluded_block(point), key_matrix(point)):
                assert all(type(e) is int for row in m for e in row), (n, d)

    def test_rational_point_ranks_like_the_integral_one(self):
        rng = Random(32)
        for n, d in self.GRID:
            point = sample_family(n, d, rng)
            scaled = third(point)
            entries = [e for row in excluded_block(scaled) for e in row]
            assert any(type(e) is Fraction for e in entries)
            assert differential_rank(scaled) == differential_rank(point), (n, d)
            assert rank(key_matrix(scaled)) == rank(key_matrix(point)), (n, d)

    def test_coeff_types_and_list_exponents(self):
        # the block makes an integral coefficient's entries ints and keeps
        # the others Fractions; poly.coeff reads a list exponent too
        half = Fraction(5, 2)
        point = FamilyPoint(2, 3, 4, [[half, 0, 0]])
        assert _typed(excluded_block(point)) == _typed(
            ((0, 0, 0), (0, 0, 0), (0, 0, 12), (0, 0, 0), (half, 0, 0),
             (0, half, 0)))
        f = point.to_poly()
        assert f.coeff([0, 3, 0]) == 4
        assert f.coeff([2, 0, 1]) == half
        assert f.coeff([1, 1, 1]) == 0

    def test_integral_fractions_are_stored_as_ints(self):
        # so blocks at integral points stay all-int whatever built them
        point = FamilyPoint(2, 3, Fraction(6, 2), [[Fraction(6, 2), Fraction(3, 2), 0]])
        assert _typed([[point.spike], point.runs[0]]) == \
            _typed([[3], [3, Fraction(3, 2), 0]])
        assert type(point._replace(spike=Fraction(-8, 4)).spike) is int
        assert all(type(e) is int for row in excluded_block(
            point._replace(runs=[[Fraction(4, 2), 5, Fraction(0)]]))
            for e in row)


class TestFace:
    def test_face_is_what_excluded_block_reads(self):
        # by the definition, a one-term member has a nonzero block exactly
        # when its term is on the face, so the face is every term the block
        # can read, and the face point gives the block the definition does
        for n in range(2, 6):
            for d in range(2, 10):
                face = face_exponents(n, d)
                assert len(face) == 1 + (n - 1) * d
                for u in iter_exponents(n, d):
                    if u not in excluded_exponents(n, d):
                        block = excluded_block_reference(monomial(u))
                        assert any(map(any, block)) == (u in face), (n, d, u)
                        assert excluded_block(face_point(monomial(u))) == \
                            block, (n, d, u)

    def test_closed_form_in_descending_order(self):
        for n, d in [(2, 2), (3, 5), (5, 4)]:
            x1d = tuple(d if t == 1 else 0 for t in range(n + 1))
            spokes = [tuple(a if t == 0 else d - 1 - a if t == 1 else int(t == i)
                            for t in range(n + 1))
                      for a in range(d) for i in range(2, n + 1)]
            assert face_exponents(n, d) == \
                tuple(sorted([x1d] + spokes, reverse=True))


class TestBlockSupport:
    def test_support_is_the_nonzero_positions_of_sampled_blocks(self):
        rng = Random(3)
        for n in range(2, 7):
            for d in range(2, 15):
                block = excluded_block(sample_family(n, d, rng))
                nonzero = {(i, j, k) for i in range(n + 1) for j in (0, 1)
                           for k in range(d) if block[2 * i + j][k]}
                assert _block_support(n, d) == nonzero, (n, d)

    def test_support_maps_each_entry_to_its_step(self):
        # each position's step back from its excluded exponent exists and
        # is not excluded; the scan itself builds no step
        for n, d in [(2, 2), (3, 5), (5, 4)]:
            excl = excluded_exponents(n, d)
            for i, j, k in _block_support(n, d):
                assert excl[k][j] >= 1, (n, d, i, j, k)
                u = step_reference(excl[k], i, j)
                assert u not in excl, (n, d, i, j, k)

    @pytest.mark.parametrize("change, reason", [
        (lambda s: s | {(0, 0, 0)}, r"at \[\(0, 0, 0\)\]"),
        (lambda s: s | {(1, 1, 2)}, r"at \[\(1, 1, 2\)\]"),
        (lambda s: s | {(2, 2, 4)}, r"at \[\(2, 2, 4\)\]"),
        (lambda s: {key for key in s if key[2] != 3},
         "meets 4 key rows and 3 columns"),
    ], ids=["row-0-0", "row-1-1", "row-2-2", "no-column-3"])
    def test_a_stray_support_is_rejected(self, change, reason):
        # the bound is cached, so patched_support clears it both ways
        assert structural_rank_bound(3, 5) == comb(8, 5) - 5 + 1 + 4
        with patched_support(change):
            with pytest.raises(CertificateError, match=reason):
                structural_rank_bound(3, 5)
        assert structural_rank_bound(3, 5) == comb(8, 5) - 5 + 1 + 4

    def test_face_and_sampling_scan_no_support(self, monkeypatch):
        # the face is its closed form; only structural_rank_bound scans
        import toricdegen.family as family

        def refuse(n, d):
            raise AssertionError(f"support scanned at n={n}, d={d}")

        monkeypatch.setattr(family, "_block_support", refuse)
        rng = Random(44)
        for n in range(2, 7):
            for d in range(2, 15):
                face = face_exponents(n, d)
                steps = block_support_reference(n, d).values()
                assert face == tuple(sorted(set(steps), reverse=True)), (n, d)
                point = sample_family(n, d, rng)
                assert tuple(point.to_poly().support()) == face, (n, d)

    def test_scan_memory_stays_small_at_a_large_point(self, monkeypatch):
        # the scan keeps positions, not an (n+1)-entry exponent per step,
        # which peaked at 47 MB here
        import toricdegen.family as family
        import toricdegen.domain as domain
        monkeypatch.setattr(domain, "MAX_AMBIENT", 10 ** 200)
        family.structural_rank_bound.cache_clear()
        tracemalloc.start()
        try:
            bound = structural_rank_bound(100, 240)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            family.structural_rank_bound.cache_clear()
        assert bound == comb(340, 240) - 240 + 1 + 198
        assert peak < 16_000_000


def _typed(matrix):
    return [(type(e), e) for row in matrix for e in row]


class TestBlockSteps:
    GRID = [(n, d) for n in range(2, 7) for d in range(2, 15)]

    @staticmethod
    def _points(n, d, rng):
        """(point, f) pairs whose blocks agree: a sampled point, its third
        and the dominance point, each with its own polynomial, and the face
        point of a member nonzero on every non-excluded exponent, face or
        not, with that dense member."""
        point = sample_family(n, d, rng)
        full = full_support_point(n, d, rng)
        return [(p, p.to_poly()) for p in
                (point, third(point), dominance_point(n, d))] + \
            [(face_point(full), full)]

    def test_matches_the_dense_references(self):
        rng = Random(41)
        for n, d in self.GRID:
            support = block_support_reference(n, d)
            assert _block_support(n, d) == set(support), (n, d)
            assert face_exponents(n, d) == \
                tuple(sorted(set(support.values()), reverse=True)), (n, d)
            for point, f in self._points(n, d, rng):
                block = excluded_block_reference(f)
                assert _typed(excluded_block(point)) == _typed(block), (n, d)
                assert _typed(key_matrix(point)) == \
                    _typed(row[:-1] for row in block[4:]), (n, d)

    def test_every_cache_holds_one_shape(self):
        # every caller works on one (n, d) at a time, so a cache holding more
        # shapes only grows with the sweep's grid
        sizes = {name: obj.cache_parameters()["maxsize"]
                 for name, obj in family_caches().items()}
        assert sizes == {"structural_rank_bound": 1}

    def test_key_rank_scans_the_support_once_per_shape(self):
        # key_rank certifies the support its identity rests on at every
        # call, so 1,000 samples of one shape must pay for one scan
        import toricdegen.family as family
        rng = Random(43)
        points = [sample_family(3, 6, rng) for _ in range(1000)]
        family.structural_rank_bound.cache_clear()
        for point in points:
            key_rank(point)
        assert family.structural_rank_bound.cache_info().misses == 1

    def test_a_block_reads_only_its_points_terms(self, monkeypatch):
        # a block slices its point's face and builds or reads no polynomial
        import toricdegen.family as family
        block, calls, per_block = family.excluded_block, [], []

        def recorded(name, cls=HomogPoly):
            method = getattr(cls, name)

            def call(obj, *args):
                calls.append(name)
                return method(obj, *args)
            monkeypatch.setattr(cls, name, call)

        def recorded_block(point):
            start = len(calls)
            result = block(point)
            per_block.append(Counter(calls[start:]))
            return result

        recorded("coeff")
        recorded("terms")
        recorded("to_poly", FamilyPoint)
        face = face_point(full_support_point(3, 6, Random(2)))
        monkeypatch.setattr(family, "excluded_block", recorded_block)
        threshold_sweep(4, 10)
        key_rank(sample_family(5, 12, Random(1)))
        family.excluded_block(face)
        assert per_block == [Counter()] * (27 + 1 + 1)


class TestSampling:
    def test_nonzero_exactly_on_face(self):
        for n, d in [(2, 3), (3, 4), (4, 9)]:
            f = sample_family(n, d, Random(1)).to_poly()
            face = set(face_exponents(n, d))
            for u in iter_exponents(n, d):
                assert (f.coeff(u) != 0) == (u in face), (n, d, u)
            assert set(f.support()) == face

    def test_draws_one_value_per_face_exponent(self):
        for n, d in [(2, 2), (3, 7), (5, 12)]:
            rng = Random(4)
            sample_family(n, d, rng, bound=50)
            replay = Random(4)
            for _ in range(1 + (n - 1) * d):
                replay.randrange(100)
            assert rng.getstate() == replay.getstate()

    def test_draws_in_the_dense_face_order(self):
        # one value per face exponent in descending graded-lex order, the
        # dense sampler's order, so every seed gives the same point
        grid = [(n, d) for n in range(2, 6) for d in range(2, 13)] + \
            [(7, 17), (2, 40)]
        for n, d in grid:
            for seed in (1, 2, 3):
                rng, ref = Random(seed), Random(seed)
                assert sample_family(n, d, rng).to_poly() == \
                    sample_family_reference(n, d, ref), (n, d, seed)
                assert rng.getstate() == ref.getstate()

    def test_spike_coefficients_nonzero(self):
        rng = Random(2)
        point = sample_family(2, 3, rng)
        assert point.spike == point.to_poly().coeff((0, 3, 0)) != 0
        assert point.runs[0][0] == point.to_poly().coeff((2, 0, 1)) != 0

    def test_seeds_differ(self):
        a = sample_family(2, 3, Random(1))
        b = sample_family(2, 3, Random(2))
        assert dict(a.to_poly().terms()) != dict(b.to_poly().terms())

    def test_bounds_respected(self):
        point = sample_family(2, 4, Random(3), bound=5)
        values = [c for _u, c in point.to_poly().terms() if c]
        assert values and all(1 <= abs(c) <= 5 for c in values)

    def test_validation(self):
        # the constructor runs check_domain; a point cannot hold an excluded
        # term, so only a dense member can be nonzero there, and face_point
        # refuses it
        for n, d in [(1, 3), (2, 1), (8, 17)]:
            with pytest.raises(DomainError):
                FamilyPoint(n, d, 1, [[1] * d] * (n - 1))
        coeffs = {u: Fraction(1) for u in iter_exponents(2, 2)}
        with pytest.raises(DomainError, match="excluded"):
            face_point(HomogPoly(2, 2, coeffs))
        point = FamilyPoint(2, 2, 3, [[0, 0]])  # a zero is no term
        assert dict(point.to_poly().terms()) == {(0, 2, 0): 3}


class TestGenerators:
    def test_counts_at_2_3(self):
        gens = differential_generators(sample_family(2, 3, Random(4)).to_poly())
        monomials = [g for g in gens if g.kind == "monomial"]
        products = [g for g in gens if g.kind == "product"]
        assert len(monomials) == 7 and len(products) == 9

    def test_count_formula(self):
        for n, d in [(2, 4), (3, 3), (4, 2)]:
            gens = differential_generators(sample_family(n, d, Random(5)).to_poly())
            assert len(gens) == (comb(n + d, d) - d) + (n + 1) ** 2

    def test_product_1_0_hits_the_last_excluded_monomial(self):
        for n, d in [(2, 3), (3, 5)]:
            f = sample_family(n, d, Random(6)).to_poly()
            gens = {g.origin: g.poly for g in differential_generators(f)
                    if g.kind == "product"}
            prod = gens[(1, 0)]
            members = excluded_exponents(n, d)
            x1d = tuple(d if i == 1 else 0 for i in range(n + 1))
            assert prod.coeff(members[-1]) == d * f.coeff(x1d) != 0
            assert all(prod.coeff(u) == 0 for u in members[:-1])

    def test_high_j_products_inside_monomial_span(self):
        # products with j > 1 lie in the span of the monomial generators
        gens = differential_generators(sample_family(2, 4, Random(7)).to_poly())
        rows = [g.poly for g in gens if g.kind == "monomial"]
        for g in gens:
            if g.kind == "product" and g.origin[1] > 1:
                assert in_span(g.poly, rows, 2, 4)


class TestKeyMatrix:
    def test_entries_at_2_3(self):
        point = sample_family(2, 3, Random(8))
        m = key_matrix(point)
        c_21 = point.to_poly().coeff((2, 0, 1))  # u(2, m=2)
        c_11 = point.to_poly().coeff((1, 1, 1))  # u(2, m=1)
        assert m == ((c_21, c_11), (Fraction(0), c_21))

    def test_shape(self):
        # the key rows, (i, 0) and (i, 1) for i >= 2, without the last column
        for n, d in [(3, 5), (4, 3), (2, 2)]:
            point = sample_family(n, d, Random(9))
            m = key_matrix(point)
            assert len(m) == 2 * n - 2
            assert all(type(row) is tuple and len(row) == d - 1 for row in m)
            assert m == tuple(row[:-1] for row in excluded_block(point)[4:])

    def test_rank_at_2_3(self):
        point = sample_family(2, 3, Random(10))
        assert rank(key_matrix(point)) == 2

    def test_rank_formula_small_grid(self):
        rng = Random(11)
        for n in (2, 3):
            for d in (2, 3, 4, 5, 6):
                point = sample_family(n, d, rng)
                assert rank(key_matrix(point)) == min(d - 1, 2 * n - 2)


class TestDominancePoint:
    GRID = [(n, d) for n in range(2, 8) for d in range(2, 19)]

    def test_terms_lie_on_the_face(self):
        for n, d in self.GRID:
            point = dominance_point(n, d)
            support = set(point.to_poly().support())
            assert support <= set(face_exponents(n, d)), (n, d)
            assert {c for _u, c in point.to_poly().terms()} == {1}

    def test_rank_meets_the_structural_bound(self):
        for n, d in self.GRID:
            report = differential_rank(dominance_point(n, d))
            assert report.rank == structural_rank_bound(n, d), (n, d)

    def test_key_rank(self):
        for n, d in self.GRID:
            assert rank(key_matrix(dominance_point(n, d))) == \
                min(d - 1, 2 * n - 2), (n, d)

    def test_redundancy(self):
        for n, d in self.GRID:
            assert redundancy_check(dominance_point(n, d)).ok, (n, d)

    def test_initial_form_is_the_prime_staircase_top(self):
        for n, d in self.GRID:
            init = initial_form(dominance_point(n, d).to_poly(),
                                witness_weight(n, d))
            assert init == parse_poly(f"x1^{d} + x0^{d - 1}*x2", n, d), (n, d)
            assert classify_poly(init).tag == "Prime"

    def test_sweep_samples_nothing(self, monkeypatch):
        import toricdegen.family

        def refuse(*args):
            raise AssertionError("the sweep sampled a family point")

        monkeypatch.setattr(toricdegen.family, "sample_family", refuse)
        rows = threshold_sweep(4, 10)
        assert len(rows) == 27
        assert all(map(sweep_row_matches, rows))

    def test_block_is_built_once(self, monkeypatch):
        # a point keeps no block, so each certificate builds it once
        import toricdegen.family
        build = toricdegen.family.excluded_block
        built = []
        monkeypatch.setattr(toricdegen.family, "excluded_block",
                            lambda point: built.append(point) or build(point))
        point = dominance_point(3, 6)
        key_matrix(point), differential_rank(point), redundancy_check(point)
        assert excluded_block(point) == build(point)
        assert built == [point] * 3


class TestDifferentialRank:
    def test_surjective_at_2_3(self):
        rng = Random(12)
        report = differential_rank(sample_family(2, 3, rng), "probabilistic", rng)
        assert (report.rank, report.ambient, report.codim) == (10, 10, 0)
        assert report.surjective

    def test_codim_one_at_2_4(self):
        rng = Random(13)
        report = differential_rank(sample_family(2, 4, rng), "probabilistic", rng)
        assert (report.rank, report.ambient, report.codim) == (14, 15, 1)
        assert not report.surjective

    def test_codim_two_at_3_7(self):
        rng = Random(14)
        report = differential_rank(sample_family(3, 7, rng), "probabilistic", rng)
        assert report.ambient == 120
        assert report.codim == 2

    def test_exact_mode_agrees(self):
        # the excluded-face rank against the full-span oracle, at sampled
        # points, at full-support points and at sparse {-1, 0, 1} points
        # that fall below the bound
        rng = Random(15)
        below = 0
        grid = [(2, d) for d in range(2, 7)] + [(3, d) for d in range(3, 9)] \
            + [(4, d) for d in range(4, 7)]
        for n, d in grid:
            excl = excluded_exponents(n, d)
            polys = [sample_family(n, d, rng).to_poly(),
                     full_support_point(n, d, rng)]
            for _ in range(3):
                polys.append(HomogPoly(n, d, {
                    u: rng.choice((-1, 0, 0, 1))
                    for u in iter_exponents(n, d) if u not in excl}))
            for f in polys:
                report = differential_rank(face_point(f))
                assert report.rank == full_span_rank(f), (n, d)
                assert report.method == "exact"
                below += report.rank < structural_rank_bound(n, d)
        assert below >= 10

    def test_modes_agree_without_drawing(self):
        rng = Random(22)
        point = sample_family(3, 5, rng)
        state = rng.getstate()
        assert differential_rank(point, "probabilistic", rng) == \
            differential_rank(point, "exact")
        assert rng.getstate() == state
        with pytest.raises(ValueError):
            differential_rank(point, "modular")

    def test_excluded_block_shape_and_zero_rows(self):
        # the 2(n+1) rows (i, j) with j <= 1, row (i, j) at 2*i + j, against
        # the product generators' coefficients on the excluded exponents;
        # the products with j >= 2 have none there
        n, d = 3, 5
        point = sample_family(n, d, Random(23))
        block = excluded_block(point)
        assert type(block) is tuple and len(block) == 2 * (n + 1)
        assert all(type(row) is tuple and len(row) == d for row in block)
        excl = excluded_exponents(n, d)
        for g in differential_generators(point.to_poly()):
            if g.kind == "product":
                i, j = g.origin
                coeffs = tuple(g.poly.coeff(w) for w in excl)
                if j <= 1:
                    assert coeffs == block[2 * i + j], (i, j)
                else:
                    assert not any(coeffs), (i, j)
        assert not any(block[0] + block[1] + block[3])

    def test_decomposition_identity(self):
        # rank = (ambient - d) + 1 + key_matrix_rank at sampled points
        rng = Random(16)
        for n, d in [(2, 3), (2, 5), (3, 4), (3, 8), (4, 6)]:
            point = sample_family(n, d, rng)
            report = differential_rank(point, "probabilistic", rng)
            expected = (report.ambient - d) + 1 + rank(key_matrix(point))
            assert report.rank == expected

    @pytest.mark.parametrize("bound", [2, 3, 1000])
    def test_block_ranks_one_above_the_key_matrix(self, bound):
        # the identity every certificate ranks by: off the key rows the
        # block holds only the spike d*c[x1^d], which sampling never draws
        # as 0, so it adds exactly 1 to the key rank, even where small
        # bounds leave the key rank short of min(d-1, 2n-2)
        rng = Random(bound)
        for n in range(2, 6):
            for d in range(2, 11):
                for _ in range(3):
                    point = sample_family(n, d, rng, bound)
                    key_rank(point)
                    assert rank(excluded_block(point)) == \
                        1 + rank(key_matrix(point)), (n, d, bound)

    def test_zero_spike_breaks_the_identity_and_is_refused(self,
                                                           monkeypatch):
        # with c[x1^d] = 0 the block ranks as its key matrix does, so
        # key_rank refuses the point, before it ranks anything
        import toricdegen.family
        n, d = 3, 5
        point = sample_family(n, d, Random(3))._replace(spike=0)
        assert rank(excluded_block(point)) == rank(key_matrix(point)) == 4

        def refuse(rows):
            raise AssertionError("key_rank ranked a spikeless point")

        monkeypatch.setattr(toricdegen.family, "rank", refuse)
        with pytest.raises(CertificateError, match=r"c\[x1\^5\] = 0"):
            key_rank(point)

    def test_key_rank_against_the_whole_block(self):
        # differential_rank ranks the whole block, the general definition,
        # at a sampled point, its rational multiple and the dominance point
        rng = Random(41)
        for n in range(2, 7):
            for d in range(2, 15):
                point = sample_family(n, d, rng)
                for p in (point, third(point), dominance_point(n, d)):
                    assert key_rank(p) == (rank(key_matrix(p)),
                                           differential_rank(p)), (n, d)

    def test_monotonic_bound_on_adversarial_points(self):
        # valid family points with many zero / repeated coefficients
        for n, d in [(2, 4), (3, 5)]:
            excl = excluded_exponents(n, d)
            exps = tuple(iter_exponents(n, d))
            x1d = tuple(d if i == 1 else 0 for i in range(n + 1))
            sparse = {u: Fraction(0) for u in exps}
            sparse[x1d] = Fraction(1)
            repeated = {u: Fraction(0) if u in excl else Fraction(1)
                        for u in exps}
            for coeffs in (sparse, repeated):
                point = face_point(HomogPoly(n, d, coeffs))
                report = differential_rank(point, "exact")
                assert report.rank <= structural_rank_bound(n, d)

    def test_rank_invariant_under_group_translation(self):
        rng = Random(17)
        point = sample_family(2, 3, rng)
        gens = [g.poly for g in differential_generators(point.to_poly())]
        base = rank_sparse_exact(sparse_rows(gens, 2, 3))
        matrix = [[1, 2, 0], [0, 1, 1], [1, 0, 1]]  # det = 3, invertible
        moved = [apply_linear_change(g, matrix) for g in gens if not g.is_zero()]
        assert rank_sparse_exact(sparse_rows(moved, 2, 3)) == base


class TestRedundancy:
    def test_passes_on_samples(self):
        assert redundancy_check(sample_family(2, 4, Random(18))).ok
        assert redundancy_check(sample_family(3, 6, Random(19))).ok

    def test_matches_span_oracle(self):
        # independent route: explicit span membership over the monomial
        # generators plus the (1, 0) product's excluded spike
        point = sample_family(2, 4, Random(20))
        gens = differential_generators(point.to_poly())
        rows = [g.poly for g in gens if g.kind == "monomial"]
        rows.append(monomial(excluded_exponents(2, 4)[-1]))
        verdicts = []
        for g in gens:
            i, j = g.origin if g.kind == "product" else (None, None)
            if g.kind != "product" or not (i == 0 or (i, j) == (1, 1) or j > 1):
                continue
            verdicts.append(in_span(g.poly, rows, 2, 4))
        assert all(verdicts) == redundancy_check(point).ok
        assert verdicts  # the filter selected something

    def test_corrupted_point_fails(self, monkeypatch):
        # a point cannot hold a term off the family, so the block of a dense
        # member nonzero on x0^2*x1, by the definition, stands in for its own
        import toricdegen.family
        point = sample_family(2, 3, Random(21))
        coeffs = dict(point.to_poly().terms())
        coeffs[(2, 1, 0)] = Fraction(1)
        corrupted = HomogPoly(2, 3, coeffs)
        with pytest.raises(DomainError):
            face_point(corrupted)
        monkeypatch.setattr(toricdegen.family, "excluded_block",
                            lambda p: excluded_block_reference(corrupted))
        report = redundancy_check(point)
        assert not report.ok
        assert report.failures == ((0, 0), (1, 1))


class TestFaceRestriction:
    GRID = [(2, d) for d in range(2, 9)] + [(3, d) for d in range(3, 9)] \
        + [(4, d) for d in range(4, 8)]

    def test_face_alone_gives_the_same_certificates(self):
        rng = Random(24)
        for n, d in self.GRID:
            full = full_support_point(n, d, rng)
            face = face_point(full)
            block = excluded_block_reference(full)
            assert len(face.to_poly().support()) < len(full.support())
            assert excluded_block(face) == block, (n, d)
            assert key_matrix(face) == tuple(row[:-1] for row in block[4:])
            assert differential_rank(face).rank == full_span_rank(full)
            assert redundancy_check(face).ok and \
                not any(block[0][:-1] + block[1][:-1] + block[3][:-1])
            omega = witness_weight(n, d)
            assert initial_form(face.to_poly(), omega) == \
                initial_form(full, omega)

    def test_off_face_monomials_weigh_less_than_the_staircase_top(self):
        for n, d in self.GRID:
            omega = witness_weight(n, d)
            top = d * (d - 1)
            excl = excluded_exponents(n, d)
            face = set(face_exponents(n, d))
            for u in iter_exponents(n, d):
                if u not in excl and u not in face:
                    assert weight_of(u, omega) < top, (n, d, u)
