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
    DegreeError,
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
    face_exponents,
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
from toricdegen.family import _block_support, key_rank
from toricdegen.poly import MAX_AMBIENT
from helpers import (
    apply_linear_change,
    block_support_reference,
    check_record,
    differential_generators,
    excluded_block_reference,
    family_caches,
    full_span_rank,
    monomial,
    patched_support,
    rank_sparse_exact,
    sparse_rows,
    step_reference,
)


def full_support_point(n, d, rng):
    """A family point with a nonzero coefficient on every non-excluded
    exponent."""
    excl = excluded_exponents(n, d)
    return FamilyPoint(n, d, {u: rng.choice((-9, -4, -1, 1, 2, 7))
                              for u in iter_exponents(n, d) if u not in excl})


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
        assert isinstance(point, tuple) and point._fields == ("n", "d", "poly")
        assert point.to_poly() is point.poly
        for name in point._fields:
            with pytest.raises(AttributeError):
                setattr(point, name, getattr(point, name))
        again = sample_family(3, 5, Random(7))
        assert again == point and hash(again) == hash(point)
        assert point != sample_family(3, 5, Random(8))
        third = FamilyPoint(3, 5, dict.fromkeys(point.poly.support(),
                                                Fraction(1, 3)))
        assert {third.poly.coeff(u) for u in point.poly.support()} == \
            {Fraction(1, 3)}
        for p in (point, third):
            for twin in (copy.copy(p), pickle.loads(pickle.dumps(p))):
                assert twin == p and hash(twin) == hash(p)
                assert type(twin) is FamilyPoint

    def test_replace_validates(self):
        # _replace builds through _make, which runs the constructor: left to
        # tuple.__new__, this point ranked as RankReport(rank=46, ambient=55,
        # codim=9) with no error
        point = sample_family(3, 5, Random(1))
        with pytest.raises(DimensionMismatchError):
            point._replace(n=2, d=9)
        with pytest.raises(DimensionMismatchError):
            FamilyPoint._make((2, 9, point.poly))
        assert FamilyPoint._make(point) == point

    def test_exclusion_set(self):
        # a plain tuple of exponent tuples, and membership in closed form:
        # an exponent is excluded when it holds x0 and lies on {x0, x1}
        from toricdegen.family import _excluded
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
            third = FamilyPoint(n, d, {u: Fraction(1, 3) * c
                                       for u, c in point.to_poly().terms()})
            entries = [e for row in excluded_block(third) for e in row]
            assert any(type(e) is Fraction for e in entries)
            assert differential_rank(third) == differential_rank(point), (n, d)
            assert rank(key_matrix(third)) == rank(key_matrix(point)), (n, d)

    def test_coeff_types_and_list_exponents(self):
        # the block makes an integral coefficient's entries ints and keeps
        # the others Fractions; poly.coeff reads a list exponent too
        half = Fraction(5, 2)
        point = FamilyPoint(2, 3, {(0, 3, 0): 4, (2, 0, 1): half})
        assert _typed(excluded_block(point)) == _typed(
            ((0, 0, 0), (0, 0, 0), (0, 0, 12), (0, 0, 0), (half, 0, 0),
             (0, half, 0)))
        assert point.poly.coeff([0, 3, 0]) == 4
        assert point.poly.coeff([2, 0, 1]) == half
        assert point.poly.coeff([1, 1, 1]) == 0


class TestFace:
    def test_face_is_what_excluded_block_reads(self):
        # a one-term point has a nonzero block exactly when its term is on
        # the face, so the face is every term the block can read
        for n in range(2, 6):
            for d in range(2, 10):
                face = face_exponents(n, d)
                assert len(face) == 1 + (n - 1) * d
                for u in iter_exponents(n, d):
                    if u not in excluded_exponents(n, d):
                        block = excluded_block(FamilyPoint(n, d, {u: 1}))
                        assert any(map(any, block)) == (u in face), (n, d, u)

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
        family.face_exponents.cache_clear()
        rng = Random(44)
        for n in range(2, 7):
            for d in range(2, 15):
                face = face_exponents(n, d)
                steps = block_support_reference(n, d).values()
                assert face == tuple(sorted(set(steps), reverse=True)), (n, d)
                point = sample_family(n, d, rng)
                assert tuple(point.poly.support()) == face, (n, d)

    def test_scan_memory_stays_small_at_a_large_point(self, monkeypatch):
        # the scan keeps positions, not an (n+1)-entry exponent per step,
        # which peaked at 47 MB here
        import toricdegen.family as family
        import toricdegen.poly as poly
        monkeypatch.setattr(poly, "MAX_AMBIENT", 10 ** 200)
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
        """A sampled point, its third, a point off the family built past the
        constructor, nonzero on every excluded exponent as well, and a point
        nonzero on every non-excluded exponent, face or not."""
        point = sample_family(n, d, rng)
        terms = dict(point.to_poly().terms())
        third = FamilyPoint(n, d, {u: Fraction(1, 3) * c
                                   for u, c in terms.items()})
        terms.update({w: k + 2 for k, w in enumerate(excluded_exponents(n, d))})
        corrupt = tuple.__new__(FamilyPoint, (n, d, HomogPoly(n, d, terms)))
        return point, third, corrupt, full_support_point(n, d, rng)

    def test_matches_the_dense_references(self):
        rng = Random(41)
        for n, d in self.GRID:
            support = block_support_reference(n, d)
            assert _block_support(n, d) == set(support), (n, d)
            assert face_exponents(n, d) == \
                tuple(sorted(set(support.values()), reverse=True)), (n, d)
            for point in self._points(n, d, rng):
                block = excluded_block_reference(point)
                assert _typed(excluded_block(point)) == _typed(block), (n, d)
                assert _typed(key_matrix(point)) == \
                    _typed(row[:-1] for row in block[4:]), (n, d)

    def test_one_table_per_shape(self, capsys):
        # blocks read no table; the face is built once per sampled shape,
        # and the sweep, which samples nothing, never builds it
        import toricdegen.family as family
        from toricdegen.cli import main

        def misses(run):
            family.face_exponents.cache_clear()
            run()
            return family.face_exponents.cache_info().misses

        assert misses(lambda: threshold_sweep(4, 10)) == 0
        for argv in (["verify-lemma", "--n", "5", "--d", "12", "--seed", "1"],
                     ["witness", "--n", "5", "--d", "9"],
                     ["nonexist", "--n", "3", "--d", "6"]):
            assert misses(lambda: main(argv)) == 1, argv
            assert capsys.readouterr().err == "", argv

    def test_points_of_one_shape_share_the_table(self):
        import toricdegen.family as family
        rng = Random(42)
        family.face_exponents.cache_clear()
        counts = []
        for _ in range(10):
            excluded_block(sample_family(5, 12, rng))
            counts.append(family.face_exponents.cache_info().misses)
        assert counts == [1] * 10

    def test_every_cache_holds_one_shape(self):
        # every caller works on one (n, d) at a time, so a cache holding more
        # shapes only grows with the sweep's grid
        sizes = {name: obj.cache_parameters()["maxsize"]
                 for name, obj in family_caches().items()}
        assert sizes == {"face_exponents": 1, "structural_rank_bound": 1}

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
        # a block walks its point's (u, c) pairs once and looks no
        # coefficient up by exponent
        import toricdegen.family as family
        block, calls, per_block = family.excluded_block, [], []

        def recorded(name):
            method = getattr(HomogPoly, name)

            def call(poly, *args):
                calls.append(name)
                return method(poly, *args)
            monkeypatch.setattr(HomogPoly, name, call)

        def recorded_block(point):
            start = len(calls)
            result = block(point)
            per_block.append(Counter(calls[start:]))
            return result

        recorded("coeff")
        recorded("terms")
        monkeypatch.setattr(family, "excluded_block", recorded_block)
        threshold_sweep(4, 10)
        key_rank(sample_family(5, 12, Random(1)))
        family.excluded_block(full_support_point(3, 6, Random(2)))
        assert per_block == [Counter(terms=1)] * (27 + 1 + 1)


class TestSampling:
    def test_nonzero_exactly_on_face(self):
        for n, d in [(2, 3), (3, 4), (4, 9)]:
            point = sample_family(n, d, Random(1))
            face = set(face_exponents(n, d))
            for u in iter_exponents(n, d):
                assert (point.poly.coeff(u) != 0) == (u in face), (n, d, u)
            assert set(point.to_poly().support()) == face

    def test_draws_one_value_per_face_exponent(self):
        for n, d in [(2, 2), (3, 7), (5, 12)]:
            rng = Random(4)
            sample_family(n, d, rng, bound=50)
            replay = Random(4)
            for _ in range(1 + (n - 1) * d):
                replay.randrange(100)
            assert rng.getstate() == replay.getstate()

    def test_spike_coefficients_nonzero(self):
        rng = Random(2)
        point = sample_family(2, 3, rng)
        assert point.poly.coeff((0, 3, 0)) != 0
        assert point.poly.coeff((2, 0, 1)) != 0

    def test_seeds_differ(self):
        a = sample_family(2, 3, Random(1))
        b = sample_family(2, 3, Random(2))
        assert dict(a.to_poly().terms()) != dict(b.to_poly().terms())

    def test_bounds_respected(self):
        point = sample_family(2, 4, Random(3), bound=5)
        values = [c for _u, c in point.to_poly().terms() if c]
        assert values and all(1 <= abs(c) <= 5 for c in values)

    def test_validation(self):
        coeffs = {u: Fraction(1) for u in iter_exponents(2, 2)}
        with pytest.raises(DomainError):
            FamilyPoint(2, 2, coeffs)  # nonzero on the excluded set
        coeffs = {(2, 0, 0): 0, (0, 2, 0): 3}  # a zero there is no coefficient
        point = FamilyPoint(2, 2, coeffs)
        assert dict(point.to_poly().terms()) == {(0, 2, 0): 3}

    def test_exponent_checks(self):
        with pytest.raises(DegreeError):
            FamilyPoint(2, 3, {(0, 2, 0): 1})
        with pytest.raises(DimensionMismatchError):
            FamilyPoint(2, 2, {(0, 2): 1})


class TestGenerators:
    def test_counts_at_2_3(self):
        point = sample_family(2, 3, Random(4))
        gens = differential_generators(point)
        monomials = [g for g in gens if g.kind == "monomial"]
        products = [g for g in gens if g.kind == "product"]
        assert len(monomials) == 7 and len(products) == 9

    def test_count_formula(self):
        for n, d in [(2, 4), (3, 3), (4, 2)]:
            point = sample_family(n, d, Random(5))
            gens = differential_generators(point)
            assert len(gens) == (comb(n + d, d) - d) + (n + 1) ** 2

    def test_product_1_0_hits_the_last_excluded_monomial(self):
        for n, d in [(2, 3), (3, 5)]:
            point = sample_family(n, d, Random(6))
            gens = {g.origin: g.poly for g in differential_generators(point)
                    if g.kind == "product"}
            prod = gens[(1, 0)]
            members = excluded_exponents(n, d)
            x1d = tuple(d if i == 1 else 0 for i in range(n + 1))
            assert prod.coeff(members[-1]) == d * point.poly.coeff(x1d) != 0
            assert all(prod.coeff(u) == 0 for u in members[:-1])

    def test_high_j_products_inside_monomial_span(self):
        # products with j > 1 lie in the span of the monomial generators
        point = sample_family(2, 4, Random(7))
        gens = differential_generators(point)
        rows = [g.poly for g in gens if g.kind == "monomial"]
        for g in gens:
            if g.kind == "product" and g.origin[1] > 1:
                assert in_span(g.poly, rows, 2, 4)


class TestKeyMatrix:
    def test_entries_at_2_3(self):
        point = sample_family(2, 3, Random(8))
        m = key_matrix(point)
        c_21 = point.poly.coeff((2, 0, 1))  # u(2, m=2)
        c_11 = point.poly.coeff((1, 1, 1))  # u(2, m=1)
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
            points = [sample_family(n, d, rng), full_support_point(n, d, rng)]
            for _ in range(3):
                points.append(FamilyPoint(n, d, {
                    u: rng.choice((-1, 0, 0, 1))
                    for u in iter_exponents(n, d) if u not in excl}))
            for point in points:
                report = differential_rank(point)
                assert report.rank == full_span_rank(point), (n, d)
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
        for g in differential_generators(point):
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
        coeffs = dict(sample_family(n, d, Random(3)).poly.terms())
        del coeffs[(0, d, 0, 0)]
        point = FamilyPoint(n, d, coeffs)
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
                third = FamilyPoint(n, d, {u: Fraction(1, 3) * c
                                           for u, c in point.poly.terms()})
                for p in (point, third, dominance_point(n, d)):
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
                point = FamilyPoint(n, d, coeffs)
                report = differential_rank(point, "exact")
                assert report.rank <= structural_rank_bound(n, d)

    def test_rank_invariant_under_group_translation(self):
        rng = Random(17)
        point = sample_family(2, 3, rng)
        gens = [g.poly for g in differential_generators(point)]
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
        gens = differential_generators(point)
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

    def test_corrupted_point_fails(self):
        # a point off the family, built past the constructor that rejects it
        point = sample_family(2, 3, Random(21))
        coeffs = dict(point.to_poly().terms())
        coeffs[(2, 1, 0)] = Fraction(1)
        with pytest.raises(DomainError):
            FamilyPoint(2, 3, coeffs)
        corrupted = tuple.__new__(FamilyPoint, (2, 3, HomogPoly(2, 3, coeffs)))
        report = redundancy_check(corrupted)
        assert not report.ok
        assert report.failures


class TestFaceRestriction:
    GRID = [(2, d) for d in range(2, 9)] + [(3, d) for d in range(3, 9)] \
        + [(4, d) for d in range(4, 8)]

    def test_face_alone_gives_the_same_certificates(self):
        rng = Random(24)
        for n, d in self.GRID:
            full = full_support_point(n, d, rng)
            face = FamilyPoint(n, d, {u: full.poly.coeff(u)
                                      for u in face_exponents(n, d)})
            assert len(face.to_poly().support()) < len(full.to_poly().support())
            assert excluded_block(face) == excluded_block(full), (n, d)
            assert key_matrix(face) == key_matrix(full)
            assert differential_rank(face) == differential_rank(full)
            assert redundancy_check(face) == redundancy_check(full)
            omega = witness_weight(n, d)
            assert initial_form(face.to_poly(), omega) == \
                initial_form(full.to_poly(), omega)

    def test_off_face_monomials_weigh_less_than_the_staircase_top(self):
        for n, d in self.GRID:
            omega = witness_weight(n, d)
            top = d * (d - 1)
            excl = excluded_exponents(n, d)
            face = set(face_exponents(n, d))
            for u in iter_exponents(n, d):
                if u not in excl and u not in face:
                    assert weight_of(u, omega) < top, (n, d, u)
