from fractions import Fraction
from random import Random

import pytest

from toricdegen import (
    DomainError,
    FamilyPoint,
    HomogPoly,
    apply_linear_change,
    basis,
    differential_rank,
    excluded_block,
    excluded_exponents,
    key_matrix,
    rank,
    redundancy_check,
    sample_family,
    span_contains,
    structural_rank_bound,
    to_vector,
)
from toricdegen.family import MAX_AMBIENT
from helpers import differential_generators, full_span_rank, rank_sparse_exact


class TestExclusionSet:
    def test_n2_d3_members(self):
        excl = excluded_exponents(2, 3)
        assert excl.members == ((3, 0, 0), (2, 1, 0), (1, 2, 0))

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


class TestSampling:
    def test_zero_exactly_on_exclusions(self):
        rng = Random(1)
        point = sample_family(3, 4, rng)
        excl = excluded_exponents(3, 4)
        for u in basis(3, 4).exponents:
            if u in excl:
                assert point.coeff(u) == 0
            else:
                assert point.coeff(u) != 0

    def test_spike_coefficients_nonzero(self):
        rng = Random(2)
        point = sample_family(2, 3, rng)
        assert point.coeff((0, 3, 0)) != 0
        assert point.coeff((2, 0, 1)) != 0

    def test_seeds_differ(self):
        a = sample_family(2, 3, Random(1))
        b = sample_family(2, 3, Random(2))
        assert a.coeffs != b.coeffs

    def test_bounds_respected(self):
        point = sample_family(2, 4, Random(3), bound=5)
        values = [c for c in point.coeffs.values() if c]
        assert values and all(1 <= abs(c) <= 5 for c in values)

    def test_validation(self):
        coeffs = {u: Fraction(1) for u in basis(2, 2).exponents}
        with pytest.raises(DomainError):
            FamilyPoint(2, 2, coeffs)  # nonzero on the excluded set


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
            assert len(gens) == (len(basis(n, d)) - d) + (n + 1) ** 2

    def test_product_1_0_hits_the_last_excluded_monomial(self):
        for n, d in [(2, 3), (3, 5)]:
            point = sample_family(n, d, Random(6))
            gens = {g.origin: g.poly for g in differential_generators(point)
                    if g.kind == "product"}
            prod = gens[(1, 0)]
            members = excluded_exponents(n, d).members
            x1d = tuple(d if i == 1 else 0 for i in range(n + 1))
            assert prod.coeff(members[-1]) == d * point.coeff(x1d) != 0
            assert all(prod.coeff(u) == 0 for u in members[:-1])

    def test_high_j_products_inside_monomial_span(self):
        # products with j > 1 lie in the span of the monomial generators
        point = sample_family(2, 4, Random(7))
        B = basis(2, 4)
        gens = differential_generators(point)
        rows = [to_vector(g.poly, B) for g in gens if g.kind == "monomial"]
        for g in gens:
            if g.kind == "product" and g.origin[1] > 1:
                assert span_contains(to_vector(g.poly, B), rows)


class TestKeyMatrix:
    def test_entries_at_2_3(self):
        point = sample_family(2, 3, Random(8))
        m = key_matrix(point)
        c_21 = point.coeff((2, 0, 1))  # u(2, m=2)
        c_11 = point.coeff((1, 1, 1))  # u(2, m=1)
        assert m.entries == ((c_21, c_11), (Fraction(0), c_21))

    def test_shape(self):
        assert key_matrix(sample_family(3, 5, Random(9))).rows == 4
        assert key_matrix(sample_family(3, 5, Random(9))).cols == 4
        m = key_matrix(sample_family(4, 3, Random(9)))
        assert (m.rows, m.cols) == (6, 2)

    def test_rank_at_2_3(self):
        point = sample_family(2, 3, Random(10))
        assert rank(key_matrix(point)) == 2

    def test_rank_formula_small_grid(self):
        rng = Random(11)
        for n in (2, 3):
            for d in (2, 3, 4, 5, 6):
                point = sample_family(n, d, rng)
                assert rank(key_matrix(point)) == min(d - 1, 2 * n - 2)


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
        # points and at sparse {-1, 0, 1} points that fall below the bound
        rng = Random(15)
        below = 0
        grid = [(2, d) for d in range(2, 7)] + [(3, d) for d in range(3, 9)] \
            + [(4, d) for d in range(4, 7)]
        for n, d in grid:
            excl = excluded_exponents(n, d)
            points = [sample_family(n, d, rng)]
            for _ in range(3):
                points.append(FamilyPoint(n, d, {
                    u: Fraction(0) if u in excl else Fraction(rng.choice((-1, 0, 0, 1)))
                    for u in basis(n, d).exponents}))
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
        n, d = 3, 5
        block = excluded_block(sample_family(n, d, Random(23)))
        assert (block.rows, block.cols) == ((n + 1) ** 2, d)
        for i in range(n + 1):
            for j in range(2, n + 1):
                assert not any(block.row(i * (n + 1) + j))

    def test_decomposition_identity(self):
        # rank = (ambient - d) + 1 + key_matrix_rank at sampled points
        rng = Random(16)
        for n, d in [(2, 3), (2, 5), (3, 4), (3, 8), (4, 6)]:
            point = sample_family(n, d, rng)
            report = differential_rank(point, "probabilistic", rng)
            expected = (report.ambient - d) + 1 + rank(key_matrix(point))
            assert report.rank == expected

    def test_monotonic_bound_on_adversarial_points(self):
        # valid family points with many zero / repeated coefficients
        for n, d in [(2, 4), (3, 5)]:
            excl = excluded_exponents(n, d)
            exps = basis(n, d).exponents
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
        B = basis(2, 3)
        gens = [g.poly for g in differential_generators(point)]
        base = rank_sparse_exact(
            {B.index_of(u): c for u, c in g.terms()} for g in gens)
        matrix = [[1, 2, 0], [0, 1, 1], [1, 0, 1]]  # det = 3, invertible
        moved = [apply_linear_change(g, matrix) for g in gens if not g.is_zero()]
        translated = rank_sparse_exact(
            {B.index_of(u): c for u, c in g.terms()} for g in moved)
        assert translated == base


class TestRedundancy:
    def test_passes_on_samples(self):
        assert redundancy_check(sample_family(2, 4, Random(18))).ok
        assert redundancy_check(sample_family(3, 6, Random(19))).ok

    def test_matches_span_oracle(self):
        # independent route: explicit span membership over the monomial
        # generators plus the (1, 0) product's excluded spike
        point = sample_family(2, 4, Random(20))
        B = basis(2, 4)
        gens = differential_generators(point)
        rows = [to_vector(g.poly, B) for g in gens if g.kind == "monomial"]
        spike = HomogPoly.monomial(excluded_exponents(2, 4).members[-1])
        rows.append(to_vector(spike, B))
        verdicts = []
        for g in gens:
            i, j = g.origin if g.kind == "product" else (None, None)
            if g.kind != "product" or not (i == 0 or (i, j) == (1, 1) or j > 1):
                continue
            verdicts.append(span_contains(to_vector(g.poly, B), rows))
        assert all(verdicts) == redundancy_check(point).ok
        assert verdicts  # the filter selected something

    def test_corrupted_point_fails(self):
        # deliberately violates the family invariant (validate=False)
        point = sample_family(2, 3, Random(21))
        coeffs = dict(point.coeffs)
        coeffs[(2, 1, 0)] = Fraction(1)
        corrupted = FamilyPoint(2, 3, coeffs, validate=False)
        report = redundancy_check(corrupted)
        assert not report.ok
        assert report.failures
