from fractions import Fraction
from random import Random

import pytest

from toricdegen import (
    DimensionMismatchError,
    HomogPoly,
    QMatrix,
    basis,
    from_vector,
    parse_poly,
    rank,
    span_contains,
    to_vector,
)
from helpers import rank_sparse_exact


class TestBasis:
    def test_n1_d2(self):
        B = basis(1, 2)
        assert B.exponents == ((2, 0), (1, 1), (0, 2))

    def test_sizes(self):
        assert len(basis(2, 3)) == 10
        assert len(basis(4, 7)) == 330

    def test_strictly_descending(self):
        B = basis(3, 4)
        assert all(a > b for a, b in zip(B.exponents, B.exponents[1:]))

    def test_index_lookup(self):
        B = basis(2, 3)
        for k, u in enumerate(B.exponents):
            assert B.index_of(u) == k


class TestVectors:
    def test_two_unit_entries(self):
        f = parse_poly("x1^3 + x0^2*x2", 2, 3)
        vec = to_vector(f, basis(2, 3))
        assert sorted(vec, reverse=True)[:2] == [1, 1]
        assert sum(1 for c in vec if c) == 2

    def test_zero_poly(self):
        vec = to_vector(HomogPoly.zero(2, 3), basis(2, 3))
        assert all(c == 0 for c in vec)

    def test_roundtrip(self):
        rng = Random(1)
        from helpers import random_poly
        for _ in range(20):
            f = random_poly(rng, 2, 3)
            B = basis(2, 3)
            assert from_vector(to_vector(f, B), B) == f
            vec = to_vector(f, B)
            assert to_vector(from_vector(vec, B), B) == vec

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            to_vector(HomogPoly.zero(2, 2), basis(2, 3))


class TestRank:
    def test_identity(self):
        assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3

    def test_proportional_rows(self):
        assert rank([[1, 2], [2, 4]]) == 1

    def test_rational_entries(self):
        m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2)]]
        assert rank(m) == 2
        singular = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]]
        assert rank(singular) == 1

    def test_zero_matrix(self):
        assert rank([[0, 0], [0, 0]]) == 0

    def test_transpose_invariance(self):
        rng = Random(2)
        for _ in range(20):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = QMatrix([[rng.randint(-9, 9) for _ in range(cols)]
                         for _ in range(rows)])
            assert rank(m) == rank(m.transpose())

    def test_row_permutation_and_scaling_invariance(self):
        rng = Random(3)
        for _ in range(15):
            rows = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(4)]
            base = rank(rows)
            shuffled = rows[:]
            rng.shuffle(shuffled)
            assert rank(shuffled) == base
            scaled = [[Fraction(rng.choice([1, 2, 3, -5]), rng.choice([1, 2])) * e
                       for e in row] for row in rows]
            assert rank(scaled) == base

    def test_sparse_agrees_with_dense(self):
        rng = Random(4)
        for _ in range(15):
            rows = rng.randint(1, 7)
            cols = rng.randint(1, 7)
            dense = [[rng.randint(-6, 6) for _ in range(cols)]
                     for _ in range(rows)]
            sparse = [{j: Fraction(e) for j, e in enumerate(row) if e}
                      for row in dense]
            assert rank_sparse_exact(sparse) == rank(dense)


class TestSpan:
    def test_sum_of_rows(self):
        r1 = [1, 2, 3]
        r2 = [0, 1, 1]
        v = [a + b for a, b in zip(r1, r2)]
        assert span_contains(v, [r1, r2])

    def test_outside_span(self):
        assert not span_contains([0, 1], [[1, 0]])

    def test_zero_vector_always_inside(self):
        assert span_contains([0, 0, 0], [])

    def test_row_equivalent_replacement(self):
        rng = Random(5)
        for _ in range(10):
            rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(3)]
            v = [rng.randint(-5, 5) for _ in range(4)]
            verdict = span_contains(v, rows)
            # scale a row, swap rows, add one row to another
            equivalent = [row[:] for row in rows]
            equivalent[0] = [3 * e for e in equivalent[0]]
            equivalent[1], equivalent[2] = equivalent[2], equivalent[1]
            equivalent[1] = [a + b for a, b in zip(equivalent[1], equivalent[0])]
            assert span_contains(v, equivalent) == verdict

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            span_contains([1, 0], [[1, 0, 0]])
