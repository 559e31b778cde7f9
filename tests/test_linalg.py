from fractions import Fraction
from math import comb
from random import Random

import pytest

import toricdegen.domain
from toricdegen import DomainError, iter_exponents, rank
from toricdegen.domain import MAX_AMBIENT, check_ambient
from helpers import rank_sparse_exact, transpose


class TestBasis:
    def test_n1_d2(self):
        assert tuple(iter_exponents(1, 2)) == ((2, 0), (1, 1), (0, 2))

    def test_sizes(self):
        assert len(list(iter_exponents(2, 3))) == 10
        assert len(list(iter_exponents(4, 7))) == 330

    def test_strictly_descending(self):
        exps = tuple(iter_exponents(3, 4))
        assert all(a > b for a, b in zip(exps, exps[1:]))

    def test_ambient_admitted_exactly_up_to_the_limit(self):
        for n in range(30):
            for d in range(30):
                admitted = comb(n + d, d) <= MAX_AMBIENT
                try:
                    check_ambient(n, d)
                except DomainError:
                    assert not admitted, (n, d)
                else:
                    assert admitted, (n, d)

    @pytest.mark.parametrize("n,d", [(7200, 7200), (19, 10**9),
                                     (10**5, 10**5)])
    def test_large_ambient_rejected_without_the_binomial(self, monkeypatch,
                                                         n, d):
        # 2^min(n, d) already passes the limit, so C(n+d, d) is never built
        def fail(*args):
            raise AssertionError("comb called")
        monkeypatch.setattr(toricdegen.domain, "comb", fail)
        with pytest.raises(DomainError, match="ambient dimension"):
            check_ambient(n, d)


class TestRank:
    def test_identity(self):
        assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3

    def test_proportional_rows(self):
        assert rank([[1, 2], [2, 4]]) == 1

    def test_rational_entries(self):
        # rank takes integer rows by type and refuses any other entry, an
        # integral Fraction and a float too; a caller with rational rows
        # scales each to integers, which leaves the rank unchanged
        for e in (Fraction(1, 2), Fraction(2), 1.0):
            with pytest.raises(TypeError):
                rank([[1, 2], [3, e]])
            with pytest.raises(TypeError):
                rank([[e, 0], [0, 0]])

    def test_zero_matrix(self):
        assert rank([[0, 0], [0, 0]]) == 0

    def test_transpose_invariance(self):
        rng = Random(2)
        for _ in range(20):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = [[rng.randint(-9, 9) for _ in range(cols)]
                 for _ in range(rows)]
            assert rank(m) == rank(transpose(m))

    def test_row_permutation_and_scaling_invariance(self):
        # the last row is a combination of two others, so the rank is short
        rng = Random(3)
        for _ in range(15):
            rows = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(3)]
            rows.append([a - 2 * b for a, b in zip(rows[0], rows[1])])
            base = rank(rows)
            assert base <= 3
            shuffled = rows[:]
            rng.shuffle(shuffled)
            assert rank(shuffled) == base
            scaled = [[k * e for e in row] for row in rows
                      for k in [rng.choice([1, 2, 3, -5, -6])]]
            assert rank(scaled) == base

    def test_mixed_entries_match_fraction_oracle(self):
        # small and large int entries, with all-zero rows interleaved,
        # passed as lists, tuples and iterators
        rng = Random(5)
        for _ in range(60):
            cols = rng.randint(1, 6)
            rows = []
            for _ in range(rng.randint(1, 8)):
                if rng.random() < 0.3:
                    rows.append([0] * cols)
                    continue
                rows.append([rng.choice((0, 0, rng.randint(-5, 5),
                                         rng.randint(-10**6, 10**6)))
                             for _ in range(cols)])
            oracle = rank_sparse_exact(
                [{j: Fraction(e) for j, e in enumerate(row) if e} for row in rows])
            assert rank(rows) == oracle
            assert rank([tuple(row) for row in rows]) == oracle
            assert rank(iter(row) for row in rows) == oracle

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
