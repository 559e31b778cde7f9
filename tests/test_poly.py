import copy
import pickle
import sys
import time
from fractions import Fraction
from random import Random

import pytest

from toricdegen import (
    DegreeError,
    DimensionMismatchError,
    DomainError,
    HomogPoly,
    PolySyntaxError,
    VariableIndexError,
    ZeroPolynomialError,
    format_poly,
    initial_form,
    parse_poly,
    sample_family,
    weight_of,
    witness_weight,
)
from toricdegen.poly import iter_exponents
from helpers import (SingularMatrixError, apply_linear_change, monomial,
                     multiply, partial_derivative, permute_poly, random_poly,
                     recursive_exponents, roundtrip_text)


class TestConstruct:
    @pytest.mark.parametrize("u", [(-1, 2, 2), (2, -1, 2), (2, 2, -1)])
    def test_negative_exponent_rejected(self, u):
        with pytest.raises(DegreeError, match="negative exponent in"):
            HomogPoly(2, 3, {u: 1})

    def test_length_checked_before_sign(self):
        with pytest.raises(DimensionMismatchError):
            HomogPoly(2, 3, {(4, -1): 1})

    def test_term_rules_checked_in_order(self):
        # length, then sign, then degree: a term breaking all three is
        # refused for its length, one breaking the last two for its sign
        with pytest.raises(DimensionMismatchError,
                           match=r"^exponent \(5, -1\) has length 2, "
                                 r"expected 3$"):
            HomogPoly(2, 3, {(5, -1): 1})
        with pytest.raises(DegreeError, match=r"^negative exponent in "):
            HomogPoly(2, 3, {(5, -1, 0): 1})

    def test_slots_refuse_assignment(self):
        # a polynomial hashes by its terms, so a reassigned slot would move
        # it in every set and dict that holds it
        f = parse_poly("x0^2 - 3*x1*x2", 2, 2)
        for name in ("n", "d", "_terms"):
            value = getattr(f, name)
            with pytest.raises(AttributeError):
                setattr(f, name, value)
            with pytest.raises(AttributeError):
                delattr(f, name)
        with pytest.raises(AttributeError):
            f.extra = 1
        assert (f.n, f.d) == (2, 2) and format_poly(f) == "x0^2 - 3*x1*x2"

    def test_init_cannot_rebuild_a_point(self):
        # the slots are set in __new__, so a second __init__ call on a built
        # polynomial has nothing to reset
        f = sample_family(3, 5, Random(1)).to_poly()
        before = hash(f), dict(f.terms())
        f.__init__(3, 5, {(0, 5, 0, 0): 1})
        assert (hash(f), dict(f.terms())) == before

    def test_copy_and_pickle_round_trip(self):
        # they rebuild through __new__, since the slots refuse setattr
        f = parse_poly("x0^2 - 3/2*x1*x2", 2, 2)
        for twin in (copy.copy(f), copy.deepcopy(f),
                     pickle.loads(pickle.dumps(f))):
            assert type(twin) is HomogPoly
            assert twin == f and hash(twin) == hash(f)
            assert list(twin.terms()) == list(f.terms())

    def test_no_arithmetic(self):
        # a term map, not an algebra: nothing the certificates run adds,
        # negates or scales a polynomial
        f = parse_poly("x0 - x1", 1, 1)
        for op in (lambda: f + f, lambda: f - f, lambda: -f):
            with pytest.raises(TypeError):
                op()
        for name in ("zero", "scale"):
            assert not hasattr(HomogPoly, name)


class TestParse:
    def test_two_terms(self):
        f = parse_poly("x1^3 + x0^2*x2", 2, 3)
        assert f.support() == ((2, 0, 1), (0, 3, 0))
        assert f.coeff((0, 3, 0)) == 1

    def test_grammar_example(self):
        f = parse_poly("3*x0^2*x1 - 5/2*x2^3", 2, 3)
        assert f.coeff((2, 1, 0)) == 3
        assert f.coeff((0, 0, 3)) == Fraction(-5, 2)

    def test_collects_duplicates(self):
        f = parse_poly("x0*x1 + 2*x1*x0", 1, 2)
        assert f.coeff((1, 1)) == 3

    def test_cancellation_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            parse_poly("x0*x1 - x0*x1", 1, 2)

    def test_inhomogeneous_rejected(self):
        with pytest.raises(DegreeError):
            parse_poly("x0^2 + x1", 1, 2)

    def test_index_out_of_range(self):
        with pytest.raises(VariableIndexError):
            parse_poly("x3^2", 2, 2)

    @pytest.mark.parametrize("bad", ["", "3", "x0 ++ x1", "x0^", "x^2",
                                     "x0 & x1", "1/0*x0", "x0 x1"])
    def test_malformed(self, bad):
        with pytest.raises((PolySyntaxError, DegreeError)):
            parse_poly(bad, 1, 1)

    def test_no_star_coefficient(self):
        assert parse_poly("3x0", 0, 1) == parse_poly("3*x0", 0, 1)

    def test_leading_minus(self):
        f = parse_poly("-x0^2 + x1^2", 1, 2)
        assert f.coeff((2, 0)) == -1

    @pytest.mark.parametrize("bad", ["x0^2 + x1 x1", "x9 ++ x0", "1 2*x0"])
    def test_syntax_error_first(self, bad):
        # checked before any degree or index; whitespace may not split a number
        with pytest.raises(PolySyntaxError):
            parse_poly(bad, 1, 1)

    def test_leading_plus_and_trailing_star(self):
        assert parse_poly("+x0", 1, 1) == parse_poly("x0", 1, 1)
        assert parse_poly("x0* + x1", 1, 1) == parse_poly("x0 + x1", 1, 1)

    @pytest.mark.parametrize("bad", ["3" + " " * 100_000 + "y",
                                     "x0" + " * x0" * 30_000 + "^",
                                     "+" * 100_000])
    def test_long_malformed_text_rejected_fast(self, bad):
        start = time.perf_counter()
        with pytest.raises(PolySyntaxError):
            parse_poly(bad, 1, 1)
        assert time.perf_counter() - start < 1

    def test_text_admitted_before_parsing(self):
        # (n, d) passes check_ambient, and the text's terms, at most 1 + its
        # count of '+' and '-', hold at most MAX_AMBIENT exponent entries
        with pytest.raises(DomainError, match="ambient dimension"):
            parse_poly("x0 + x1", 10, 20)
        with pytest.raises(DomainError, match="exponent entries"):
            parse_poly("x0 + x1", 250_000, 1)
        assert parse_poly("x0 + x1", 249_999, 1).num_terms() == 2

    @pytest.mark.parametrize("template", ["{}*x0", "1/{}*x0", "x{}", "x0^{}"])
    def test_number_past_the_digit_limit(self, template):
        # int() would raise a bare ValueError past the interpreter's limit
        limit = sys.get_int_max_str_digits()
        with pytest.raises(PolySyntaxError,
                           match=f"exceeds the limit of {limit} digits"):
            parse_poly(template.format("1" * (limit + 1)), 1, 1)
        # a run of exactly the limit parses as far as its value allows
        with pytest.raises((DegreeError, VariableIndexError)):
            parse_poly(template.format("1" * limit) + " + x1^2", 1, 1)


class TestFormat:
    def test_canonical_order_is_graded_lex(self):
        f = parse_poly("x1^3 + x0^2*x2", 2, 3)
        assert format_poly(f) == "x0^2*x2 + x1^3"

    def test_negative_and_fraction(self):
        f = parse_poly("-5/2*x2^3 + 3*x0^2*x1", 2, 3)
        assert format_poly(f) == "3*x0^2*x1 - 5/2*x2^3"

    def test_roundtrip_random(self):
        rng = Random(10)
        for _ in range(60):
            n, d = rng.randint(1, 3), rng.randint(1, 4)
            roundtrip_text(random_poly(rng, n, d))

    def test_format_parse_idempotent(self):
        text = "x1^3+  x0^2*x2"
        once = format_poly(parse_poly(text, 2, 3))
        assert format_poly(parse_poly(once, 2, 3)) == once


class TestWeightOf:
    def test_dot_products(self):
        assert weight_of((0, 3, 0), (3, 2, 0)) == 6
        assert weight_of((2, 0, 1), (3, 2, 0)) == 6
        assert weight_of((5, 1, 2), (0, 0, 0)) == 0

    def test_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            weight_of((1, 2), (1, 2, 3))

    def test_wide_face_point_is_quick(self):
        # 1,995 face exponents over 999 variables, each with at most three
        # nonzero entries: zero entries must cost no Fraction product
        f = sample_family(998, 2, Random(1)).to_poly()
        omega = witness_weight(998, 2)
        start = time.perf_counter()
        init = initial_form(f, omega)
        assert time.perf_counter() - start < 2
        assert init.support() == ((1, 0, 1) + (0,) * 996,
                                  (0, 2) + (0,) * 997)


class TestInitialForm:
    def test_tie_between_two_terms(self):
        f = parse_poly("x1^3 + x0^2*x2 + x2^3", 2, 3)
        assert initial_form(f, (3, 2, 0)) == parse_poly("x1^3 + x0^2*x2", 2, 3)

    def test_zero_weight_returns_f(self):
        rng = Random(2)
        f = random_poly(rng, 2, 3)
        assert initial_form(f, (0, 0, 0)) == f

    def test_single_term(self):
        f = monomial((1, 2, 0), 7)
        for w in [(1, 0, 0), (-3, 5, 2)]:
            assert initial_form(f, w) == f

    def test_zero_poly_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            initial_form(HomogPoly(2, 3, {}), (1, 1, 1))


class TestDerivative:
    def test_power_rule(self):
        assert partial_derivative(monomial((2, 0, 1)), 0) == \
            monomial((1, 0, 1), 2)

    def test_absent_variable(self):
        assert partial_derivative(monomial((0, 3, 0)), 0).is_zero()

    def test_linearity(self):
        f = parse_poly("x0^2*x2 + x1^3", 2, 3)
        assert partial_derivative(f, 1) == monomial((0, 2, 0), 3)

    def test_index_range(self):
        with pytest.raises(VariableIndexError):
            partial_derivative(monomial((1, 1)), 2)


class TestMultiply:
    def test_difference_of_squares(self):
        f = parse_poly("x0 - x1", 1, 1)
        g = parse_poly("x0 + x1", 1, 1)
        assert multiply(f, g) == parse_poly("x0^2 - x1^2", 1, 2)

    def test_monomial_shift(self):
        f = parse_poly("x0*x1 + x1^2", 2, 2)
        shifted = multiply(f, monomial((1, 0, 0)))
        assert shifted.support() == ((2, 1, 0), (1, 2, 0))

    def test_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            multiply(monomial((1, 0)), monomial((1, 0, 0)))


def matmul(a, b):
    size = len(a)
    return [[sum(Fraction(a[i][k]) * Fraction(b[k][j]) for k in range(size))
             for j in range(size)] for i in range(size)]


class TestLinearChange:
    def test_identity(self):
        rng = Random(3)
        f = random_poly(rng, 2, 3)
        eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert apply_linear_change(f, eye) == f

    def test_permutation_matrix(self):
        # x0 <- x1, x1 <- x2, x2 <- x0
        perm_matrix = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
        out = apply_linear_change(monomial((2, 0, 1)), perm_matrix)
        assert out == monomial((1, 2, 0))

    def test_composition_law(self):
        rng = Random(4)
        for _ in range(12):
            f = random_poly(rng, 2, 2)
            a = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            b = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            try:
                lhs = apply_linear_change(apply_linear_change(f, a), b)
            except SingularMatrixError:
                continue
            assert lhs == apply_linear_change(f, matmul(a, b))

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            apply_linear_change(monomial((1, 1)), [[1, 1], [1, 1]])

    def test_constant_maps_to_itself(self):
        const = HomogPoly(1, 0, {(0, 0): 5})
        assert apply_linear_change(const, [[1, 0], [0, 1]]) == const
        assert apply_linear_change(const, [[2, 1], [1, 1]]) == const

    def test_expands_substitution(self):
        # x0 <- x0 + x1 in x0^2 gives x0^2 + 2 x0 x1 + x1^2
        out = apply_linear_change(monomial((2, 0)), [[1, 1], [0, 1]])
        assert out == parse_poly("x0^2 + 2*x0*x1 + x1^2", 1, 2)


class TestPermutationAction:
    def test_equivariance_helper_consistency(self):
        rng = Random(5)
        f = random_poly(rng, 2, 3)
        perm = (1, 2, 0)
        matrix = [[0, 0, 0] for _ in range(3)]
        # substituting x_i <- x_{perm(i)} relabels exponent entry i to perm(i)
        for i in range(3):
            matrix[i][perm[i]] = 1
        assert apply_linear_change(f, matrix) == permute_poly(f, perm)


class TestIterExponents:
    def test_matches_recursive_order(self):
        for n in range(7):
            for d in range(9):
                assert list(iter_exponents(n, d)) == \
                    list(recursive_exponents(n, d)), (n, d)

    def test_many_variables_do_not_recurse(self):
        # one frame per variable would pass the interpreter's recursion
        # limit here
        exps = list(iter_exponents(1200, 1))
        assert len(exps) == 1201
        assert exps[0] == (1,) + (0,) * 1200
        assert exps[-1] == (0,) * 1200 + (1,)


class TestPropertyQuickPass:
    def test_quick_properties(self):
        from helpers import (
            run_idempotence,
            run_multiplicativity,
            run_permutation_equivariance,
            run_translation_scaling,
        )
        rng = Random(6)
        run_idempotence(rng, 25)
        run_multiplicativity(rng, 25)
        run_translation_scaling(rng, 25)
        run_permutation_equivariance(rng, 25)
