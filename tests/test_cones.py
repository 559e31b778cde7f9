from fractions import Fraction
from random import Random

import pytest

import toricdegen.cones
from toricdegen import (
    BinomialPattern,
    CertificateError,
    DimensionMismatchError,
    DomainError,
    FeasibilityResult,
    LinearSystem,
    SupportMismatchError,
    difference_functional,
    iter_exponents,
    parse_poly,
    pattern_from_poly,
    satisfies,
    solve,
    stratum_system,
    verify_certificate,
)
from helpers import (chain_implies, check_record, compatible_cone, implies,
                     random_system, run_solver_suite)


def F(*entries):
    return tuple(Fraction(e) for e in entries)


class TestCompatibleCone:
    def test_cubic_instance(self):
        g = BinomialPattern((0, 3, 0), (2, 0, 1))
        cone = compatible_cone(g, (0, 1, 2))
        assert cone.weak_ineqs == (F(1, -1, 0), F(0, 1, -1))
        assert cone.equalities == (F(-2, 3, -1),)  # 3w1 = 2w0 + w2
        assert cone.strict_ineqs == ()

    def test_reversed_ordering(self):
        g = BinomialPattern((0, 3, 0), (2, 0, 1))
        cone = compatible_cone(g, (2, 1, 0))
        assert cone.weak_ineqs == (F(0, -1, 1), F(-1, 1, 0))

    def test_ordering_must_be_permutation(self):
        g = BinomialPattern((0, 3, 0), (2, 0, 1))
        with pytest.raises(DomainError):
            compatible_cone(g, (0, 1, 1))

    def test_functionals_sum_to_zero(self):
        g = BinomialPattern((0, 4, 0, 0), (1, 0, 2, 1))
        cone = compatible_cone(g, (3, 0, 2, 1))
        for kind, _idx, func in cone.constraints():
            assert sum(func) == 0


class TestStratumSystem:
    def test_known_instance(self):
        f = parse_poly("x1^3 + x0^2*x2 + x2^3", 2, 3)
        g = pattern_from_poly(parse_poly("x1^3 + x0^2*x2", 2, 3))
        system = stratum_system(f, g)
        assert len(system.equalities) == 1
        assert len(system.strict_ineqs) == 1
        assert satisfies(system, (3, 2, 0))
        for _kind, _idx, func in system.constraints():
            assert sum(func) == 0

    def test_f_equals_g(self):
        f = parse_poly("x1^3 + x0^2*x2", 2, 3)
        g = pattern_from_poly(f)
        system = stratum_system(f, g)
        assert system.strict_ineqs == ()
        result = solve(system)
        assert result.feasible
        assert result.witness == (0, 0, 0)

    def test_support_mismatch(self):
        f = parse_poly("x1^3 + x2^3", 2, 3)
        g = pattern_from_poly(parse_poly("x1^3 + x0^2*x2", 2, 3))
        with pytest.raises(SupportMismatchError):
            stratum_system(f, g)
        # present support but different coefficient
        f2 = parse_poly("2*x1^3 + x0^2*x2 + x2^3", 2, 3)
        with pytest.raises(SupportMismatchError):
            stratum_system(f2, g)


class TestRecords:
    def test_linear_system(self):
        system = check_record(
            LinearSystem,
            {"dim": 2, "equalities": (F(1, -1),), "weak_ineqs": (F(0, 1),),
             "strict_ineqs": (F(1, 0),)},
            defaults={"equalities": (), "weak_ineqs": (), "strict_ineqs": ()})
        assert system != LinearSystem(2, (F(1, -1),), (F(0, 1),), ())
        assert system != LinearSystem(2, (F(1, -1),), (), (F(0, 1), F(1, 0)))
        assert repr(LinearSystem(2, weak_ineqs=(F(1, -1),))) == (
            "LinearSystem(dim=2, equalities=(), "
            "weak_ineqs=((Fraction(1, 1), Fraction(-1, 1)),), strict_ineqs=())")

    @pytest.mark.parametrize("group", ["equalities", "weak_ineqs", "strict_ineqs"])
    def test_linear_system_rejects_wrong_length(self, group):
        with pytest.raises(DimensionMismatchError):
            LinearSystem(3, **{group: (F(1, -1, 0), F(1, -1))})

    def test_linear_system_replace_validates(self):
        # _replace builds through _make, which runs the constructor
        with pytest.raises(DimensionMismatchError):
            LinearSystem(2)._replace(weak_ineqs=((1, 2, 3),))

    def test_feasibility_result(self):
        check_record(FeasibilityResult,
                     {"feasible": False, "witness": None,
                      "certificate": (("strict", 0, Fraction(1)),)},
                     defaults={"witness": None, "certificate": None})
        assert solve(LinearSystem(2)) == FeasibilityResult(True, (0, 0))


class TestSolve:
    def test_feasible_chain_with_equality(self):
        system = LinearSystem(
            3,
            equalities=(F(2, -3, 1),),
            weak_ineqs=(F(1, -1, 0), F(0, 1, -1)),
            strict_ineqs=(F(0, 3, -3),),
        )
        result = solve(system)
        assert result.feasible
        assert result.witness == (3, 2, 0)
        assert satisfies(system, result.witness)

    def test_antisymmetry_infeasible(self):
        system = LinearSystem(2, strict_ineqs=(F(1, -1), F(-1, 1)))
        result = solve(system)
        assert not result.feasible
        assert verify_certificate(system, result.certificate)

    def test_empty_system(self):
        result = solve(LinearSystem(3))
        assert result.feasible and result.witness == (0, 0, 0)

    def test_equalities_only(self):
        system = LinearSystem(3, equalities=(F(1, -1, 0), F(0, 1, -1)))
        result = solve(system)
        assert result.feasible
        assert satisfies(system, result.witness)

    def test_strict_zero_functional_infeasible(self):
        system = LinearSystem(2, strict_ineqs=(F(0, 0),))
        result = solve(system)
        assert not result.feasible
        assert verify_certificate(system, result.certificate)

    def test_infeasible_through_equalities(self):
        # w0 = w1 while w0 > w1
        system = LinearSystem(2, equalities=(F(1, -1),),
                              strict_ineqs=(F(1, -1),))
        result = solve(system)
        assert not result.feasible
        assert verify_certificate(system, result.certificate)

    def test_witness_scaling_and_translation(self):
        f = parse_poly("x1^3 + x0^2*x2 + x2^3", 2, 3)
        g = pattern_from_poly(parse_poly("x1^3 + x0^2*x2", 2, 3))
        system = stratum_system(f, g)
        w = solve(system).witness
        assert satisfies(system, tuple(7 * e for e in w))
        assert satisfies(system, tuple(e + 5 for e in w))

    def test_random_suite_quick(self):
        feasible, infeasible = run_solver_suite(Random(11), 60)
        assert feasible + infeasible == 60
        assert feasible > 0 and infeasible > 0

    def test_zero_columns_change_nothing(self):
        # solve eliminates only the columns some row holds: all-zero columns
        # leave the verdict and certificate as they are, and the witness
        # gains a 0 at each of them and nothing else
        rng = Random(13)
        for _ in range(300):
            system = random_system(rng)
            wide = system.dim + rng.randint(1, 4)
            zeros = set(rng.sample(range(wide), wide - system.dim))
            keep = [j for j in range(wide) if j not in zeros]

            def widened(group):
                out = []
                for f in group:
                    row = [0] * wide
                    for j, a in zip(keep, f):
                        row[j] = a
                    out.append(tuple(row))
                return tuple(out)

            result = solve(system)
            padded = solve(LinearSystem(
                wide, widened(system.equalities), widened(system.weak_ineqs),
                widened(system.strict_ineqs)))
            assert padded.feasible == result.feasible
            assert padded.certificate == result.certificate
            if result.feasible:
                assert [padded.witness[j] for j in keep] == list(result.witness)
                assert all(padded.witness[j] == 0 for j in zeros)

    def test_witness_self_check_raises(self, monkeypatch):
        monkeypatch.setattr(toricdegen.cones, "satisfies",
                            lambda system, w: False)
        system = LinearSystem(2, weak_ineqs=(F(1, -1),))
        with pytest.raises(CertificateError):
            solve(system)


class TestImplies:
    def test_chain_direct(self):
        cone = LinearSystem(3, weak_ineqs=(F(1, -1, 0),))
        assert implies(cone, (1, -1, 0))

    def test_weighted_combination(self):
        cone = LinearSystem(3, weak_ineqs=(F(1, -1, 0), F(0, 1, -1)))
        assert implies(cone, (2, -1, -1))

    def test_unbounded_false(self):
        assert not implies(LinearSystem(3), (1, 0, 0))

    def test_rejects_strict_cones(self):
        cone = LinearSystem(2, strict_ineqs=(F(1, -1),))
        with pytest.raises(DomainError):
            implies(cone, (1, -1))

    def test_difference_functional(self):
        assert difference_functional((0, 3, 0), (2, 0, 1)) == F(-2, 3, -1)


def _differences(n, d):
    exps = list(iter_exponents(n, d))
    return sorted({tuple(a - b for a, b in zip(u, v)) for u in exps for v in exps})


def _disagreements(g, tests):
    h = tuple(a - b for a, b in zip(g.u, g.v))
    cone = compatible_cone(g, tuple(range(g.n + 1)))
    return [f for f in tests if chain_implies(h, f) != implies(cone, f)]


class TestChainImplies:
    def test_matches_fm_oracle_exhaustively(self):
        # every pattern's identity cone against every exponent difference
        for n in (1, 2):
            for d in range(1, 5):
                exps = list(iter_exponents(n, d))
                tests = _differences(n, d)
                for i, u in enumerate(exps):
                    for v in exps[i + 1:]:
                        assert not _disagreements(BinomialPattern(u, v), tests)

    def test_matches_fm_oracle_sampled(self):
        rng = Random(31)
        for n in (3, 4):
            for _ in range(150):
                exps = list(iter_exponents(n, rng.randint(2, 6)))
                u, v, a, b = (rng.choice(exps) for _ in range(4))
                if u == v:
                    continue
                f = tuple(x - y for x, y in zip(a, b))
                assert not _disagreements(BinomialPattern(u, v), [f]), (u, v)

    def test_known_instances(self):
        # cone of x1^3 - x0^2*x2 under 0 > 1 > 2: 3w1 = 2w0 + w2
        h = (-2, 3, -1)
        assert chain_implies(h, (1, 0, -1))
        assert not chain_implies(h, (-1, 0, 1))
        assert chain_implies((0, 0, 0), (2, -1, -1))
        assert not chain_implies((0, 0, 0), (-1, 1, 0))

    def test_rejects_unbalanced_functionals(self):
        with pytest.raises(DomainError):
            chain_implies((1, -1, 0), (1, 0, 0))
        with pytest.raises(DomainError):
            chain_implies((1, 0, 0), (1, -1, 0))
        with pytest.raises(DimensionMismatchError):
            chain_implies((1, -1), (1, -1, 0))
