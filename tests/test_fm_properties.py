"""Property tests: solve's infeasibility certificates check out,
verify_certificate rejects certificates that are certain to be invalid, and
solve agrees with a brute-force search of a small rational grid."""

from fractions import Fraction
from itertools import product
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from toricdegen import LinearSystem, solve, verify_certificate


@st.composite
def infeasible_systems(draw):
    """A random system plus one strict inequality that contradicts it.

    The added constraint is minus a nonnegative combination of the others
    with a positive weight on some strict one (or on nothing, giving 0 > 0),
    so the sum derives 0 > 0 and the system is infeasible by construction.
    """
    dim = draw(st.integers(1, 4))
    func = st.tuples(*[st.integers(-3, 3)] * dim)
    eqs = draw(st.lists(func, max_size=2))
    weak = draw(st.lists(func, max_size=3))
    strict = draw(st.lists(func, max_size=2))
    eq_mult = draw(st.lists(st.integers(-2, 2), min_size=len(eqs),
                            max_size=len(eqs)))
    weak_mult = draw(st.lists(st.integers(0, 2), min_size=len(weak),
                              max_size=len(weak)))
    strict_mult = draw(st.lists(st.integers(0, 2), min_size=len(strict),
                                max_size=len(strict)))
    total = [0] * dim
    for group, mults in ((eqs, eq_mult), (weak, weak_mult),
                         (strict, strict_mult)):
        for f, c in zip(group, mults):
            total = [t + c * a for t, a in zip(total, f)]
    strict.append(tuple(-t for t in total))
    order = draw(st.permutations(range(len(strict))))

    def fracs(group):
        return tuple(tuple(Fraction(a) for a in f) for f in group)

    return LinearSystem(dim, fracs(eqs), fracs(weak),
                        fracs(strict[i] for i in order))


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
@hypothesis.given(infeasible_systems())
def test_certificates_verify_and_mutations_fail(system):
    result = solve(system)
    assert not result.feasible
    cert = list(result.certificate)
    assert verify_certificate(system, cert)
    mults = [mult for _kind, _i, mult in cert]
    assert all(type(mult) is int for mult in mults)
    assert gcd(*mults) == 1

    positive = [k for k, (kind, _i, mult) in enumerate(cert)
                if kind != "eq" and mult > 0]
    assert positive  # a valid certificate uses some strict entry positively
    for k in positive:
        kind, idx, mult = cert[k]
        negated = cert[:k] + [(kind, idx, -mult)] + cert[k + 1:]
        assert not verify_certificate(system, negated)

    no_strict = [entry for entry in cert if entry[0] != "strict"]
    assert not verify_certificate(system, no_strict)


# Brute-force oracle: the points w = k/2 with every k_i in [-4, 4].  Signs of
# f(w) and f(k) agree, so the grid is searched on the integers k.
_GRID_HALF_WIDTH = 4


def _holds(system, w) -> bool:
    def value(f):
        return sum(a * b for a, b in zip(f, w))

    return (all(value(f) == 0 for f in system.equalities)
            and all(value(f) >= 0 for f in system.weak_ineqs)
            and all(value(f) > 0 for f in system.strict_ineqs))


@st.composite
def small_systems(draw):
    dim = draw(st.integers(1, 3))
    func = st.tuples(*[st.integers(-2, 2).map(Fraction)] * dim)
    return LinearSystem(dim, tuple(draw(st.lists(func, max_size=2))),
                        tuple(draw(st.lists(func, max_size=3))),
                        tuple(draw(st.lists(func, max_size=3))))


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(small_systems())
def test_solve_agrees_with_grid_oracle(system):
    axis = range(-_GRID_HALF_WIDTH, _GRID_HALF_WIDTH + 1)
    on_grid = any(_holds(system, k) for k in product(axis, repeat=system.dim))
    result = solve(system)
    if result.feasible:
        assert _holds(system, result.witness)
    else:
        assert not on_grid
        assert verify_certificate(system, list(result.certificate))
