"""Property tests: solve's infeasibility certificates check out, and
verify_certificate rejects certificates that are certain to be invalid."""

from fractions import Fraction

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

    positive = [k for k, (kind, _i, mult) in enumerate(cert)
                if kind != "eq" and mult > 0]
    assert positive  # a valid certificate uses some strict entry positively
    for k in positive:
        kind, idx, mult = cert[k]
        negated = cert[:k] + [(kind, idx, -mult)] + cert[k + 1:]
        assert not verify_certificate(system, negated)

    no_strict = [entry for entry in cert if entry[0] != "strict"]
    assert not verify_certificate(system, no_strict)
