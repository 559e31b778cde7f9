"""Weight-cone feasibility: witnesses and infeasibility certificates.

The solver eliminates equalities by substitution and inequalities by
Fourier-Motzkin, tracking strictness; feasible systems come back with an
exact rational witness, infeasible ones with a nonnegative combination of
constraints deriving 0 > 0.  Run:

    python demos/weight_cones.py
"""

from fractions import Fraction

from toricdegen import (
    LinearSystem,
    parse_poly,
    pattern_from_poly,
    satisfies,
    solve,
    stratum_system,
    verify_certificate,
)

# when is x1^3 + x0^2*x2 the initial form of f?
f = parse_poly("x1^3 + x0^2*x2 + x2^3", 2, 3)
g = pattern_from_poly(parse_poly("x1^3 + x0^2*x2", 2, 3))
system = stratum_system(f, g)
result = solve(system)
print("stratum witness:", tuple(map(int, result.witness)))
print("substitutes cleanly:", satisfies(system, result.witness))

# contradictory strict preferences
bad = LinearSystem(2, strict_ineqs=((Fraction(1), Fraction(-1)),
                                    (Fraction(-1), Fraction(1))))
result = solve(bad)
print("\nw0 > w1 and w1 > w0 feasible?", result.feasible)
print("certificate:", result.certificate)
print("certificate expands to 0 > 0:", verify_certificate(bad, result.certificate))
