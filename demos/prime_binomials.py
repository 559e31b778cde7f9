"""Classifying two-term polynomials and enumerating prime patterns.

A binomial generates a prime ideal exactly when its two monomials share no
variable and their exponents are jointly coprime.  Each enumeration is
printed beside the closed-form count of count_prime_patterns, and a
mismatch stops the demo.  Run:

    python demos/prime_binomials.py
"""

from toricdegen import classify_poly, enumerate_patterns, format_poly, parse_poly
from toricdegen.binomials import count_prime_patterns
from toricdegen.poly import HomogPoly

for text, n, d in [
    ("x1^3 + x0^2*x2", 2, 3),      # prime
    ("x0^2 - x1^2", 1, 2),          # difference of squares
    ("x0*x1 - x0*x2", 2, 2),        # common factor x0
    ("x0^3 - x1^3", 1, 3),          # cube minus cube
]:
    verdict = classify_poly(parse_poly(text, n, d))
    extra = f" (k = {verdict.power})" if verdict.power else ""
    print(f"{text:>18}  ->  {verdict.tag}{extra}")

print()
for n, d in [(2, 2), (2, 3), (3, 3), (4, 8)]:
    patterns = enumerate_patterns(n, d)
    count = count_prime_patterns(n, d)
    print(f"n={n}, d={d}: {len(patterns)} prime patterns, "
          f"{count} by the closed form")
    if count != len(patterns):
        raise SystemExit(f"closed-form count {count} != {len(patterns)}")
    for g in patterns[:4]:
        lhs = format_poly(HomogPoly(n, d, {g.u: 1}))
        rhs = format_poly(HomogPoly(n, d, {g.v: 1}))
        print(f"   {lhs} - {rhs}")
    if len(patterns) > 4:
        print("   ...")
