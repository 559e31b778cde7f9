"""The (n, d) domain every command admits.

These rules need only integers, so a command that certifies from integer
ranks alone reads them without running the polynomial layer.  Read them
through this module: MAX_AMBIENT is the one value that sets the limit.
"""

from __future__ import annotations

from math import comb

from .errors import DomainError

# Largest ambient dimension C(n+d, d) admitted, which fixes the (n, d)
# domain of every command.  Sampling and the rank certificates read only
# the face, 1 + (n-1)*d coefficients, so their cost does not depend on it.
MAX_AMBIENT = 500_000


def check_ambient(n: int, d: int) -> None:
    """Reject a negative n or d, and (n, d) with more than MAX_AMBIENT
    degree-d exponents, or more than MAX_AMBIENT variables (which C(n+d, d)
    misses at d = 0).

    For m = min(n, d), C(n+d, d) >= C(2m, m) >= 2^m, so 2^m past the limit
    rejects at once; otherwise m <= 18, and comb multiplies at most 18
    factors.
    """
    if n < 0 or d < 0:
        raise DomainError(f"need n >= 0 and d >= 0, got n={n}, d={d}")
    if n + 1 > MAX_AMBIENT:
        raise DomainError(
            f"{n + 1} variables at n={n} exceed the limit of {MAX_AMBIENT}")
    if 2 ** min(n, d) > MAX_AMBIENT or comb(n + d, d) > MAX_AMBIENT:
        raise DomainError(
            f"ambient dimension C({n + d}, {d}) at n={n}, d={d} exceeds the "
            f"limit of {MAX_AMBIENT}")


def check_domain(n: int, d: int) -> None:
    """Reject n < 2 or d < 2, the certificates' domain, then run
    check_ambient."""
    if n < 2 or d < 2:
        raise DomainError(f"need n >= 2 and d >= 2, got n={n}, d={d}")
    check_ambient(n, d)
