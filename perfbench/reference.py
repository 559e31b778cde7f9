"""A fixed amount of work that gauges how fast the machine runs right now.

    python3 -S perfbench/reference.py

Prints the seconds the work took, timed inside this process so that
interpreter start-up is left out.  On a shared virtual machine the host
changes the speed of every process by up to about 1.5x for minutes at a
time; spawn.py runs this between passes and run.py divides the timings of
a run by its median, so that a run in a slow spell and a run in a fast one
report the same figures for the same code.

The work is of the kind toricdegen spends its time on: products of sparse
polynomials with Fraction coefficients in dicts keyed by exponent tuples,
then elimination mod a prime over dict rows.  Its inputs are the same on
every run and it imports nothing from toricdegen, so a change to the
program cannot change it.
"""

import json
import random
from fractions import Fraction
from time import perf_counter

PRIME = 2_147_483_629
ROUNDS = 3


def _poly(rng, n, terms):
    out = {}
    while len(out) < terms:
        e = [0] * (n + 1)
        for _ in range(3):
            e[rng.randrange(n + 1)] += 1
        out[tuple(e)] = Fraction(rng.randrange(1, 97), rng.randrange(1, 13))
    return out


def _product(f, g):
    out = {}
    for u, cu in f.items():
        for v, cv in g.items():
            uv = tuple(a + b for a, b in zip(u, v))
            out[uv] = out.get(uv, Fraction(0)) + cu * cv
    return out


def _rank_mod_p(rows, p):
    pivots = {}
    for row in rows:
        r = {c: v.numerator * pow(v.denominator, -1, p) % p
             for c, v in row.items()}
        while r:
            c = min(r)
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = r
                break
            factor = r[c] * pow(piv[c], -1, p) % p
            for cc, vv in piv.items():
                nv = (r.get(cc, 0) - factor * vv) % p
                if nv:
                    r[cc] = nv
                else:
                    r.pop(cc, None)
    return len(pivots)


def work():
    """The fixed work; returns a checksum so that none of it is skipped."""
    rng = random.Random(0)
    polys = [_poly(rng, 5, 12) for _ in range(24)]
    total = 0
    for _ in range(ROUNDS):
        rows = [_product(f, g) for f in polys for g in polys[:3]]
        columns = {e: k for k, e in enumerate(sorted({e for r in rows for e in r}))}
        total += _rank_mod_p([{columns[e]: v for e, v in r.items()}
                              for r in rows], PRIME)
    return total


def main():
    start = perf_counter()
    checksum = work()
    print(json.dumps({"seconds": perf_counter() - start,
                      "checksum": checksum}))


if __name__ == "__main__":
    main()
