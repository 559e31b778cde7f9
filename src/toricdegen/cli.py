"""Command-line front end with deterministic JSON output.

Every command takes an explicit --seed; repeated runs with identical seed
and flags produce byte-identical output.  Exact rational values are emitted
as strings like "5/2" so nothing is rounded through floating point.  Exit
codes come from the exception a command raises, never from its return:
0 success / claims verified; 2 GenericityError, sampled points short of the
generic rank (nonexist, verify-lemma), or CertificateError, a wrong
certificate (a sweep row off d <= 2n - 1, a verify-lemma rank above the
law, a verify-lemma sample with c[x1^d] = 0, whose block rank its key rank
does not give); 64 UsageError, or a bad command line, whose argparse
exit 2 main maps to 64; 74 stdout closed before the output ended
(EX_IOERR).  main alone chooses the status.  Every exit 2 and 64 names its
cause on stderr, an exit 2 line ending with "(seed S)"; 1 comes only from
an uncaught exception, which is a bug.  JSON is printed as
json.dumps(payload, indent=2) by the standard library's encoder; only the
enumerate-binomials listing is streamed, row by row as it is drawn, so
after exit 2 or 74 stdout may stop partway through it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable, Iterator
from math import comb
from random import Random
from typing import Sequence

# each layer is read through its module, whose body runs on first use, so
# a command runs only the layers it calls
from . import binomials, cones, family, linalg, poly, theorem
from .errors import CertificateError, DomainError, GenericityError, UsageError


def _json_pieces(payload: dict) -> Iterator[str]:
    """The text of json.dumps(payload, indent=2) plus a newline, in pieces.
    A value that is an iterator, the listing's patterns, yields JSON rows
    already laid out at depth 4, which are written as they are drawn."""
    head = "{\n  "
    for key, value in payload.items():
        yield f"{head}{json.dumps(key)}: "
        head = ",\n  "
        if not isinstance(value, Iterator):
            # strings are printed with \n escaped, so each newline is layout
            yield json.dumps(value, indent=2).replace("\n", "\n  ")
            continue
        sep = "[\n    "
        for row in value:
            yield sep + row
            sep = ",\n    "
        yield "[]" if sep[0] == "[" else "\n  ]"
    yield "{}\n" if head[0] == "{" else "\n}\n"


def _write(pieces: Iterable[str]) -> None:
    """Write pieces to stdout as they come, about 64 KiB per call."""
    buf, size = [], 0
    for piece in pieces:
        buf.append(piece)
        size += len(piece)
        if size >= 65536:
            sys.stdout.write("".join(buf))
            buf, size = [], 0
    sys.stdout.write("".join(buf))


def _emit(payload: dict, fmt: str, table_lines) -> None:
    if fmt == "json":
        _write(_json_pieces(payload))
    else:
        _write(line + "\n" for line in table_lines(payload))


def _kv_lines(payload: dict, prefix: str = "") -> Iterator[str]:
    """'key = value' lines; a value that is an iterator gives its own lines."""
    for key, value in payload.items():
        if isinstance(value, dict):
            yield from _kv_lines(value, f"{prefix}{key}.")
        elif isinstance(value, Iterator):
            yield from value
        elif isinstance(value, (list, tuple)):
            yield f"{prefix}{key} = {json.dumps(value)}"
        else:
            yield f"{prefix}{key} = {value}"


# ---------------------------------------------------------------------------
# commands

def cmd_verify_lemma(args) -> None:
    n, d = args.n, args.d
    poly.check_domain(n, d)
    family.check_samples(args.samples)
    rng = Random(args.seed)
    ambient = comb(n + d, d)
    bound = family.structural_rank_bound(n, d)
    expected_min = bound - (ambient - d + 1)
    expected_codim = ambient - bound
    # one point at a time: ranks never draw from rng, so the points drawn
    # do not depend on when they are ranked.  Each point's block ranks
    # 1 + its key rank, so the best block is the best key matrix's
    best_key = -1
    for _ in range(args.samples):
        point = family.sample_family(n, d, rng, args.bound)
        family.check_spike(point)
        best_key = max(best_key, linalg.rank(family.key_matrix(point)))
    best = linalg.RankReport.of(ambient - d + 1 + best_key, ambient)
    payload = {
        "n": n,
        "d": d,
        "seed": args.seed,
        "key_matrix_rank": best_key,
        "expected_min": expected_min,
        "differential_rank": best.rank,
        "ambient": best.ambient,
        "codim": best.codim,
        "expected_codim": expected_codim,
        "surjective": best.surjective,
        "method": best.method,
    }
    _emit(payload, args.format, _kv_lines)
    # the key matrix's shape caps its rank at expected_min, so only a wrong
    # certificate gets past the law; codim falls as the key rank rises
    if best_key > expected_min:
        raise CertificateError(
            f"ranks past the law at n={n}, d={d}: key rank {best_key}, at "
            f"most {expected_min}; codim {best.codim}, at least "
            f"{expected_codim}")
    if best_key < expected_min:
        raise GenericityError(f"best sampled key rank {best_key} < "
                              f"{expected_min} at n={n}, d={d}")


def cmd_witness(args) -> None:
    n, d = args.n, args.d
    rng = Random(args.seed)
    bundle = theorem.existence_witness(n, d, rng, args.bound)
    payload = {
        "n": n,
        "d": d,
        "seed": args.seed,
        "poly": poly.format_poly(bundle.point.to_poly()),
        "omega": [*map(str, bundle.omega)],
        "initial": poly.format_poly(bundle.initial),
        "initial_support": [list(u) for u in bundle.initial.support()],
        "verdict": bundle.verdict._asdict(),
        "dominance": bundle.dominance._asdict(),
    }
    _emit(payload, args.format, _kv_lines)


def _sweep_table(payload: dict) -> list[str]:
    header = f"{'n':>3} {'d':>3} {'ambient':>8} {'rank':>6} {'codim':>6} {'degenerable':>12} {'expected':>9}"
    lines = [header, "-" * len(header)]
    for row in payload["rows"]:
        lines.append(f"{row['n']:>3} {row['d']:>3} {row['ambient']:>8} "
                     f"{row['generic_rank']:>6} {row['codim']:>6} "
                     f"{str(row['degenerable']):>12} {str(row['expected']):>9}")
    lines.append(f"all_match = {payload['all_match']}")
    return lines


def cmd_sweep(args) -> None:
    n_max, d_max = args.n_max, args.d_max
    rows = theorem.threshold_sweep(n_max, d_max)
    payload = {
        "n_max": n_max,
        "d_max": d_max,
        "seed": args.seed,
        "rows": [{**row._asdict(), "expected": row.d <= 2 * row.n - 1}
                 for row in rows],
        "all_match": True,
    }
    _emit(payload, args.format, _sweep_table)


def cmd_classify(args) -> None:
    f = poly.parse_poly(args.poly, args.n, args.d)
    verdict = binomials.classify_poly(f)
    payload = {
        "n": args.n,
        "d": args.d,
        "poly": poly.format_poly(f),
        "verdict": verdict._asdict(),
    }
    _emit(payload, args.format, _kv_lines)


def cmd_stratum(args) -> None:
    f = poly.parse_poly(args.f, args.n, args.d)
    g_poly = poly.parse_poly(args.g, args.n, args.d)
    pattern = binomials.pattern_from_poly(g_poly)
    if pattern is None:
        raise DomainError("the binomial argument must have exactly two terms")
    system = cones.stratum_system(f, pattern)
    result = cones.solve(system)
    payload = {
        "n": args.n,
        "d": args.d,
        "f": poly.format_poly(f),
        "g": poly.format_poly(g_poly),
        "equalities": [[*map(str, fn)] for fn in system.equalities],
        "strict_ineqs": [[*map(str, fn)] for fn in system.strict_ineqs],
        "feasible": result.feasible,
        "witness": [*map(str, result.witness)] if result.feasible else None,
        "certificate": (None if result.feasible else
                        [{"kind": kind, "index": idx, "multiplier": str(mult)}
                         for kind, idx, mult in result.certificate]),
    }
    _emit(payload, args.format, _kv_lines)


# one pattern's JSON row, nested at 4, from u's list, v's slots and lhs;
# rhs is left as %s
_PATTERN = ('{\n      "u": [\n        %s\n      ],\n      "v": [\n        %s'
            '\n      ],\n      "lhs": "%s",\n      "rhs": "%%s"\n    }')


def _pattern_rows(n: int, d: int, count: int, table: bool) -> Iterator[str]:
    """Each listed pattern's text, built from its exponent pair (u, v): the
    line 'lhs  |  rhs', or its row of the JSON list, nested at 4."""
    # x{i}^{e} at [i][e]; none when nothing is listed, as at n = 1, where
    # d may reach 499,999
    names = [[f"x{i}^{e}" if e > 1 else f"x{i}" for e in range(d + 1)]
             for i in range(n + 1)] if count else []
    slots = ",\n        ".join(["%d"] * (n + 1))
    last = None
    for u, v in binomials.listed_pairs(n, d, count):
        if u != last:
            # the row of every pattern with this u, v and rhs left open
            last, lhs = u, "*".join([names[i][e] for i, e in enumerate(u) if e])
            row = f"{lhs}  |  %s" if table else _PATTERN % (
                ",\n        ".join(map(str, u)), slots, lhs)
        rhs = "*".join([names[i][e] for i, e in enumerate(v) if e])
        yield row % rhs if table else row % (*v, rhs)


def cmd_enumerate(args) -> None:
    count = binomials.check_listing_budget(args.n, args.d)
    payload = {
        "n": args.n,
        "d": args.d,
        "count": count,
        "patterns": _pattern_rows(args.n, args.d, count,
                                  args.format == "table"),
    }
    _emit(payload, args.format, _kv_lines)


def cmd_nonexist(args) -> None:
    n, d = args.n, args.d
    rng = Random(args.seed)
    report = theorem.nonexistence_certificate(n, d, args.samples, rng,
                                              args.bound)
    payload = {"n": n, "d": d, "seed": args.seed, **report._asdict()}
    _emit(payload, args.format, _kv_lines)


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    # each flag is declared once, on a parent; a command takes its flags in
    # the order of its parents
    nd, common, samples, bound, grid, poly_text, pair = (
        argparse.ArgumentParser(add_help=False) for _ in range(7))
    nd.add_argument("--n", type=int, required=True,
                    help="ambient projective dimension")
    nd.add_argument("--d", type=int, required=True, help="hypersurface degree")
    common.add_argument("--seed", type=int, default=1, help="seed determining "
                        "every random draw (default %(default)s)")
    common.add_argument("--format", choices=("json", "table"), default="json",
                        help="output format (default %(default)s)")
    samples.add_argument("--samples", type=int, default=3, help="sampled "
                         "family members per certificate (default %(default)s)")
    bound.add_argument("--bound", type=int, default=1000, help="coefficient "
                       "bound for sampling (default %(default)s)")
    grid.add_argument("--n-max", type=int, required=True)
    grid.add_argument("--d-max", type=int, required=True)
    poly_text.add_argument("--poly", required=True, help="polynomial text")
    pair.add_argument("--f", required=True, help="polynomial text")
    pair.add_argument("--g", required=True, help="two-term polynomial text")

    parser = argparse.ArgumentParser(
        prog="toricdegen", description="Exact certificates for toric "
        "degenerations of general hypersurfaces.")
    subs = parser.add_subparsers(dest="command", required=True)
    sampled = (nd, common, samples, bound)
    for name, func, parents, text in (
        ("verify-lemma", cmd_verify_lemma, sampled, "check the key matrix "
         "rank and differential codimension formulas"),
        ("witness", cmd_witness, (nd, common, bound), "produce a "
         "prime-binomial initial form witness with its dominance report"),
        ("sweep", cmd_sweep, (grid, common),
         "threshold sweep over a (n, d) grid"),
        ("classify", cmd_classify, (poly_text, nd, common),
         "classify a two-term polynomial"),
        ("stratum", cmd_stratum, (pair, nd, common), "feasibility of a "
         "binomial being the initial form of a polynomial"),
        ("enumerate-binomials", cmd_enumerate, (nd, common),
         "list all prime support patterns"),
        ("nonexist", cmd_nonexist, sampled,
         "non-existence certificate past the threshold"),
    ):
        subs.add_parser(name, parents=parents, help=text).set_defaults(
            func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a bad command line
        return 64 if exc.code else 0
    try:
        try:
            args.func(args)
        finally:
            sys.stdout.flush()  # a closed pipe surfaces here, not at exit
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so the flush at exit
        # stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 74
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64
    except GenericityError as exc:
        print(f"genericity failure: {exc} (seed {args.seed})", file=sys.stderr)
        return 2
    except CertificateError as exc:
        print(f"certificate failure: {exc} (seed {args.seed})",
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
