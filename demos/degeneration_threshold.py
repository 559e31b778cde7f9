"""The degeneration threshold d <= 2n - 1, at desk scale.

A general degree-d hypersurface in projective n-space moves, under linear
changes of coordinates, into the restricted family whose initial form is a
prime binomial; whether that construction covers a dense open set of all
forms is decided by the rank of the differential generators.  Run:

    python demos/degeneration_threshold.py
"""

from random import Random

from toricdegen import (
    differential_rank,
    existence_witness,
    format_poly,
    key_matrix,
    nonexistence_certificate,
    sample_family,
    threshold_sweep,
)

rng = Random(1)

point = sample_family(2, 3, rng)
print("sampled family member:", format_poly(point.to_poly()))
print("key matrix:", [list(row) for row in key_matrix(point)])
report = differential_rank(point)
print("differential rank:", report.rank, "of", report.ambient,
      "->", "surjective" if report.surjective else f"codim {report.codim}")

bundle = existence_witness(2, 3, rng)
print("\nwitness initial form:", format_poly(bundle.initial),
      "->", bundle.verdict.tag)

print("\nsweep (degenerable iff d <= 2n-1):")
for row in threshold_sweep(3, 7):
    mark = "yes" if row.degenerable else "no "
    print(f"  n={row.n} d={row.d}: rank {row.generic_rank}/{row.ambient}"
          f"  degenerable {mark} (threshold {2 * row.n - 1})")

cert = nonexistence_certificate(2, 4, 2, rng)
print("\nfirst non-degenerable case n=2, d=4:")
print("  codim bound:", cert.codim_bound, "sampled:", cert.sampled_codims)
print("  strata checked:", cert.strata_checked, "all reduced:",
      cert.strata_reduced)
