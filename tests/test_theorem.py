import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from random import Random

import pytest

import toricdegen.theorem
from toricdegen import (
    BinomialPattern,
    CertificateError,
    DomainError,
    GenericityError,
    NonexistenceReport,
    StrataSurvey,
    SweepRow,
    WitnessBundle,
    classify,
    dominance_certificate,
    enumerate_patterns,
    initial_form,
    nonexistence_certificate,
    strata_survey,
    sweep_row_matches,
    threshold_sweep,
    witness_weight,
    existence_witness,
)
from toricdegen.binomials import count_prime_patterns
from toricdegen.family import check_samples
from toricdegen.theorem import _check_shape, _shape_classes
from helpers import (_cone_within, _is_normalized, _normalize, _relabel,
                     _split_terms, _support, check_record,
                     forbid_pattern_generation, forced_blocks, patched_support,
                     pattern_verdicts, shape_class, shape_survey,
                     strata_reduction_check, stuck_sampler, support_shapes)


class TestWitnessWeight:
    def test_n2_d3(self):
        assert witness_weight(2, 3) == (3, 2, 0)

    def test_n4_d5(self):
        assert witness_weight(4, 5) == (5, 4, 0, -1, -2)

    def test_constraints_hold_on_grid(self):
        for n in range(2, 6):
            for d in range(2, 13):
                w = witness_weight(n, d)
                assert len(w) == n + 1
                assert all(a > b for a, b in zip(w, w[1:]))
                assert (d - 1) * w[0] + w[2] == d * w[1]

    def test_domain(self):
        with pytest.raises(DomainError):
            witness_weight(1, 3)


class TestExistenceWitness:
    def check_bundle(self, bundle, n, d):
        x1d = tuple(d if i == 1 else 0 for i in range(n + 1))
        lead = tuple(d - 1 if i == 0 else (1 if i == 2 else 0)
                     for i in range(n + 1))
        assert set(bundle.initial.support()) == {x1d, lead}
        assert bundle.verdict.tag == "Prime"
        # recompute from scratch
        recomputed = initial_form(bundle.point.to_poly(), bundle.omega)
        assert recomputed == bundle.initial
        assert classify(
            BinomialPattern(*bundle.initial.support(),
                            *[c for _u, c in bundle.initial.terms()])).is_prime

    def test_surjective_at_2_3(self):
        bundle = existence_witness(2, 3, Random(1))
        self.check_bundle(bundle, 2, 3)
        assert bundle.dominance.surjective

    def test_not_surjective_at_2_4(self):
        bundle = existence_witness(2, 4, Random(2))
        self.check_bundle(bundle, 2, 4)
        assert not bundle.dominance.surjective
        assert bundle.dominance.codim == 1

    def test_boundary_at_3_5(self):
        bundle = existence_witness(3, 5, Random(3))
        self.check_bundle(bundle, 3, 5)
        assert bundle.dominance.surjective

    def test_dominance_is_the_certificate(self, monkeypatch):
        # one draw per witness, at every bound; the report is (n, d)'s own
        sample, draws = toricdegen.family.sample_family, []
        monkeypatch.setattr(toricdegen.family, "sample_family",
                            lambda *args: draws.append(args) or sample(*args))
        for n in range(2, 7):
            for d in range(2, 14):
                report = dominance_certificate(n, d)
                for bound in (2, 3, 1000):
                    for seed in range(5):
                        bundle = existence_witness(n, d, Random(seed), bound)
                        assert bundle.dominance == report, (n, d, seed, bound)
        assert len(draws) == 5 * 12 * 3 * 5

    def test_witness_exists_far_past_threshold(self):
        bundle = existence_witness(2, 100, Random(4))
        self.check_bundle(bundle, 2, 100)
        assert not bundle.dominance.surjective
        assert bundle.dominance.codim == 97  # (d-1) - min(d-1, 2n-2)


class TestResampleBudget:
    @pytest.mark.parametrize("certify", [
        lambda rng: nonexistence_certificate(3, 6, 3, rng),
    ], ids=["nonexist"])
    def test_gives_up_after_the_budget(self, monkeypatch, certify):
        draws = stuck_sampler(monkeypatch)
        with pytest.raises(GenericityError):
            certify(Random(1))
        assert len(draws) == 1 + toricdegen.theorem._RESAMPLE_BUDGET == 6

    def test_witness_draws_once(self, monkeypatch):
        # the stuck point falls short of the structural bound, but the
        # witness takes its dominance report from the dominance point, not
        # from the draw
        draws = stuck_sampler(monkeypatch)
        bundle = existence_witness(3, 5, Random(1))
        assert draws == [(3, 5)]
        assert bundle.verdict.is_prime
        assert bundle.dominance == dominance_certificate(3, 5)
        assert bundle.dominance.surjective


class TestDominance:
    def test_examples(self):
        assert dominance_certificate(2, 3).surjective
        report = dominance_certificate(2, 4)
        assert report.rank == 14 and report.ambient == 15
        assert dominance_certificate(4, 7).surjective

    def test_samples_positive(self):
        with pytest.raises(DomainError):
            check_samples(0)


class TestStrataReduction:
    def test_direct_instance_2_4(self):
        g = BinomialPattern((0, 4, 0), (3, 0, 1), 1, -1)
        assert strata_reduction_check(2, 4, g, (0, 1, 2))

    def test_direct_instance_2_2(self):
        g = BinomialPattern((0, 2, 0), (1, 0, 1), 1, -1)
        assert strata_reduction_check(2, 2, g, (0, 1, 2))

    def test_normalization_case(self):
        # leading term supported strictly below the other term's first index
        g = BinomialPattern((2, 2, 0, 0), (0, 0, 3, 1), 1, -1)
        assert strata_reduction_check(3, 4, g, (0, 1, 2, 3))
        # pure power leading term
        g2 = BinomialPattern((4, 0, 0), (0, 3, 1), 1, -1)
        assert strata_reduction_check(2, 4, g2, (0, 1, 2))

    def test_all_orderings_of_an_instance(self):
        g = BinomialPattern((0, 3, 0), (2, 0, 1), 1, -1)
        for ordering in itertools.permutations(range(3)):
            assert strata_reduction_check(2, 3, g, ordering)

    def test_second_term_index_positive(self):
        for g in [BinomialPattern((0, 4, 0), (3, 0, 1)),
                  BinomialPattern((4, 0, 0), (0, 3, 1)),
                  BinomialPattern((1, 0, 3), (0, 4, 0))]:
            _lead, _other, p, q = _split_terms(g.u, g.v)
            assert q > p >= 0
            assert q > 0

    def test_requires_prime(self):
        g = BinomialPattern((2, 0, 0), (0, 2, 0))
        with pytest.raises(DomainError):
            strata_reduction_check(2, 2, g, (0, 1, 2))

    @pytest.mark.parametrize("ordering", [(0, 1, -1), (0, 1, 2, 3), (0, 0, 1)])
    def test_ordering_must_be_a_permutation(self, ordering):
        g = BinomialPattern((0, 4, 0), (3, 0, 1), 1, -1)
        with pytest.raises(DomainError, match="not a permutation"):
            strata_reduction_check(2, 4, g, ordering)

    @pytest.mark.parametrize("n,d", [(2, 4), (2, 5), (2, 6), (2, 7), (2, 8),
                                     (3, 6), (3, 7), (3, 8), (3, 9), (4, 8)])
    def test_lead_below_other_forces_one_run(self, n, d):
        # When the leading term lies wholly below the other term, the cone
        # forces equal weights exactly from p to the other term's last index,
        # and swapping l with q inside that run normalizes the pattern.
        seen = 0
        for g in enumerate_patterns(n, d):
            lead, other, p, q = _split_terms(g.u, g.v)
            last = max(_support(lead))
            if last >= q:
                continue
            seen += 1
            m = max(_support(other))
            runs = [run for run in forced_blocks(g) if len(run) > 1]
            assert runs == [list(range(p, m + 1))], g
            assert p <= last < q <= m
            swap = list(range(n + 1))
            swap[last], swap[q] = q, last
            cand = (_relabel(g.u, swap), _relabel(g.v, swap))
            assert _is_normalized(*cand) and _cone_within(g.u, g.v, *cand), g
            assert _normalize(g.u, g.v) == cand
        assert seen


class TestStrataSurvey:
    def test_full_at_2_4(self):
        survey = strata_survey(2, 4)
        assert survey.full and survey.passed
        assert survey.checked == 6 * 6  # 6 prime patterns x 3! orderings

    def test_sampled_mode_removed(self):
        with pytest.raises(DomainError):
            strata_survey(3, 5, full=False)

    @pytest.mark.parametrize("n,d", [(2, 4), (2, 5), (3, 6)])
    def test_one_check_per_pattern_covers_every_ordering(self, n, d):
        # relabeling maps the prime patterns onto themselves, and each
        # (pattern, ordering) stratum passes on its own
        patterns = enumerate_patterns(n, d)
        expected = {frozenset((g.u, g.v)) for g in patterns}
        for ordering in itertools.permutations(range(n + 1)):
            relabeled = {frozenset((_relabel(g.u, ordering),
                                    _relabel(g.v, ordering)))
                         for g in patterns}
            assert relabeled == expected, ordering
            for g in patterns:
                assert strata_reduction_check(n, d, g, ordering), (g, ordering)
        survey = strata_survey(n, d)
        assert survey.passed
        assert survey.checked == len(patterns) * math.factorial(n + 1)

    def test_pattern_budget(self):
        # the survey checks one shape per class, so only the ambient limit
        # bounds it: (30, 3) has 9,295,660 support shapes in 14 classes
        survey = strata_survey(30, 3)
        assert survey.passed and survey.checked == (
            count_prime_patterns(30, 3) * math.factorial(31))
        with pytest.raises(DomainError, match="ambient dimension"):
            strata_survey(40, 40)
        survey = strata_survey(6, 13)
        assert survey.passed and survey.checked == 1456434 * 5040

    def test_builds_no_pattern_objects(self, monkeypatch):
        # the survey streams exponent tuples; None makes any BinomialPattern
        # construction fail
        import toricdegen
        for module in vars(toricdegen).values():
            if hasattr(module, "BinomialPattern"):
                monkeypatch.setattr(module, "BinomialPattern", None)
        survey = strata_survey(3, 7)
        assert survey.passed and survey.checked == 240 * 24

    def test_generates_no_pattern(self, monkeypatch):
        forbid_pattern_generation(monkeypatch)
        survey = strata_survey(6, 12)
        assert survey.passed and survey.checked == 942102 * 5040

    def test_shape_total_must_match_closed_form(self, monkeypatch):
        import toricdegen.theorem as theorem
        classes = theorem._shape_classes
        monkeypatch.setattr(theorem, "_shape_classes",
                            lambda n, d: list(classes(n, d))[1:])
        # the first class, a single variable below two others, has 4 shapes
        # such as (0,) / (1, 2), whose x0^6 faces x1*x2^5 and x1^5*x2
        with pytest.raises(CertificateError, match="112 prime patterns on "
                                                   "the shape classes at "
                                                   "n=3, d=6, but the closed "
                                                   "form counts 120"):
            strata_survey(3, 6)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 9])
    def test_classes_match_the_per_shape_survey(self, n):
        # each class's representative verdict and closed-form count equal
        # the verdicts of the shapes in it, checked one by one
        for d in [18] if n == 9 else range(2, 2 * n + 4):
            shapes = set(support_shapes(n, d))
            reps = list(_shape_classes(n, d))
            assert all((lead, other) in shapes
                       for lead, other, _count in reps), (n, d)
            classes = {shape_class(lead, other):
                       Counter({_check_shape(lead, other)[0]: count})
                       for lead, other, count in reps}
            assert len(classes) == len(reps), (n, d)
            assert classes == shape_survey(n, d), (n, d)

    @pytest.mark.parametrize("n,d,calls", [(2, 4, 3), (7, 14, 48)])
    def test_one_check_per_class(self, monkeypatch, n, d, calls):
        import toricdegen.theorem as theorem
        check, shapes = theorem._check_shape, []

        def counted(lead, other):
            shapes.append((lead, other))
            return check(lead, other)

        monkeypatch.setattr(theorem, "_check_shape", counted)
        assert strata_survey(n, d).passed
        assert len(shapes) == calls

    @pytest.mark.parametrize("n,d", [(2, 4), (2, 5), (3, 6), (3, 7), (4, 8),
                                     (4, 9), (5, 10)])
    def test_shape_verdict_matches_every_pattern(self, n, d):
        # the per-pattern oracle decides each prime pattern through general
        # chain implications; its shape's certificate must agree on each
        verdicts = {}
        for (u, v), ok in pattern_verdicts(n, d).items():
            shape = (_support(u), _support(v))
            if shape not in verdicts:
                verdicts[shape] = _check_shape(*shape)[0]
            assert ok == verdicts[shape], (u, v)
        assert set(verdicts) == set(support_shapes(n, d))


class TestShapeFault:
    """A shape check that swaps the other term's last index instead of its
    first.  The swap certificate's chain terms v_i*(e_q - e_i) then turn
    negative, and the per-shape re-check must reject the shape, also where
    the wrong swap happens to leave a normalized shape."""

    @pytest.fixture(autouse=True)
    def wrong_swap(self, monkeypatch):
        monkeypatch.setattr(toricdegen.theorem, "_swap_pair",
                            lambda lead, other: (lead[-1], other[-1]))

    def test_survey_fails_on_a_prime_representative(self):
        survey = strata_survey(2, 4)
        assert not survey.passed and survey.checked == 36
        (u, v, ordering, reason), = survey.failures
        assert classify(BinomialPattern(u, v)).is_prime
        assert (_support(u), _support(v)) == ((0,), (1, 2))
        assert ordering == (0, 1, 2)
        assert reason == "swapping x0 and x2 on shape (0,) / (1, 2) is uncertified"

    def test_rejected_by_the_certificate_alone(self):
        # swapping x1 and x3 turns x0*x1 / x2*x3 into the normalized
        # x0*x3 / x1*x2, so only the chain term v_2*(e_3 - e_2) rejects it
        survey = strata_survey(3, 6)
        reasons = {(_support(u), _support(v)): reason
                   for u, v, _ordering, reason in survey.failures}
        assert reasons[(0, 1), (2, 3)] == (
            "swapping x1 and x3 on shape (0, 1) / (2, 3) is uncertified")
        assert all(classify(BinomialPattern(u, v)).is_prime
                   for u, v, _ordering, _reason in survey.failures)

    def test_nonexistence_certificate_raises(self):
        with pytest.raises(CertificateError, match="strata reduction failed "
                                                   ".* is uncertified"):
            nonexistence_certificate(2, 4, 1, Random(1))


class TestNonexistence:
    def test_first_case_2_4(self):
        report = nonexistence_certificate(2, 4, 3, Random(9))
        assert report.codim_bound == 1
        assert report.sampled_codims == (1, 1, 1)
        assert report.redundancy_ok
        assert report.strata_full and report.strata_reduced
        assert report.strata_checked == 36

    def test_codim_bound_2_5(self):
        report = nonexistence_certificate(2, 5, 2, Random(10))
        assert report.codim_bound == 2
        assert report.sampled_codims == (2, 2)

    def test_3_6(self):
        report = nonexistence_certificate(3, 6, 1, Random(11))
        assert report.codim_bound == 1
        assert report.strata_full

    def test_full_strata_past_old_cutoff(self):
        report = nonexistence_certificate(4, 8, 1, Random(12))
        assert report.codim_bound == 1
        assert report.strata_full and report.strata_reduced
        assert report.strata_checked == 2630 * 120  # patterns x 5!

    def test_stray_support_fails_before_sampling(self, monkeypatch):
        monkeypatch.setattr(toricdegen.family, "sample_family", None)
        with patched_support(lambda s: s | {(0, 1, 1)}):
            with pytest.raises(CertificateError, match="the key rows"):
                nonexistence_certificate(2, 4, 3, Random(1))
            with pytest.raises(CertificateError, match="the key rows"):
                dominance_certificate(3, 5)

    def test_codim_bound_is_checked_against_the_certified_rank(
            self, monkeypatch):
        # the closed form d - 2n + 1 must be what the certified rank bound
        # leaves of the ambient dimension, checked before any sample
        monkeypatch.setattr(toricdegen.family, "sample_family", None)
        bound = toricdegen.family.structural_rank_bound
        monkeypatch.setattr(toricdegen.family, "structural_rank_bound",
                            lambda n, d: bound(n, d) - 1)
        with pytest.raises(CertificateError,
                           match=r"codimension 2 at n=2, d=4 is not "
                                 r"d - 2n \+ 1 = 1"):
            nonexistence_certificate(2, 4, 3, Random(1))

    def test_requires_past_threshold(self):
        with pytest.raises(DomainError):
            nonexistence_certificate(2, 3, 1, Random(13))


class TestSweep:
    def test_small_grid_strict(self):
        rows = threshold_sweep(3, 6)
        assert len(rows) == 10
        for row in rows:
            assert sweep_row_matches(row)
            assert row.degenerable == (row.codim == 0)

    def test_n2_thresholds(self):
        rows = [r for r in threshold_sweep(2, 5)]
        flags = {r.d: r.degenerable for r in rows}
        assert flags == {2: True, 3: True, 4: False, 5: False}

    def test_takes_no_strict_flag(self):
        # a row off the threshold always raises CertificateError
        with pytest.raises(TypeError):
            threshold_sweep(2, 2, strict=False)

    @pytest.mark.parametrize("n_max,d_max", [(70, 2), (2, 235), (71, 2),
                                             (2, 236), (998, 2), (2, 998)])
    def test_largest_grids_in_the_budget(self, n_max, d_max):
        # the grid's scans build no exponents, so it has no budget of its
        # own: (71, 2) and (2, 236), past the old one, return their rows,
        # and so do (998, 2) and (2, 998), the largest check_domain admits
        assert len(threshold_sweep(n_max, d_max)) == (n_max - 1) * (d_max - 1)


class TestRecords:
    def test_witness_bundle(self):
        bundle = existence_witness(2, 3, Random(1))
        fields = {name: getattr(bundle, name) for name in WitnessBundle._fields}
        assert check_record(WitnessBundle, fields) == bundle
        assert list(fields) == ["n", "d", "point", "omega", "initial",
                                "verdict", "dominance", "point_poly"]
        assert bundle.point_poly == bundle.point.to_poly()

    def test_witness_bundle_prints_the_same_in_every_run(self):
        # every field prints by value, so one seed gives one text in two
        # fresh interpreters, and no memory address leaks into it
        code = ("from random import Random\n"
                "from toricdegen import existence_witness\n"
                "print(repr(existence_witness(3, 5, Random(1))))")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        texts = [subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True,
                                timeout=120).stdout for _ in range(2)]
        assert texts[0] == texts[1]
        assert texts[0].startswith("WitnessBundle(n=3, d=5, point=FamilyPoint(")
        assert " at 0x" not in texts[0]

    def test_strata_survey(self):
        survey = check_record(StrataSurvey,
                              {"n": 2, "d": 4, "checked": 12, "full": True,
                               "passed": False,
                               "failures": (((0, 4, 0), (3, 0, 1), (0, 1, 2),
                                             "not normalized"),)})
        assert survey != survey._replace(passed=True)
        actual = strata_survey(2, 4)
        assert actual == StrataSurvey(2, 4, actual.checked, True, True, ())

    def test_nonexistence_report(self):
        fields = {"n": 2, "d": 4, "codim_bound": 1, "sampled_codims": (1, 1),
                  "redundancy_ok": True, "strata_checked": 42,
                  "strata_full": True, "strata_reduced": True}
        report = check_record(NonexistenceReport, fields)
        assert nonexistence_certificate(2, 4, 2, Random(12)) == \
            report._replace(strata_checked=strata_survey(2, 4).checked)

    def test_sweep_row(self):
        row = check_record(SweepRow, {"n": 2, "d": 4, "ambient": 15,
                                      "generic_rank": 14, "codim": 1,
                                      "degenerable": False})
        assert repr(row) == ("SweepRow(n=2, d=4, ambient=15, generic_rank=14, "
                             "codim=1, degenerable=False)")

    def test_sweep_error_names_the_row(self, monkeypatch):
        monkeypatch.setattr(toricdegen.theorem, "sweep_row_matches",
                            lambda row: False)
        with pytest.raises(CertificateError) as excinfo:
            threshold_sweep(2, 2)
        assert str(excinfo.value) == (
            "threshold violated at n=2, d=2: SweepRow(n=2, d=2, ambient=6, "
            "generic_rank=6, codim=0, degenerable=True)")
