"""The package's public names, and the layers each CLI command runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import toricdegen

SRC = Path(__file__).resolve().parents[1] / "src"

# every name the package re-exports, by the module that defines it
PUBLIC = {
    "errors": {"CertificateError", "DegreeError", "DimensionMismatchError",
               "DomainError", "GenericityError", "PolySyntaxError",
               "SupportMismatchError", "UsageError", "VariableIndexError",
               "ZeroPolynomialError"},
    "poly": {"Exponent", "HomogPoly", "WeightVector", "format_poly",
             "initial_form", "iter_exponents", "parse_poly", "weight_of",
             "weight_vector"},
    "linalg": {"RankReport", "rank"},
    "binomials": {"BinomialPattern", "PrimeVerdict", "classify",
                  "classify_poly", "count_prime_patterns",
                  "enumerate_patterns", "pattern_from_poly", "prime_pairs"},
    "cones": {"FeasibilityResult", "LinearSystem", "difference_functional",
              "satisfies", "solve", "stratum_system", "verify_certificate"},
    "family": {"FamilyPoint", "RedundancyReport", "differential_rank",
               "dominance_point", "excluded_block", "key_matrix",
               "redundancy_check", "sample_family", "structural_rank_bound"},
    "theorem": {"NonexistenceReport", "StrataSurvey", "SweepRow",
                "WitnessBundle", "dominance_certificate", "existence_witness",
                "nonexistence_certificate", "strata_survey",
                "sweep_row_matches", "threshold_sweep", "witness_weight"},
}


class TestPublicNames:
    def test_all_lists_the_public_names(self):
        assert len(toricdegen.__all__) == len(set(toricdegen.__all__)) == 56
        assert set(toricdegen.__all__) == set().union(*PUBLIC.values())
        assert set(toricdegen.__all__) <= set(dir(toricdegen))

    @pytest.mark.parametrize("module", sorted(PUBLIC))
    def test_each_name_is_its_modules_object(self, module):
        layer = getattr(toricdegen, module)
        for name in PUBLIC[module]:
            obj = getattr(toricdegen, name)
            assert obj is getattr(layer, name), name
            # Exponent and WeightVector are aliases of builtin tuples
            if obj.__module__.startswith("toricdegen"):
                assert obj.__module__ == f"toricdegen.{module}", name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from toricdegen import *", namespace)
        del namespace["__builtins__"]
        assert namespace == {name: getattr(toricdegen, name)
                             for name in toricdegen.__all__}

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            toricdegen.no_such_name
        with pytest.raises(ImportError):
            from toricdegen import no_such_name


# a layer has run once its module is a plain module, no longer a lazy one;
# errors is loaded with the package, so it is left out.  The second line
# names the standard library's rational and decimal modules loaded
_PROBE = """
import sys, types, toricdegen.cli
code = toricdegen.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(*sorted(name.partition(".")[2] for name, module in sys.modules.items()
              if name.startswith("toricdegen.")
              and name not in ("toricdegen.cli", "toricdegen.errors")
              and type(module) is types.ModuleType), file=sys.stderr)
print(*sorted({"decimal", "fractions"} & set(sys.modules)), file=sys.stderr)
sys.exit(code)
"""

_RUNS = [
    ((), ""),
    (("sweep", "--n-max", "2", "--d-max", "3"),
     "domain family linalg theorem"),
    (("enumerate-binomials", "--n", "2", "--d", "2"),
     "binomials domain poly"),
    (("verify-lemma", "--n", "2", "--d", "3"), "domain family linalg"),
    (("witness", "--n", "2", "--d", "3"),
     "binomials domain family linalg poly theorem"),
    (("nonexist", "--n", "2", "--d", "4"),
     "binomials domain family linalg poly theorem"),
    (("classify", "--poly", "x0^2 - x1*x2", "--n", "2", "--d", "2"),
     "binomials domain poly"),
    (("stratum", "--f", "x1^3 + x0^2*x2 + x0*x1*x2", "--g", "x1^3 + x0^2*x2",
      "--n", "2", "--d", "3"), "binomials cones domain poly"),
]


@pytest.mark.parametrize("argv,layers", _RUNS,
                         ids=[argv[0] if argv else "import"
                              for argv, _layers in _RUNS])
def test_command_runs_only_its_layers(argv, layers):
    # -S keeps site-packages hooks from importing anything on their own
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", _PROBE, *argv],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    ran, stdlib = proc.stderr.split("\n")[:2]
    assert ran == layers
    # the certificates rank integer matrices, so a command that builds no
    # polynomial never needs rationals: sweep and verify-lemma among them
    if "poly" not in layers.split():
        assert stdlib == "", stdlib


def test_strata_survey_runs_only_its_layers():
    # the strata reduction is binomial combinatorics: the survey never ranks
    probe = _PROBE.replace(
        "code = toricdegen.cli.main(sys.argv[1:]) if sys.argv[1:] else 0",
        "code = not toricdegen.strata_survey(3, 7).passed")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split("\n")[0] == "binomials domain poly theorem"
