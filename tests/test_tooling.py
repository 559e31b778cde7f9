"""Repository checks that guard the library's own conventions."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from collections import Counter, namedtuple
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "toricdegen"


def test_no_assert_statements_in_library():
    # `python -O` strips assert statements, so a check written as one
    # silently disappears; the library raises explicit errors instead.
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(SRC.parent)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, "assert statements in the library: " + ", ".join(found)


def test_library_parses_at_the_declared_python_floor():
    # a newer interpreter than the floor pyproject.toml declares may be the
    # only one installed, so each module is parsed with the floor's grammar;
    # this checks syntax only (at 3.10 it rejects except* and PEP 695
    # generics and admits match).  tomllib is not in 3.10, so the floor is
    # read by regex
    text = (ROOT / "pyproject.toml").read_text()
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"', text, re.M)
    assert floor, "pyproject.toml declares no requires-python floor"
    version = tuple(map(int, floor.groups()))
    for path in sorted(SRC.rglob("*.py")):
        ast.parse(path.read_text(), filename=str(path),
                  feature_version=version)


def test_library_imports_only_the_standard_library():
    # the library is stdlib-only: every import is relative or a stdlib module
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.relative_to(SRC.parent)}:{node.lineno} {name}"
                      for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert not found, "non-stdlib imports in the library: " + ", ".join(found)


def test_library_uses_every_name_it_imports():
    # a top-level import the module never reads is dead weight; __init__.py
    # re-exports its imports, and `from __future__` binds nothing
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [(a.asname or a.name).split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            found += [f"{path.relative_to(SRC.parent)}:{node.lineno} {name}"
                      for name in bound if name not in used]
    assert not found, "unused imports in the library: " + ", ".join(found)


def _relative_imports(tree: ast.AST):
    """(line, module) for each module a relative import reads: `module` in
    `from .module import x`, and each `module` in `from . import module`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for name in ([node.module] if node.module
                         else [alias.name for alias in node.names]):
                yield node.lineno, name


def test_polynomial_layer_imports_no_certificate_module():
    # polynomials, binomials and cones come before the family and the
    # certificates built on it, so they never import those modules
    found = []
    for name in ("errors", "poly", "linalg", "binomials", "cones"):
        path = SRC / f"{name}.py"
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} .{module}"
                  for line, module in _relative_imports(tree)
                  if module in ("family", "theorem", "cli")]
    assert not found, "certificate modules imported: " + ", ".join(found)


def test_relative_imports_seen_in_both_forms():
    tree = ast.parse("from .family import sample_family\n"
                     "from . import poly, theorem\n")
    assert list(_relative_imports(tree)) == [(1, "family"), (2, "poly"),
                                             (2, "theorem")]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_reads(tree: ast.AST):
    """(line, name) for each private name read from another library module:
    `_name` in `from .module import _name`, and `layer._name` where
    `from . import layer` binds layer."""
    layers = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            bound = [alias.asname or alias.name for alias in node.names]
            if node.module is None:
                layers.update(bound)
            else:
                yield from ((node.lineno, f"{node.module}.{alias.name}")
                            for alias in node.names if _is_private(alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in layers and _is_private(node.attr)):
            yield node.lineno, f"{node.value.id}.{node.attr}"


def test_no_library_module_reads_another_modules_private_name():
    # a private name is its module's own; another layer that needs it reads
    # a public one, so each rule has one home (tests may read private oracles)
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} {name}"
                  for line, name in _private_reads(tree)]
    assert not found, "private names read across modules: " + ", ".join(found)


def test_private_reads_seen_in_both_forms():
    tree = ast.parse("from .family import _excluded, sample_family\n"
                     "from . import poly, theorem as t\n"
                     "poly._format_monomial, t._swap_pair, poly.__name__\n"
                     "t.strata_survey, other._x\n")
    assert list(_private_reads(tree)) == [(1, "family._excluded"),
                                          (3, "poly._format_monomial"),
                                          (3, "t._swap_pair")]


def test_budget_constants_named_in_readme():
    # every module-level MAX_* budget is a limit users can hit; the README
    # names each one, not only its value
    readme = (ROOT / "README.md").read_text()
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(SRC.parent)}:{node.lineno} {target.id}"
                  for node in tree.body if isinstance(node, ast.Assign)
                  for target in node.targets
                  if isinstance(target, ast.Name)
                  and target.id.startswith("MAX_")
                  and target.id not in readme]
    assert not found, "budgets the README does not name: " + ", ".join(found)


def _names_read(tree: ast.AST):
    """Every name the tree reads: bare names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _attributes_read(tree: ast.AST):
    """Every attribute name the tree reads, as `member` in `obj.member`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr


def _namedtuple_fields(base: ast.expr) -> set[str] | None:
    """The fields of a `namedtuple("Name", "fields")` base, else None."""
    if (isinstance(base, ast.Call) and isinstance(base.func, ast.Name)
            and base.func.id == "namedtuple" and len(base.args) == 2
            and isinstance(base.args[1], ast.Constant)):
        return set(base.args[1].value.split())
    return None


def _called_by_name(name: str) -> bool:
    """Whether the interpreter or a base class calls this method by name:
    a dunder, or _make, which namedtuple's _replace calls."""
    return name.startswith("__") and name.endswith("__") or name == "_make"


def _definitions(tree: ast.Module, library_classes: set[str]):
    """Every top-level def and class, and every named method, classmethod
    and property of a class whose bases are all library classes, NamedTuple
    or namedtuple(...); dunders and _make are called by name
    (_called_by_name), and a base from elsewhere, such as an exception's,
    may call a method by name."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node, node.name
        if isinstance(node, ast.ClassDef) and all(
                _namedtuple_fields(base) is not None
                or isinstance(base, ast.Name)
                and base.id in library_classes | {"NamedTuple"}
                for base in node.bases):
            yield from ((sub, f"{node.name}.{sub.name}") for sub in node.body
                        if isinstance(sub, ast.FunctionDef)
                        and not _called_by_name(sub.name))


def _members(node: ast.ClassDef) -> set[str]:
    """The names a class defines for its instances: methods and properties,
    __slots__ entries, and NamedTuple and namedtuple(...) fields; those
    called by name (_called_by_name) excepted."""
    names = set()
    for base in node.bases:
        names |= _namedtuple_fields(base) or set()
    for sub in node.body:
        if isinstance(sub, ast.FunctionDef):
            names.add(sub.name)
        elif isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
            names.add(sub.target.id)
        elif isinstance(sub, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in sub.targets):
            names |= set(ast.literal_eval(sub.value))
    return {name for name in names if not _called_by_name(name)}


def test_record_members_read_from_namedtuple_bases():
    tree = ast.parse((SRC / "family.py").read_text())
    node = next(node for node in tree.body if isinstance(node, ast.ClassDef)
                and node.name == "FamilyPoint")
    assert _members(node) == {"n", "d", "poly", "coeff", "to_poly"}
    assert {label for _sub, label in _definitions(tree, set())
            if label.startswith("FamilyPoint.")} == {"FamilyPoint.coeff",
                                                     "FamilyPoint.to_poly"}


# members that another library class also defines, so an attribute read
# cannot tell whose member it uses.  Each was checked by hand: HomogPoly.coeff
# is read by cones.stratum_system, FamilyPoint.coeff and acceptance
# criterion 4, FamilyPoint.coeff by family.excluded_block, and
# BinomialPattern.n, a name that HomogPoly and FamilyPoint hold too, by
# cones.stratum_system.  A new one fails the scan until it is checked too
AMBIGUOUS_MEMBERS = {"coeff", "n"}


def test_every_library_definition_is_used():
    # a def, class or method that nothing but itself names is dead code;
    # __init__.py files only re-export, so their imports do not count, and
    # code that only an oracle test reads belongs in tests/, so of the tests
    # only the acceptance suite counts.  A class member is read as
    # obj.member, so only attribute reads count for it: a local variable
    # of the same name does not use it
    paths = [path for root in (SRC, ROOT / "demos")
             for path in sorted(root.rglob("*.py")) if path.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    paths.append(ROOT / "tests" / "test_acceptance.py")
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in paths}
    uses = Counter(name for tree in trees.values() for name in _names_read(tree))
    attrs = Counter(name for tree in trees.values()
                    for name in _attributes_read(tree))
    library = {path: tree for path, tree in trees.items()
               if path.is_relative_to(SRC)}
    members = {node.name: _members(node) for tree in library.values()
               for node in tree.body if isinstance(node, ast.ClassDef)}
    found, ambiguous = [], set()
    for path, tree in library.items():
        for node, label in _definitions(tree, set(members)):
            owner = label.partition(".")[0]
            if owner != label and any(node.name in names for cls, names
                                      in members.items() if cls != owner):
                ambiguous.add(node.name)
                continue
            read, own = ((attrs, _attributes_read) if "." in label
                         else (uses, _names_read))
            if read[node.name] == Counter(own(node))[node.name]:
                found.append(f"{path.relative_to(SRC.parent)}:{node.lineno} "
                             f"{label}")
    assert not found, "definitions nothing else uses: " + ", ".join(found)
    assert ambiguous == AMBIGUOUS_MEMBERS, "members to check by hand"


# classes that are neither records nor exceptions, each with the reason
NOT_RECORDS = {
    "poly.HomogPoly": "a validated term map in __slots__, set only by "
                      "__new__, with no __init__ to reset them; the one "
                      "slots class",
}


def _refuses_assignment(cls: type) -> bool:
    """Whether setting or deleting each slot of cls, and a name it lacks,
    raises AttributeError on an instance.  The instance is made without
    __init__, so no constructor arguments are needed."""
    obj = object.__new__(cls)
    for name in (*vars(cls).get("__slots__", ()), "unknown"):
        for act in (lambda: setattr(obj, name, 0), lambda: delattr(obj, name)):
            try:
                act()
            except AttributeError:
                continue
            return False
    return True


def _is_record(cls: type) -> bool:
    """Whether cls is a NamedTuple, or a namedtuple(...) subclass whose
    every class below tuple declares empty __slots__: a tuple whose
    instances hold no attribute dict, so nothing can be set on them."""
    if not (issubclass(cls, tuple) and hasattr(cls, "_fields")):
        return False
    mro = cls.__mro__
    return all(vars(c).get("__slots__") == () for c in mro[:mro.index(tuple)])


def test_every_library_class_is_a_record_or_an_exception():
    # a value that can change after it is built, such as a cache kept on an
    # instance, goes stale for a later reader and compares by identity, so
    # a new mutable record fails here.  A record that validates in __new__
    # must validate in _make too, which _replace builds through, and a
    # class that is not a record must still refuse assignment, and have no
    # __init__ that a second call could use to reset a built instance
    seen, found, unvalidated, settable, reinit = set(), [], [], [], []
    for path in sorted(SRC.rglob("*.py")):
        module = importlib.import_module(
            "toricdegen" + ("" if path.stem == "__init__" else f".{path.stem}"))
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                label = f"{path.stem}.{node.name}"
                cls = getattr(module, node.name)
                seen.add(label)
                if not (issubclass(cls, BaseException) or _is_record(cls)
                        or label in NOT_RECORDS):
                    found.append(label)
                if _is_record(cls) and "__new__" in vars(cls) \
                        and "_make" not in vars(cls):
                    unvalidated.append(label)
                if label in NOT_RECORDS and not _refuses_assignment(cls):
                    settable.append(label)
                if label in NOT_RECORDS and "__init__" in vars(cls):
                    reinit.append(label)
    assert not found, "classes that are not records: " + ", ".join(found)
    assert not unvalidated, "records whose _make skips __new__: " + \
        ", ".join(unvalidated)
    assert not settable, "classes that accept assignment: " + \
        ", ".join(settable)
    assert not reinit, "classes whose __init__ can reset them: " + \
        ", ".join(reinit)
    assert set(NOT_RECORDS) <= seen, "stale entries in NOT_RECORDS"


def test_record_check_refuses_a_settable_namedtuple():
    class Typed(NamedTuple):
        x: int

    class Sealed(namedtuple("Sealed", "x")):
        __slots__ = ()

    class Open(namedtuple("Open", "x")):
        pass

    class Slots:
        __slots__ = ("x",)

    assert _is_record(Typed) and _is_record(Sealed)
    assert not _is_record(Open) and not _is_record(Slots)
    assert not _is_record(tuple)


def test_library_reads_every_parameter():
    # a parameter the body never reads is dead weight in every call;
    # differential_rank keeps its rng so that older callers still run
    allowed = {"family.py:differential_rank rng"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = node.args.posonlyargs + node.args.args + \
                node.args.kwonlyargs + [node.args.vararg, node.args.kwarg]
            read = {sub.id for sub in ast.walk(node)
                    if isinstance(sub, ast.Name)
                    and isinstance(sub.ctx, ast.Load)}
            found += [f"{path.name}:{node.name} {arg.arg}" for arg in params
                      if arg is not None and arg.arg not in read]
    unread = sorted(set(found) - allowed)
    assert not unread, "parameters never read: " + ", ".join(unread)


def test_traced_benchmark_child_runs(tmp_path):
    # perfbench's tracer looks up every library module by name, so removing
    # or renaming one breaks the traced benchmark run
    trace = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"),
         "--trace-out", str(trace), "cli", "verify-lemma", "--n", "3",
         "--d", "6", "--seed", "1"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    names = {span[2] for span in json.loads(trace.read_text())["spans"]}
    assert "family.key_matrix" in names


def test_cli_import_skips_dataclasses_and_inspect():
    # importing dataclasses pulls in inspect, ast, dis and tokenize, which
    # cost every CLI call more than the library's own modules; -S keeps
    # site-packages hooks from loading them on their own
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, toricdegen.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _run_at_import(node: ast.AST):
    """Every node that runs when its module is imported: all but the bodies
    of functions and lambdas."""
    yield node
    for name, value in ast.iter_fields(node):
        if name == "body" and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                yield from _run_at_import(child)


def test_no_pattern_compiled_at_import():
    # every CLI call runs the layers its command uses, and re.compile runs
    # in pure Python (a grammar-sized pattern costs several times a
    # one-token one), so a pattern is kept as a string and compiled through
    # re's cache on first use
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(SRC.parent)}:{node.lineno}"
                  for node in _run_at_import(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "compile"
                  and isinstance(node.func.value, ast.Name)
                  and node.func.value.id == "re"]
    assert not found, "patterns compiled at import: " + ", ".join(found)


def test_cli_runs_optimized_in_dev_mode():
    # -O strips assert statements, so a check written as one would vanish
    # here; -X dev -W error turns resource and deprecation warnings into
    # failures.  The output must match a plain run byte for byte.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cli = "import sys, toricdegen.cli; sys.exit(toricdegen.cli.main())"
    for argv in [
        ("witness", "--n", "2", "--d", "3"),
        ("witness", "--n", "3", "--d", "5", "--seed", "13", "--bound", "2"),
        ("stratum", "--f", "x1^3 + x0^2*x2 + x0*x1*x2 + x0*x1^2",
         "--g", "x1^3 + x0^2*x2", "--n", "2", "--d", "3"),
        ("enumerate-binomials", "--n", "3", "--d", "7"),
        ("nonexist", "--n", "2", "--d", "4", "--seed", "2"),
        ("verify-lemma", "--n", "3", "--d", "6"),
        ("sweep", "--n-max", "3", "--d-max", "7"),
    ]:
        plain, strict = [
            subprocess.run([sys.executable, *flags, "-c", cli, *argv],
                           env=env, capture_output=True, text=True,
                           timeout=120)
            for flags in ((), ("-O", "-X", "dev", "-W", "error"))]
        assert strict.returncode == 0, (argv, strict.stderr)
        assert strict.stderr == ""
        assert strict.stdout == plain.stdout, argv


def _exits(tree: ast.Module, main: str | None = None):
    """(line, text) for each exit outside the top-level function named main
    and the __main__ guard: a call of exit, quit or any `.exit` or `._exit`,
    and a raise of SystemExit."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == main or (
                isinstance(node, ast.If)
                and "__main__" in ast.unparse(node.test)):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and (
                    isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in ("exit", "_exit")
                    or isinstance(sub.func, ast.Name)
                    and sub.func.id in ("exit", "quit")):
                yield sub.lineno, ast.unparse(sub.func)
            elif isinstance(sub, ast.Raise) and sub.exc is not None and any(
                    isinstance(name, ast.Name) and name.id == "SystemExit"
                    for name in ast.walk(sub.exc)):
                yield sub.lineno, "raise SystemExit"


def test_only_cli_main_chooses_an_exit_status():
    # main maps each exception, and argparse's own exits, to a status, so
    # no other library code ends the process or picks a status itself
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        main = "main" if path.name == "cli.py" else None
        found += [f"{path.name}:{line} {text}"
                  for line, text in _exits(tree, main)]
    assert not found, "exits outside cli.main: " + ", ".join(found)


def test_exits_seen_in_every_form():
    tree = ast.parse("import os, sys\n"
                     "class P:\n"
                     "    def error(self, m):\n"
                     "        self.exit(64, m)\n"
                     "def f():\n"
                     "    sys.exit(1); os._exit(1); exit(); quit()\n"
                     "    raise SystemExit(3)\n"
                     "def main():\n"
                     "    sys.exit(0)\n"
                     "if __name__ == '__main__':\n"
                     "    sys.exit(main())\n")
    assert set(_exits(tree, "main")) == {
        (4, "self.exit"), (6, "sys.exit"), (6, "os._exit"), (6, "exit"),
        (6, "quit"), (7, "raise SystemExit")}
    assert (9, "sys.exit") in _exits(tree)


def test_handlers_return_nothing():
    # the exception type alone sets the exit code: a command handler only
    # formats output, and main returns 0 when it returns
    tree = ast.parse((SRC / "cli.py").read_text())
    found = [f"cli.py:{sub.lineno} {node.name}" for node in tree.body
             if isinstance(node, ast.FunctionDef)
             and node.name.startswith("cmd_")
             for sub in ast.walk(node)
             if isinstance(sub, ast.Return) and sub.value is not None]
    assert not found, "handlers returning a value: " + ", ".join(found)


def _grammar(text: str) -> str:
    """The lines from 'poly :=' to 'sign :=', whitespace normalized."""
    lines = [line.strip() for line in text.splitlines()]
    start = next(k for k, line in enumerate(lines)
                 if line.startswith("poly") and ":=" in line)
    end = next(k for k in range(start, len(lines))
               if lines[k].startswith("sign") and ":=" in lines[k])
    return " ".join(" ".join(lines[start:end + 1]).split())


def test_grammar_docs_agree():
    # the parser's docstring, the README and the output conventions each
    # state the polynomial grammar; they state the same one
    grammars = {path: _grammar(path.read_text()) for path in (
        SRC / "poly.py", ROOT / "README.md",
        ROOT / "docs" / "schemas" / "common.md")}
    assert len(set(grammars.values())) == 1, grammars
