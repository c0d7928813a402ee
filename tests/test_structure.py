"""Module layout: imports at module level only, no private names shared
between modules, no catalog import in pipelines, verdicts decided by the
proofs alone, one degree-line and one line-solving primitive in diophantine
whose loops carry nothing from one line to the next, each check name built
at one call site, checks built only by the ``outcome`` builders and by
position, a standard-library runtime, one dataclass whose decorator writes
no method, no named tuple, no ``object.__setattr__`` in the value types,
value equality, hashing and ``read_only`` defined in ``values`` alone, a
report writer that dispatches on exact types only, no module-level name
outside ``lattice`` computed from the ambient tables, a cold import without
``importlib.resources`` that compiles no generated source, a package root
that binds only ``load_cases`` and ``__version__``, and no defaulted
parameter of a public function or constructor that no call in the package
sets (``cli.main``'s ``argv`` aside).

A proof's own code builds its case's lattice once; the nef, free and
non-tetragonality certificates take (family, d, g) and build it again, so a
construction row builds 3 lattices (quadric, v4, v5) or 4 (x14, v5
residual) in all."""
import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import fanocert
from fanocert import pipelines, values
from fanocert.catalog import CaseRecord, load_cases
from fanocert.diophantine import Interval
from fanocert.lattice import DivisorClass, FamilySpec, IntersectionLattice, make_family_lattice

PACKAGE = Path(fanocert.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))


def _imports(tree):
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_imports_sit_at_module_level():
    assert len(SOURCES) > 10
    nested = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        top = {id(node) for node in tree.body}
        nested += [f"{path.name}:{node.lineno}" for node in _imports(tree)
                   if id(node) not in top]
    assert nested == []


def test_modules_import_no_private_names_from_each_other():
    private = []
    for path in SOURCES:
        for node in _imports(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "fanocert":
                continue
            private += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                        if alias.name.startswith("_")]
    assert private == []


def _callers(names) -> dict[str, set[str]]:
    """Each name's calling functions, as module.function, across the package."""
    callers = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in names):
                    callers.setdefault(node.func.id, set()).add(f"{path.stem}.{func.name}")
    return callers


def test_only_degree_lines_walks_a_degree_line():
    # degree_lines is the one search along a degree line: it alone holds the
    # signature guard and the exact "square >= m" range (_nonnegative_range).
    # The class sweep and the donor families read its lines, so a second
    # line walker here would be a twin to keep in step.
    assert _callers(("_nonnegative_range",)) == {
        "_nonnegative_range": {"diophantine.degree_lines"}}


def test_one_line_primitive_solves_linear_forms():
    # _line (gcd, modular inverse and step) is the one solver of a linear
    # form's level lines.  The degree lines and the band are its only
    # callers, and each takes every line's base from that one solution, so
    # no second copy of that arithmetic can drift from it.
    assert _callers(("_line",)) == {
        "_line": {"diophantine.degree_lines", "diophantine.band_empty"}}
    defined = {node.name for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef)}
    assert "_line" in defined and not defined & {"_line_base", "_degree_line"}


def test_level_lines_keep_no_walk_state():
    # Each line's base comes from that line's own value: no name that a loop
    # of degree_lines or band_empty assigns is also assigned outside its
    # loops, and none is updated in place, so nothing is carried from one
    # line to the next.
    tree = ast.parse((PACKAGE / "diophantine.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("degree_lines", "band_empty"):
        loops = [node for node in ast.walk(functions[name]) if isinstance(node, ast.For)]
        inside = {id(node) for loop in loops for node in ast.walk(loop)}
        stores = [node for node in ast.walk(functions[name])
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]
        in_loops = {node.id for node in stores if id(node) in inside}
        outside = {node.id for node in stores if id(node) not in inside}
        updated = [node for node in ast.walk(functions[name]) if isinstance(node, ast.AugAssign)]
        assert loops and in_loops and not in_loops & outside and not updated, name


CHECK_BUILDERS = ("verified", "cited", "CheckOutcome")


def _literal_names(node):
    """The literal names an expression can give; an f-string's fields read {}."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.JoinedStr):
        return ["".join(part.value if isinstance(part, ast.Constant) else "{}"
                        for part in node.values)]
    if isinstance(node, ast.IfExp):
        return _literal_names(node.body) + _literal_names(node.orelse)
    return []


def test_each_check_name_is_built_at_one_call_site():
    # A report check is re-derived by its name, so one name built in two
    # places would be two claims that can drift apart.  A check two proofs
    # share gets one builder, which the proofs call.
    sites = {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in CHECK_BUILDERS):
                for kw in node.keywords:
                    if kw.arg != "name":
                        continue
                    for name in _literal_names(kw.value):
                        sites.setdefault(name, []).append(f"{path.name}:{node.lineno}")
    assert len(sites) > 50
    assert {name: where for name, where in sites.items() if len(where) > 1} == {}


def test_only_the_builders_call_check_outcome_and_by_position():
    # Calling a class with keyword arguments goes through type.__call__ with
    # a keyword dict, about twice the cost of a call by position, and a
    # census pass builds 3,106 checks.  So every check is built by verified
    # or cited, which pass CheckOutcome's fields by position; a caller names
    # its fields at the builder.
    sites = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        owner = {}
        # ast.walk meets an outer function before the ones nested in it, so
        # each node ends up owned by its innermost function.
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                owner.update((id(node), f"{path.stem}.{func.name}") for node in ast.walk(func))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "CheckOutcome" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                sites.append((owner.get(id(node), f"{path.stem} module level"),
                              [kw.arg for kw in node.keywords]))
    assert sorted(sites) == [("outcome.cited", []), ("outcome.verified", [])]


def test_only_the_construction_skeleton_certifies_the_adjoint_class():
    # Every K3 construction ends on the adjoint class nef and free, so the
    # skeleton lists both and a construction lists only its own steps.
    assert _callers(("nef_certificate", "free_certificate")) == {
        "nef_certificate": {"pipelines._construction"},
        "free_certificate": {"pipelines._construction"}}


def test_only_lattice_binds_names_from_the_ambient_tables():
    # A module-level name computed from FAMILIES or AMBIENTS is frozen at
    # import, a second copy that a patched or extended row leaves behind;
    # every other module reads the row at call time.
    tables = {"FAMILIES", "AMBIENTS"}
    frozen = []
    for path in SOURCES:
        if path.stem == "lattice":
            continue
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) or not node.value:
                continue
            if any(isinstance(sub, ast.Name) and sub.id in tables
                   or isinstance(sub, ast.Attribute) and sub.attr in tables
                   for sub in ast.walk(node.value)):
                frozen.append(f"{path.name}:{node.lineno}")
    assert frozen == []


def test_runtime_imports_only_the_standard_library():
    outside = []
    for path in SOURCES:
        for node in _imports(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module] if node.level == 0 else []
            else:
                modules = [alias.name for alias in node.names]
            outside += [f"{path.name}:{node.lineno} {module}" for module in modules
                        if module.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_only_catalog_imports_dataclasses():
    # A frozen dataclass execs its generated methods at import, about a
    # millisecond on every cold start.  CaseRecord stays a dataclass only
    # because the benchmark digests loaded rows with dataclasses.asdict, and
    # its decorator generates no method: it only registers the fields.
    importers, decorated = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        for node in _imports(tree):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module] if node.level == 0 else []
            else:
                modules = [alias.name for alias in node.names]
            if "dataclasses" in modules:
                importers.append(path.stem)
        decorated += [(f"{path.stem}.{node.name}", [ast.unparse(d) for d in node.decorator_list])
                      for node in ast.walk(tree)
                      if isinstance(node, ast.ClassDef) and node.decorator_list]
    assert importers == ["catalog"]
    assert decorated == [("catalog.CaseRecord", ["dataclass(init=False, repr=False, eq=False)"])]


def test_no_value_type_fills_its_slots_through_object_setattr():
    # Each slot is filled through its descriptor's own setter, bound once at
    # module level; object.__setattr__ looks the field up on every call.
    calls = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            func = getattr(node, "func", None)
            if (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
                    and func.attr == "__setattr__" and isinstance(func.value, ast.Name)
                    and func.value.id == "object"):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


def test_value_semantics_live_in_values():
    # A value equals only its own type and its fields are read-only; that
    # policy is written once, in values.  Every value type is a SlotValue:
    # none derives from a namedtuple(...) call, and values keeps no tuple
    # base.  Hashing over the fields is written once, in
    # values.HashableValue.
    equalities, hashes, read_only, tuples = [], [], [], []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name.lstrip("_") == "read_only":
                read_only.append(f"{path.stem}.{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                names = ([item.name] if isinstance(item, ast.FunctionDef) else
                         [t.id for t in getattr(item, "targets", ()) if isinstance(t, ast.Name)])
                equalities += [f"{path.stem}.{node.name}.{name}" for name in names
                               if name in ("__eq__", "__ne__")]
                hashes += [f"{path.stem}.{node.name}.{name}" for name in names
                           if name == "__hash__"]
            tuples += [f"{path.stem}.{node.name}" for base in node.bases
                       if isinstance(base, ast.Call)
                       and getattr(base.func, "id", None) == "namedtuple"]
    assert equalities == ["values.SlotValue.__eq__"]
    assert hashes == ["values.HashableValue.__hash__"]
    for cls in (CaseRecord, DivisorClass, FamilySpec, IntersectionLattice, Interval):
        assert cls.__hash__ is values.HashableValue.__hash__, cls.__name__
    assert read_only == ["values.read_only"]
    assert tuples == []
    assert not hasattr(values, "ValueTuple")


def test_no_module_imports_namedtuple():
    # A named tuple's __new__ is generated source, compiled at import on
    # every cold start; a value type is a SlotValue instead.
    uses = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                     else [node.attr] if isinstance(node, ast.Attribute) else [])
            uses += [f"{path.name}:{node.lineno} {name}" for name in names
                     if name in ("namedtuple", "NamedTuple")]
    assert uses == []


def test_report_writer_dispatches_on_exact_type_only():
    # One dispatch per value: the writer reads type(node) and never asks
    # isinstance, so a subclass is refused like any other type.
    tree = ast.parse((PACKAGE / "report.py").read_text())
    encode = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_encode")
    calls = [node.func.id for node in ast.walk(encode)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert "type" in calls
    assert "isinstance" not in calls


def test_cold_import_leaves_out_importlib_resources():
    # Without ``site`` nothing preloads it, so the import would be paid by
    # every cold start; the loader reads data/cases.json with open().
    code = ("import fanocert.cli, sys; "
            "assert 'importlib.resources' not in sys.modules, 'importlib.resources'")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


# The one source CPython 3.13's dataclass compiles even for a class it writes
# no method for: the empty builder of its generated functions.
EMPTY_DATACLASS_BUILDER = "def __create_fn__():\n\n return ()"

COLD_START_CODE = """
import json, argparse, dataclasses, collections, math, operator, os, sys
generated = []

def hook(event, args):
    if event == "compile" and args[1] == "<string>":
        source = args[0]
        generated.append(source.decode() if isinstance(source, bytes) else str(source))

sys.addaudithook(hook)
import fanocert, fanocert.cli
fanocert.load_cases()
print(json.dumps(generated))
"""


def test_cold_start_compiles_no_generated_source():
    # A named tuple's __new__ and a dataclass's methods are source text the
    # standard library compiles at import, on every cold start.  The
    # package's modules compile under their own file names, so this count
    # does not depend on a bytecode cache.  The standard-library modules the
    # package uses are imported before the hook, so only what the package's
    # own import and table load compile is counted.
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", COLD_START_CODE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    generated = json.loads(done.stdout)
    assert [source for source in generated if source != EMPTY_DATACLASS_BUILDER] == []


def test_package_root_binds_only_load_cases():
    # The benchmark's setup code calls fanocert.load_cases(); every other
    # name is imported from the module that defines it.
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    bound = [alias.asname or alias.name for node in _imports(tree) for alias in node.names]
    bound += [target.id for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets]
    assert bound == ["load_cases", "__version__"]


def test_pipelines_do_not_import_catalog():
    tree = ast.parse((PACKAGE / "pipelines.py").read_text())
    names = set()
    for node in _imports(tree):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
        names.update(alias.name for alias in node.names)
    assert "lattice" in names
    assert not [name for name in names if "catalog" in name.split(".")]


def test_each_pipeline_builds_its_lattice_once(monkeypatch):
    built = []

    def counting(family, d, g):
        built.append((family.name, d, g))
        return make_family_lattice(family, d, g)

    monkeypatch.setattr(pipelines, "make_family_lattice", counting)
    residual_rows = 0
    for case in load_cases():
        built.clear()
        pipelines.PIPELINES[case.proof](case)
        if case.family == "sporadic":
            expected = []
        elif case.construction == "residual":
            residual_rows += 1
            expected = [(case.family, case.d, case.g), (case.family, case.seed_d, case.seed_g)]
        else:
            expected = [(case.family, case.d, case.g)]
        assert Counter(built) == Counter(expected), case.label()
    assert residual_rows == 2


def test_verify_case_reads_no_proof_tags():
    # The row's tags select its proof (CaseRecord.proof); the verdict is that
    # proof's conclusion.  A tag read here would be a second verdict policy.
    tree = ast.parse((PACKAGE / "catalog.py").read_text())
    verify_case = next(node for node in tree.body
                       if isinstance(node, ast.FunctionDef) and node.name == "verify_case")
    read = {node.attr for node in ast.walk(verify_case) if isinstance(node, ast.Attribute)}
    assert "proof" in read
    assert not read & {"route", "smallness", "construction"}


# Defaulted parameters that no call in the package sets.  The console script
# calls cli.main() with no arguments, and a command line comes in as argv.
UNSET_DEFAULTS_ALLOWED = {"cli.main(argv)"}


def _defaulted(args, skip: int):
    """(name, positional index or None) of each defaulted parameter."""
    positional = (args.posonlyargs + args.args)[skip:]
    first = len(positional) - len(args.defaults)
    return ([(arg.arg, index) for index, arg in enumerate(positional) if index >= first]
            + [(arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
               if default is not None])


def _constructor_defaults(node: ast.ClassDef):
    """A class's defaulted constructor parameters, read from its own ``__init__``.

    No class generates one: CaseRecord's dataclass decorator writes no
    method, and no class derives from a named tuple."""
    for item in node.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
            return _defaulted(item.args, 1)
    return []


def _set_by(call: ast.Call, params) -> set[str]:
    """The parameters among ``params`` that one call passes."""
    if (any(isinstance(arg, ast.Starred) for arg in call.args)
            or any(kw.arg is None for kw in call.keywords)):
        return {name for name, _ in params}
    keywords = {kw.arg for kw in call.keywords}
    return {name for name, index in params
            if name in keywords or (index is not None and index < len(call.args))}


def test_every_default_is_set_by_some_caller():
    # A default that no call in the package overrides is a constant in
    # disguise: a knob only tests turn.  Such a value is a module constant,
    # which a test can monkeypatch.
    defaults, calls = [], {}
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                defaults.append((f"{path.stem}.{node.name}", node.name, _defaulted(node.args, 0)))
                continue
            defaults.append((f"{path.stem}.{node.name}", node.name, _constructor_defaults(node)))
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in item.decorator_list)
                    defaults.append((f"{path.stem}.{node.name}.{item.name}", item.name,
                                     _defaulted(item.args, 0 if static else 1)))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                # Inside a class, cls(...) calls that class.
                calls.setdefault(node.name, []).extend(
                    call for call in ast.walk(node) if isinstance(call, ast.Call)
                    and getattr(call.func, "id", None) == "cls")
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = set()
    for qualified, name, params in defaults:
        passed = set().union(*(_set_by(call, params) for call in calls.get(name, ())))
        unset |= {f"{qualified}({param})" for param, _ in params if param not in passed}
    assert sum(len(params) for *_, params in defaults) > 15
    assert unset == UNSET_DEFAULTS_ALLOWED
