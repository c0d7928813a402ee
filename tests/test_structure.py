"""Module layout: imports at module level only, no private names shared
between modules, no catalog import in pipelines, one lattice per pipeline
run, and one class-search primitive in diophantine."""
import ast
from collections import Counter
from pathlib import Path

import fanocert
from fanocert import pipelines
from fanocert.catalog import load_cases
from fanocert.lattice import make_family_lattice

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


def test_only_the_class_searches_walk_degree_quadratics():
    # curve_classes (square >= m) and solve_degree_squares (square == m) are
    # the only searches along a degree line; everything else calls them.
    tree = ast.parse((PACKAGE / "diophantine.py").read_text())
    callers = {func.name for func in tree.body if isinstance(func, ast.FunctionDef)
               for node in ast.walk(func)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "_degree_quadratic"}
    assert callers == {"curve_classes", "solve_degree_squares"}


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
        pipelines.PIPELINES[case.family](case)
        if case.family == "sporadic":
            expected = []
        elif case.construction == "residual":
            residual_rows += 1
            expected = [(case.family, case.d, case.g), (case.family, case.seed_d, case.seed_g)]
        else:
            expected = [(case.family, case.d, case.g)]
        assert Counter(built) == Counter(expected), case.label()
    assert residual_rows == 2
