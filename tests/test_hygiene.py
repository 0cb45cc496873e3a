"""Source hygiene: every name a module imports is used in that module,
every function, class and method is referenced somewhere in src/, and
every entry point bench/tracing.py wraps still exists, and each
package's __all__ is exactly what its __init__ imports."""

import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fqmatroid"


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names in string annotations such as -> "FqMatrix"
    used |= {node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return [f"{path.relative_to(PACKAGE.parent)}:{line} {name}"
            for name, line in sorted(imported.items(), key=lambda t: t[1])
            if name not in used]


def test_no_unused_imports():
    # __init__ files import only to re-export
    modules = [p for p in sorted(PACKAGE.rglob("*.py")) if p.name != "__init__.py"]
    assert modules
    unused = [hit for path in modules for hit in _unused_imports(path)]
    assert unused == []


# definitions that nothing in src/ references, each kept on purpose
DEAD_ALLOWED = {
    "_alpha_signed": "signed-sum cross-check of _alpha_poly in test_theory",
    "components": "RepMatroid's direct-sum decomposition; bench/tracing.py wraps it",
    "check_consistency": "ProcessState's from-scratch rank check, run by test_process",
    "contract": "checked by E0 acceptance; bench/tracing.py wraps it",
    "delete": "checked by E0 acceptance",
    "from_span": "cross-check of enumerate_subspaces in test_subspaces and test_linalg",
    "ground": "RepMatroid's ground set accessor",
    "kernel_basis": "bench/tracing.py wraps it; checked by E0",
    "median": "Aggregate statistic next to mean and variance",
    "parse_emitted_csv": "reads back the csv artifacts that emit writes",
    "rank_of_subset": "RepMatroid's checked rank query",
    "submatrix": "FqMatrix column selection",
    "subspace_count": "checked by E0 acceptance",
    "track_connectivity": "2-connectivity tracker, to be wired into a preset",
    "uniform_matroid_matrix": "bench/tracing.py wraps it, so deleting it needs "
                              "its own benchmark change",
}


def _references(node) -> Counter:
    """Names, attribute names and string constants under node."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out[sub.value] += 1
    return out


def _dead_definitions() -> set[str]:
    paths = sorted(PACKAGE.rglob("*.py"))
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in paths]
    # a re-export (an __init__.py import or __all__ entry) is no use
    total = sum((_references(t) for p, t in zip(paths, trees)
                 if p.name != "__init__.py"), Counter())
    dead = set()
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue  # called by the interpreter
            # a recursive call is no reference from outside
            if total[node.name] == _references(node)[node.name]:
                dead.add(node.name)
    return dead


def test_no_dead_definitions():
    assert _dead_definitions() == set(DEAD_ALLOWED)


def test_bench_wrap_targets_exist():
    # bench/tracing.py wraps fqmatroid's entry points by name; a deletion
    # under src/ that drops one of them breaks every benchmark run
    path = PACKAGE.parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.untraced_problems() == []


def _init_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names]


@pytest.mark.parametrize("module", ["fqmatroid", "fqmatroid.fqlinalg"])
def test_all_lists_the_public_imports(module):
    # a stale re-export or a missing one shows here, not at a user's import
    mod = importlib.import_module(module)
    path = Path(mod.__file__)
    names = [name for name in mod.__all__ if not name.startswith("__")]
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert set(names) == set(_init_imports(path))
    for name in mod.__all__:
        assert hasattr(mod, name), name
