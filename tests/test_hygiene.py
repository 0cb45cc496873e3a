"""Source hygiene: every name a module imports is used in that module,
every function and class is referenced somewhere in src/ and every
method is read as an attribute there, no function imports from the
package, no module reads an environment variable but FQMATROID_BUDGET,
every entry point bench/tracing.py wraps still exists, each package's
__all__ is exactly what its __init__ imports, the CLI starts without the
process pool's machinery, only the builders that make their own entries
skip FqMatrix's entry check, and only the elimination modules know the
engine-native column format."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
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
    "components": "RepMatroid's direct-sum decomposition; bench/tracing.py wraps it",
    "contract": "checked by E0 acceptance; bench/tracing.py wraps it",
    "delete": "checked by E0 acceptance",
    "kernel_basis": "bench/tracing.py wraps it; checked by E0",
    "subspace_count": "checked by E0 acceptance",
    "uniform_matroid_matrix": "bench/tracing.py wraps it, so deleting it needs "
                              "its own benchmark change",
    "draw_native_column": "bench/tracing.py wraps it as the fqlinalg.draw layer, "
                          "which reads 0 calls on every workload, so deleting it "
                          "needs its own benchmark change",
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


def _attribute_reads(node) -> Counter:
    """Attribute names (x.name) under node, the one way to reach a method."""
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def _dead_definitions() -> set[str]:
    paths = sorted(PACKAGE.rglob("*.py"))
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in paths]
    # a re-export (an __init__.py import or __all__ entry) is no use
    used = [t for p, t in zip(paths, trees) if p.name != "__init__.py"]
    total = sum((_references(t) for t in used), Counter())
    attrs = sum((_attribute_reads(t) for t in used), Counter())
    # a class member is reached only as x.name: a local variable or a
    # string of its name does not count
    members = {id(item) for tree in trees for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for item in cls.body}
    dead = set()
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue  # called by the interpreter
            refs, count = ((_attribute_reads, attrs) if id(node) in members
                           else (_references, total))
            # a recursive call is no reference from outside
            if count[node.name] == refs(node)[node.name]:
                dead.add(node.name)
    return dead


def test_no_dead_definitions():
    assert _dead_definitions() == set(DEAD_ALLOWED)


def test_no_relative_import_inside_a_function():
    # a deferred package import hides a module cycle; the standard library's
    # lazy imports (concurrent.futures in montecarlo) stay allowed
    deferred = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                deferred += [f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"
                             for node in ast.walk(fn)
                             if isinstance(node, ast.ImportFrom) and node.level >= 1]
    assert deferred == []


def _is_environ(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "environ"
            or isinstance(node, ast.Name) and node.id == "environ")


def _env_keys(path: Path) -> set:
    """Names of the environment variables the module reads: a key spelled as
    a string or as a module-level string constant, else a <placeholder>."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    consts = {t.id: node.value.value for node in tree.body
              if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
              for t in node.targets if isinstance(t, ast.Name)}

    def key(arg):
        if isinstance(arg, ast.Constant):
            return arg.value
        if isinstance(arg, ast.Name) and arg.id in consts:
            return consts[arg.id]
        return "<computed key>"

    keys, keyed = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and _is_environ(node.value):
            keys.add(key(node.slice))
            keyed.add(id(node.value))
        elif isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Attribute) and _is_environ(fn.value):
                keyed.add(id(fn.value))
            elif not (isinstance(fn, ast.Attribute) and fn.attr == "getenv"
                      or isinstance(fn, ast.Name) and fn.id == "getenv"):
                continue
            keys.add(key(node.args[0]) if node.args else "<computed key>")
    # any other use of os.environ (a copy, an iteration) reads every variable
    if any(_is_environ(node) and id(node) not in keyed for node in ast.walk(tree)):
        keys.add("<whole environment>")
    return keys


def test_only_the_budget_variable_is_read():
    # an environment variable is a hidden option; FQMATROID_BUDGET is the
    # one documented in the README
    reads = {str(p.relative_to(PACKAGE.parent)): _env_keys(p)
             for p in sorted(PACKAGE.rglob("*.py"))}
    assert set().union(*reads.values()) == {"FQMATROID_BUDGET"}, reads


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


def test_cli_import_leaves_out_the_process_pool():
    # run_experiment imports ProcessPoolExecutor only for workers > 1, so
    # every start-up, the serial runs included, skips its import cost
    code = ("import sys, fqmatroid.cli; "
            "print('concurrent.futures.process' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"


# the src/ functions that build an FqMatrix through the unchecked
# FqMatrix._trusted, each from entries it made itself
TRUSTED_BUILDERS = {
    "fqlinalg/matrix.py:FqMatrix.delete",
    "fqlinalg/matrix.py:FqMatrix.contract",
    "fqlinalg/matrix.py:random_uniform_matrix",
    "process.py:ProcessState.matrix",
    "process.py:sample_pg_model",
}


def _trusted_callers(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    rel = path.relative_to(PACKAGE).as_posix()
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Attribute) and child.attr == "_trusted":
                found.add(f"{rel}:{'.'.join(scope) or '<module>'}")
            visit(child, scope)

    visit(tree, [])
    return found


def test_only_the_trusted_builders_skip_the_entry_check():
    # every other FqMatrix, one built through FqMatrix(...) included, has
    # its columns checked for length and range
    callers = set().union(*(_trusted_callers(p) for p in sorted(PACKAGE.rglob("*.py"))))
    assert callers == TRUSTED_BUILDERS


# the modules that know the engine-native column format (the __init__
# re-exports it); every other module reads element rows or column tuples
NATIVE_FORMAT_MODULES = {"fqlinalg/matrix.py", "process.py", "matroid.py",
                         "fqlinalg/__init__.py"}
NATIVE_NAMES = {"native_cols", "native_columns", "pack_native",
                "draw_native_column", "pack_gf2"}


def _native_format_uses(path: Path) -> set[str]:
    """The native-format names the module reads or imports, and "matrix"
    when it imports from fqlinalg/matrix.py."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set(_references(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
            if node.module and node.module.split(".")[-1] == "matrix":
                names.add("matrix")
    return names & (NATIVE_NAMES | {"matrix"})


def test_only_the_elimination_modules_know_the_native_format():
    uses = {p.relative_to(PACKAGE).as_posix(): _native_format_uses(p)
            for p in sorted(PACKAGE.rglob("*.py"))}
    assert {rel for rel, names in uses.items() if names} <= NATIVE_FORMAT_MODULES, uses
