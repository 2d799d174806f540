"""The package's export list."""

import ast
import importlib.util
import inspect
from pathlib import Path

import totdk
from totdk import arith, cli, errors


def test_star_import_and_every_export_resolves():
    namespace = {}
    exec("from totdk import *", namespace)
    for name in totdk.__all__:
        assert name in namespace
        assert namespace[name] is getattr(totdk, name)
    assert len(set(totdk.__all__)) == len(totdk.__all__)


def _is_exception(obj) -> bool:
    return isinstance(obj, type) and issubclass(obj, Exception)


def test_no_export_takes_a_prime_source():
    # The primes of n come from distinct_primes, which reads a shard's table or
    # does its own trial division, never from an argument.
    for name in totdk.__all__:
        obj = getattr(totdk, name)
        if callable(obj) and not _is_exception(obj):
            assert not {"sieve", "primes"} & set(inspect.signature(obj).parameters), name
    for fn in (arith.distinct_primes, arith.coprime_residues):
        assert list(inspect.signature(fn).parameters) == ["n"]


def _references(tree: ast.AST) -> set[str]:
    """Names a module reads, bare or as an attribute, module-level tables
    included; a read inside the function or class of the same name is skipped."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in enclosing:
                found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def test_every_export_has_a_caller_in_the_package():
    # An export that no module of the package reads is dead surface; oracles
    # only the tests use live in tests/oracles.py.  An import is not a read.
    package = Path(totdk.__file__).parent
    read = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            read |= _references(ast.parse(path.read_text(), filename=str(path)))
    unread = [
        name
        for name in totdk.__all__
        if name not in read and not _is_exception(getattr(totdk, name))
    ]
    assert unread == []


def _private_definitions(tree: ast.Module) -> list[str]:
    """Module-level `_name`s a module defines: functions, classes and assigned
    constants, dunder names such as `__all__` aside."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_every_private_name_is_read_in_the_package():
    # The private twin of the export check above: a module-level _name that no
    # module of the package reads is dead code.  An import is not a read.
    trees = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in Path(totdk.__file__).parent.glob("*.py")
    }
    read = set().union(*map(_references, trees.values()))
    defined = [(stem, name) for stem, tree in trees.items() for name in _private_definitions(tree)]
    assert defined
    assert [(stem, name) for stem, name in defined if name not in read] == []


def _load_tracing():
    """perfbench/tracing.py, loaded by path: perfbench is not a package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_import_is_read_in_its_module():
    # An unread import is dead weight.  The exceptions are `__future__` imports
    # and the names perfbench/tracing.py replaces on a module (its BOUNDARIES),
    # which a module may import only for the tracer.
    exempt = {(module, attr) for module, attr, _, _ in _load_tracing().BOUNDARIES}
    unread = []
    for path in sorted(Path(totdk.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = f"totdk.{path.stem}"
        tree = ast.parse(path.read_text(), filename=str(path))
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in loaded and (module, name) not in exempt:
                    unread.append((module, name))
    assert unread == []


def test_enumeration_bound_is_read_only_by_arith_and_verify():
    # arith defines and enforces the bound; verify checks a range against it
    # before the sweep and reports it in the config block.
    package = Path(totdk.__file__).parent
    readers = {
        path.stem
        for path in package.glob("*.py")
        if "ENUMERATION_BOUND" in _references(ast.parse(path.read_text(), filename=str(path)))
    }
    assert readers == {"arith", "verify"}


def _names_numpy(tree: ast.AST) -> bool:
    """Whether a module imports numpy, under any alias, or reads the name np."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            modules = []
        if any(m.split(".")[0] == "numpy" for m in modules):
            return True
        if isinstance(node, ast.Name) and node.id == "np":
            return True
    return False


def test_only_arith_imports_numpy():
    # arith holds every int64 array, the kernels that sum over them and the
    # argument that keeps those sums exact; the other modules compute on
    # Python ints, so a type-checking-only numpy import counts as well.
    package = Path(totdk.__file__).parent
    users = {
        path.stem
        for path in package.glob("*.py")
        if _names_numpy(ast.parse(path.read_text(), filename=str(path)))
    }
    assert users == {"arith"}


def test_sources_parse_as_the_oldest_supported_python():
    # pyproject.toml declares requires-python >= 3.10.7; newer syntax would fail only there.
    for path in sorted(Path(totdk.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_cli_main_catches_every_error_type():
    # A library error that main does not map to an exit code ends in a traceback.
    tree = ast.parse(Path(cli.__file__).read_text())
    main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    caught = {
        name.id
        for handler in ast.walk(main)
        if isinstance(handler, ast.ExceptHandler) and handler.type is not None
        for name in ast.walk(handler.type)
        if isinstance(name, ast.Name)
    }
    defined = {
        name
        for name, obj in vars(errors).items()
        if _is_exception(obj) and obj.__module__ == errors.__name__
    }
    assert defined
    assert defined - caught == set()


def test_benchmark_tracer_boundaries_resolve_and_restore(tmp_path):
    # perfbench/tracing.py replaces names the package imports only for it (for
    # example `totdk.spence.dedekind_fast`); a name that no longer resolves
    # breaks every traced benchmark run, so it is checked here.
    tracing = _load_tracing()
    targets = [(importlib.import_module(m), attr) for m, attr, _, _ in tracing.BOUNDARIES]
    missing = [(m.__name__, attr) for m, attr in targets if not hasattr(m, attr)]
    assert missing == []
    originals = [getattr(m, attr) for m, attr in targets]
    tracer = tracing.Tracer(tmp_path)
    try:
        tracer.install()
        assert all(getattr(m, attr) is not o for (m, attr), o in zip(targets, originals))
    finally:
        tracer.uninstall()
    assert all(getattr(m, attr) is o for (m, attr), o in zip(targets, originals))
