"""The benchmark in perfbench/ must keep finding every package name it uses.

With `--trace 1`, perfbench/child.py rebinds each name in its TARGETS table:
a module attribute, or a method found in its class's own __dict__.  child.py,
workloads.py and the benchmark's tests also import package names and call
them.  perfbench/ is kept fixed between benchmark changes, so a rename, a
deletion or a changed call signature in the package has to fail here.  The
scripts in scripts/ have no tests of their own, so their package imports
and calls are checked the same way.  In the other direction, every public
function, class, method and property of the package must have a caller
outside the tests.
"""

import ast
import importlib
import inspect
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = {name: ROOT / "perfbench" / name
           for name in ("child.py", "workloads.py", "test_perfbench.py")}
SOURCES.update((path.name, path) for path in sorted((ROOT / "scripts").glob("*.py")))
PACKAGE = sorted(path for path in (ROOT / "src" / "genderedlang").glob("*.py")
                 if path.name != "__init__.py")


def _tree(name: str) -> ast.Module:
    return ast.parse(SOURCES[name].read_text(encoding="utf-8"))


def _targets() -> list[tuple[str, str, str]]:
    for node in ast.walk(_tree("child.py")):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return [(key.value, value.elts[0].value, value.elts[1].value)
                    for key, value in zip(node.value.keys, node.value.values)]
    raise AssertionError("perfbench/child.py has no TARGETS table")


def _imports(tree: ast.Module) -> dict[str, tuple[str, str]]:
    """Local name -> (module, attribute) for each `from genderedlang... import`."""
    return {alias.asname or alias.name: (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "genderedlang"
            for alias in node.names}


def _resolve(module: str, name: str):
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return getattr(owner, name)
    return importlib.import_module(f"{module}.{name}")


def _calls() -> list[tuple[str, str, str, int, tuple[str, ...]]]:
    """(source, module, name, positional count, keywords) of each direct call to an imported name."""
    out = []
    for source in SOURCES:
        tree = _tree(source)
        imported = _imports(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in imported
                    and not any(isinstance(a, ast.Starred) for a in node.args)
                    and all(k.arg is not None for k in node.keywords)):
                out.append((source, *imported[node.func.id], len(node.args),
                            tuple(k.arg for k in node.keywords)))
    return out


TARGETS = _targets()
IMPORTS = sorted({(source, *pair) for source in SOURCES
                  for pair in _imports(_tree(source)).values()})
CALLS = sorted(set(_calls()))


def test_sources_name_the_package():
    assert len(TARGETS) >= 20 and IMPORTS and CALLS
    assert {"planted_bias_experiment.py", "run_toy_pipeline.py"} <= {c[0] for c in CALLS}


@pytest.mark.parametrize("module, attr", [t[1:] for t in TARGETS], ids=[t[0] for t in TARGETS])
def test_traced_target_resolves(module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(owner, cls_name)), f"{attr} is not defined on {cls_name} itself"
    else:
        assert callable(getattr(owner, attr))


@pytest.mark.parametrize("source, module, name", IMPORTS,
                         ids=[f"{s}:{m}.{n}" for s, m, n in IMPORTS])
def test_imported_name_resolves(source, module, name):
    _resolve(module, name)


@pytest.mark.parametrize("source, module, name, n_args, keywords", CALLS,
                         ids=[f"{s}:{n}/{a}{''.join('+' + k for k in kw)}"
                              for s, _, n, a, kw in CALLS])
def test_call_signature_binds(source, module, name, n_args, keywords):
    inspect.signature(_resolve(module, name)).bind(*range(n_args), **dict.fromkeys(keywords))


def _defines(stmt: ast.stmt) -> str | None:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return stmt.name
    return None


def test_every_public_name_has_a_caller():
    """Each public module-level function and class in the package (its __init__
    re-exports aside) is named in src/, scripts/ or perfbench/ outside its own
    definition, or traced by name in perfbench/child.py's TARGETS, and each
    annotated class field and each public method or property is read there as
    an attribute, so nothing is kept alive by the tests alone.  A read through
    an argparse namespace named `args` reads a command-line option, not a
    class member, so it does not count; a member is still matched by its name
    alone, whatever the class of the object it is read from."""
    referrers = [*PACKAGE, *sorted((ROOT / "scripts").glob("*.py")),
                 *sorted((ROOT / "perfbench").glob("*.py"))]
    referenced = {name for _span, _module, attr in TARGETS for name in attr.split(".")}
    read: set[str] = set()
    for path in referrers:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and not (isinstance(node.value, ast.Name) and node.value.id == "args"))
        for stmt in tree.body:
            own = _defines(stmt)
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    referenced.add(name)
    public = [(path.name, _defines(stmt)) for path in PACKAGE
              for stmt in ast.parse(path.read_text(encoding="utf-8")).body
              if _defines(stmt) and not _defines(stmt).startswith("_")]
    assert len(public) >= 50
    unused = [f"{module}:{name}" for module, name in public if name not in referenced]
    assert not unused, f"public names with no caller outside the tests: {', '.join(unused)}"
    fields = [(cls.name, stmt.target.id) for path in PACKAGE
              for cls in ast.parse(path.read_text(encoding="utf-8")).body
              if isinstance(cls, ast.ClassDef)
              for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    assert len(fields) >= 30
    unread = [f"{cls}.{name}" for cls, name in fields if name not in read]
    assert not unread, f"class fields never read outside the tests: {', '.join(unread)}"
    methods = [(cls.name, stmt.name) for path in PACKAGE
               for cls in ast.parse(path.read_text(encoding="utf-8")).body
               if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
               for stmt in cls.body
               if _defines(stmt) and not stmt.name.startswith("_")]
    assert len(methods) >= 15
    uncalled = [f"{cls}.{name}" for cls, name in methods if name not in read]
    assert not uncalled, f"methods never called outside the tests: {', '.join(uncalled)}"


def test_public_classes_define_no_dunders():
    """A dunder is called by syntax (len(x), x in y), which the name search
    above cannot follow, so a public class defines none but __post_init__: a
    protocol method kept alive by the tests alone would go unseen."""
    dunders = [f"{path.name}:{cls.name}.{stmt.name}" for path in PACKAGE
               for cls in ast.parse(path.read_text(encoding="utf-8")).body
               if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
               for stmt in cls.body
               if _defines(stmt) and stmt.name.startswith("__") and stmt.name.endswith("__")
               and stmt.name != "__post_init__"]
    assert not dunders, f"dunders on public classes: {', '.join(dunders)}"


def test_bench_commands_parse(monkeypatch):
    """Each workload's command lines parse, so a renamed or removed flag fails
    here rather than as a failed benchmark run."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    parser = importlib.import_module("genderedlang.cli")._build_parser()
    inputs = workloads.Inputs(defaultdict(lambda: Path("x")), {})
    argvs = [argv for workload in workloads.WORKLOADS.values()
             for _stage, argv in workload.commands(inputs, Path("out"))]
    assert len(argvs) >= 9
    for argv in argvs:
        parser.parse_args(argv)


@pytest.mark.parametrize("name", ["iter_arcs", "iter_canonical"])
def test_corpus_reader_is_a_generator(name):
    """perfbench's tracer charges a generator only for the time inside its own
    next() calls, and corpus.parse_s and corpus.aggregate_s are split on that
    basis: a reader that returned a list would count aggregation as parsing."""
    assert inspect.isgeneratorfunction(getattr(importlib.import_module("genderedlang.corpus"), name))
