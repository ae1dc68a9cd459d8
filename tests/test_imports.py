"""No module of the package imports a name it never uses, a command
loads only the modules it runs, and the benchmark's tracer finds every
name it wraps."""

import ast
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

import minflow

SRC = pathlib.Path(minflow.__file__).parent


def unused_imports(tree):
    """(line, name) of each import at the top of the module or of a
    function body that no other node of that module or function names."""
    scopes = [tree] + [node for node in ast.walk(tree) if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    found = []
    for scope in scopes:
        used = {node.id for node in ast.walk(scope)
                if isinstance(node, ast.Name)}
        for node in scope.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in used:
                        found.append((node.lineno, name))
    return sorted(found)


def test_unused_import_check_flags_only_unused_names():
    tree = ast.parse("import os\nimport a.b\nfrom . import c as d\n"
                     "from .e import f, g\n\n"
                     "def h():\n    import i\n    return a.b(f)\n\n"
                     "def j():\n    from . import k\n"
                     "    return lambda: k.m\n")
    assert unused_imports(tree) == [(1, "os"), (3, "d"), (4, "g"), (7, "i")]


def test_no_module_imports_an_unused_name():
    modules = sorted(set(SRC.glob("*.py")) - {SRC / "__init__.py"})
    assert len(modules) > 5
    found = ["%s:%d %s" % (path.name, line, name) for path in modules
             for line, name in unused_imports(ast.parse(path.read_text()))]
    assert found == []


def loaded_in_fresh_interpreter(statement, modules):
    """Which of `modules` a fresh interpreter holds after `statement`."""
    probe = ("import sys\n%s\nprint(sorted(set(%r) & set(sys.modules)), "
             "file=sys.stderr)" % (statement, sorted(modules)))
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    env.pop("MINFLOW_OUT", None)
    return subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True).stderr


def test_the_cli_imports_no_exact_arithmetic():
    # only FrequencyTable.frequency reads Fraction, and it imports it
    # itself, so no command pays for fractions, decimal and numbers
    assert loaded_in_fresh_interpreter(
        "import minflow.cli", {"fractions", "decimal", "numbers"}) == "[]\n"


LAYERS = {"minflow.codes", "minflow.points", "minflow.factors",
          "minflow.pairs", "minflow.joins"}


@pytest.mark.parametrize("argv,unloaded", [
    (["lang", "morse"], LAYERS | {"dataclasses"}),
    (["point", "morse", "fix0"], {"minflow.joins", "dataclasses"}),
    (["aut", "morse", "--radius", "1"], {"minflow.joins", "dataclasses"}),
    # runs the layer that imports every other one
    (["odometer", "--levels", "4"], {"dataclasses"}),
])
def test_a_command_loads_only_the_modules_it_runs(argv, unloaded):
    run = "import minflow.cli\nassert minflow.cli.main(%r) == 0" % argv
    assert loaded_in_fresh_interpreter(run, unloaded) == "[]\n"


def test_every_traced_name_resolves_as_the_tracer_resolves_it():
    # perfbench/spans.py imports only the standard library; its tracer
    # wraps a method through the class's own __dict__, so a method moved
    # to a base class stops a traced run
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / \
        "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for targets in spans.LAYERS.values():
        for module_name, attr_path in targets:
            module = importlib.import_module(module_name)
            if "." in attr_path:
                cls_name, attr = attr_path.split(".")
                assert attr in vars(getattr(module, cls_name)), attr_path
            else:
                assert callable(getattr(module, attr_path)), attr_path
