"""No module of the package imports a name it never uses."""

import ast
import os
import pathlib
import subprocess
import sys

import minflow

SRC = pathlib.Path(minflow.__file__).parent


def unused_imports(tree):
    """(line, name) of each module-level import that no other node of
    `tree` names."""
    imported = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_unused_import_check_flags_only_unused_names():
    tree = ast.parse("import os\nimport a.b\nfrom . import c as d\n"
                     "from .e import f, g\n\n"
                     "def h():\n    import i\n    return a.b(f)\n")
    assert unused_imports(tree) == [(1, "os"), (3, "d"), (4, "g")]


def test_no_module_imports_an_unused_name():
    modules = sorted(set(SRC.glob("*.py")) - {SRC / "__init__.py"})
    assert len(modules) > 5
    found = ["%s:%d %s" % (path.name, line, name) for path in modules
             for line, name in unused_imports(ast.parse(path.read_text()))]
    assert found == []


def test_the_cli_imports_no_exact_arithmetic():
    # only FrequencyTable.frequency reads Fraction, and it imports it
    # itself, so no command pays for fractions, decimal and numbers
    probe = ("import sys, minflow.cli; print(sorted({'fractions', "
             "'decimal', 'numbers'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
