"""No module of the package touches another object's private state."""

import ast
import pathlib

import minflow

SRC = pathlib.Path(minflow.__file__).parent


def private_accesses(tree):
    """(line, expression) of each access to a `_`-prefixed attribute,
    dunders aside, of an object other than `self` or `cls`."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or \
                not node.attr.startswith("_"):
            continue
        if node.attr.startswith("__") and node.attr.endswith("__"):
            continue
        if isinstance(node.value, ast.Name) and \
                node.value.id in ("self", "cls"):
            continue
        yield node.lineno, ast.unparse(node)


def test_private_access_check_flags_only_foreign_objects():
    tree = ast.parse("self._a\ncls._b\nsystem._c()\nx.__len__\n"
                     "words._CAP = 1\nf()._d\n")
    assert sorted(private_accesses(tree)) == [
        (3, "system._c"), (5, "words._CAP"), (6, "f()._d")]


def test_no_module_touches_private_state():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    found = ["%s:%d %s" % (path.name, line, expr) for path in modules
             for line, expr in private_accesses(ast.parse(path.read_text()))]
    assert found == []
