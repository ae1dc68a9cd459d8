"""No module decides a flip by whether an alphabet is binary, `words`
included: each asks the system whether the flip is a letter automorphism
(`is_letter_automorphism`, also through `refuse_unless_flip_commutes`),
which reads the substitution, not the alphabet's name."""

import ast
import pathlib

import minflow

SRC = pathlib.Path(minflow.__file__).parent


def binary_alphabet_tests(tree):
    """Line of each comparison of an `.alphabet` with the literal "01"."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left, *node.comparators]
        if any(isinstance(s, ast.Attribute) and s.attr == "alphabet"
               for s in sides) and \
                any(isinstance(s, ast.Constant) and s.value == "01"
                    for s in sides):
            yield node.lineno


def test_binary_alphabet_check_flags_only_alphabet_comparisons():
    tree = ast.parse('a.alphabet != "01"\nif "01" == self.alphabet: pass\n'
                     'alphabet == "01"\na.alphabet == "012"\n'
                     'f(system.alphabet == "01")\n')
    assert sorted(binary_alphabet_tests(tree)) == [1, 2, 5]


def test_only_words_compares_an_alphabet_with_01():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    found = {path.name: sorted(binary_alphabet_tests(ast.parse(
        path.read_text()))) for path in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}
