import pytest

from minflow import kernels
from minflow.words import (FullShiftSystem, Substitution, SubshiftSystem,
                           get_system)


@pytest.fixture(scope="session")
def morse():
    return get_system("morse")


@pytest.fixture(scope="session")
def fib():
    return get_system("fibonacci")


@pytest.fixture(scope="session")
def pd():
    return get_system("period-doubling")


@pytest.fixture(scope="session")
def full_shift():
    return FullShiftSystem("01")


def ternary_morse():
    """Thue-Morse on three letters, 0 -> 012, 1 -> 120, 2 -> 201: a
    bijective substitution of constant length 3 (Coven, Quas and
    Yassawi 2016), kept out of the registry."""
    return SubshiftSystem("ternary-morse", Substitution(
        {"0": "012", "1": "120", "2": "201"}), "0")


@pytest.fixture(scope="session")
def ternary():
    return ternary_morse()


@pytest.fixture
def kernel_calls(monkeypatch):
    """The list that each `kernels.apply_rule` call of the test appends
    its arguments to."""
    calls = []
    apply_rule = kernels.apply_rule
    monkeypatch.setattr("minflow.kernels.apply_rule",
                        lambda *args: calls.append(args) or apply_rule(*args))
    return calls


def random_primitive_rules(rng, count):
    """`count` primitive rules on 2-3 letters, each with a prolongable 0."""
    rules = []
    while len(rules) < count:
        alphabet = "012"[:rng.choice((2, 3))]
        rule = {a: "".join(rng.choice(alphabet)
                           for _ in range(rng.randint(1, 4)))
                for a in alphabet}
        rule["0"] = "0" + rule["0"]
        if Substitution(rule).is_primitive:
            rules.append(rule)
    return rules
