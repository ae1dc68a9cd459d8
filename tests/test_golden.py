"""Every command of the golden corpus still exits, prints and complains
byte for byte as recorded (`golden_corpus.py` says how to re-record),
and every example of the README is one of them."""

import pathlib
import shlex

import pytest
from golden_corpus import commands, load, run

ENTRIES = load()
README = pathlib.Path(__file__).parents[1] / "README.md"


def readme_examples():
    """The argv of each `minflow ...` line of the README's `Examples:`
    block."""
    block = README.read_text().split("\nExamples:\n", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("minflow ")]


def test_the_corpus_holds_each_command_once():
    lines = [" ".join(e["argv"]) for e in ENTRIES]
    assert len(set(lines)) == len(lines)
    assert lines == [" ".join(argv) for argv in commands()]


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: " ".join(e["argv"]))
def test_a_command_replays_as_recorded(entry):
    assert run(entry["argv"]) == entry


def test_each_readme_example_is_a_corpus_entry():
    recorded = [e["argv"] for e in ENTRIES]
    examples = readme_examples()
    assert examples
    assert [argv for argv in examples if argv not in recorded] == []
