"""Every command of the golden corpus still exits, prints and complains
byte for byte as recorded (`golden_corpus.py` says how to re-record)."""

import pytest
from golden_corpus import commands, load, run

ENTRIES = load()


def test_the_corpus_holds_each_command_once():
    lines = [" ".join(e["argv"]) for e in ENTRIES]
    assert len(set(lines)) == len(lines)
    assert lines == [" ".join(argv) for argv in commands()]


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: " ".join(e["argv"]))
def test_a_command_replays_as_recorded(entry):
    assert run(entry["argv"]) == entry
