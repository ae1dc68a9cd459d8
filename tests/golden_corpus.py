"""The CLI's outputs as a committed corpus: each entry is a command line,
its exit status, and its stdout and stderr (or their SHA-256 and length
when over INLINE_CAP bytes).

`tests/test_golden.py` replays every entry in-process through
`minflow.cli.main` and diffs.  Re-record from the repository root with

    PYTHONPATH=src python tests/golden_corpus.py [SUBSTRING ...]

which runs the commands of `commands()` and rewrites the entries whose
command line contains one of the substrings (every entry by default);
the others are kept as recorded.  A change that re-records entries lists
them in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import sys
from unittest import mock

CORPUS = pathlib.Path(__file__).parent / "golden" / "corpus.json"
INLINE_CAP = 2048         # larger outputs are kept as SHA-256 and length
COLUMNS = "80"            # argparse wraps --help by terminal width
ONESHOT_SEEDS = (7, 411, 2024)
SYSTEMS = ("fibonacci", "morse", "period-doubling")
SUBCOMMANDS = ("aut", "census", "coalesce", "collapse", "dichotomy",
               "factor", "freq", "join", "lang", "odometer", "pairs",
               "point", "sr")
# commands whose flip the system refuses
FLIP_REFUSALS = [
    ["point", "period-doubling", "flip(addr(0101,0))", "--lo", "0", "--hi",
     "0"],
    ["point", "period-doubling", "flip(addr(0101,0))", "--lo", "-2", "--hi",
     "3"],
    ["point", "fibonacci", "splice(rev(flip(fix0)),fix0)"],
    ["dichotomy", "period-doubling", "addr(010101010101010101,0)",
     "shift(addr(010101010101010101,0),2)"],
    ["dichotomy", "period-doubling", "addr(010101010101010101,0)",
     "shift(addr(010101010101010101,0),2)", "--resolution", "0"],
    ["collapse", "fibonacci", "--direction", "forward"],
    ["aut", "fibonacci", "--apply", "flip"],
]


def commands():
    """Every command line of the corpus, each once, in a fixed order: the
    benchmark's one-shot commands at ONESHOT_SEEDS, every --help, aut, sr
    and coalesce at r = 0..3 on each built-in system, and the flip
    refusals."""
    root = str(pathlib.Path(__file__).parents[1])
    if root not in sys.path:
        sys.path.insert(0, root)
    from perfbench.workloads import cli_commands
    argvs = [argv for seed in ONESHOT_SEEDS
             for argv, _ in cli_commands(random.Random(seed)).values()]
    argvs += [["--help"]] + [[name, "--help"] for name in SUBCOMMANDS]
    argvs += [[name, system, "--radius", str(r)]
              for name in ("aut", "sr", "coalesce") for system in SYSTEMS
              for r in range(4)]
    argvs += FLIP_REFUSALS
    unique = {" ".join(argv): argv for argv in argvs}
    return list(unique.values())


def _stream(text):
    data = text.encode()
    if len(data) <= INLINE_CAP:
        return text
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def run(argv):
    """{"argv", "status", "stdout", "stderr"} of one in-process run, with
    COLUMNS fixed and no report directory."""
    from minflow.cli import main
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": COLUMNS}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.environ.pop("MINFLOW_OUT", None)
        try:
            status = main(list(argv))
        except SystemExit as exc:           # argparse: --help and usage
            status = exc.code
    return {"argv": list(argv), "status": status,
            "stdout": _stream(out.getvalue()),
            "stderr": _stream(err.getvalue())}


def load():
    return json.loads(CORPUS.read_text())


def record(patterns=()):
    """Rewrite the entries whose command line contains one of `patterns`
    (all when empty); return the command lines whose entry changed."""
    old = {" ".join(e["argv"]): e for e in load()} if CORPUS.exists() else {}
    entries, redone = [], []
    for argv in commands():
        line = " ".join(argv)
        if line in old and patterns and \
                not any(p in line for p in patterns):
            entries.append(old[line])
            continue
        entry = run(argv)
        if old.get(line) != entry:
            redone.append(line)
        entries.append(entry)
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(entries, indent=1, ensure_ascii=False)
                      + "\n")
    return redone


if __name__ == "__main__":
    for line in record(sys.argv[1:]):
        print("re-recorded: %s" % line)
