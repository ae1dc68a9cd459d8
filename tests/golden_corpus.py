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
# the README example the one-shot commands leave out, and the edges and
# refusals of what reads σ's iterated images: fixed-point prefixes, seam
# splices, address points, level images and the block cap
EDGES = [
    ["census", "morse", "--sample", "20", "--levels", "14",
     "--expect-cardinality", "2"],
    ["lang", "morse", "--fixed-point", "0"],
    *[["lang", system, "--fixed-point", "12"] for system in SYSTEMS],
    ["lang", "morse", "--fixed-point", "5000000"],
    ["point", "period-doubling", "fix1"],
    ["point", "fibonacci", "fix0"],
    ["point", "morse", "addr(%s,0)" % ("0" * 24)],
    ["aut", "morse", "--radius", "0", "--check-len", "5000000"],
    ["freq", "morse", "--length", "2", "--steps", "5000000"],
    ["factor", "morse", "--address-of", "addr(0110,1)", "--levels", "4"],
    ["census", "period-doubling", "--address", "0110"],
    ["aut", "morse", "--apply", "id", "--word", "0120"],
    ["--conf", "l.cfg", "lang", "morse"],
]
X0 = "addr(010101010101010101,0)"
# flipped points of every kind, and the reports that build a flip: the
# address of a flipped point, the distal certificate, a pair and a join
# with a flipped member, and dichotomy's flipped candidate
FLIPS = [
    *[["point", "morse", spec] for spec in (
        "flip(fix0)", "flip(flip(fix0))", "shift(flip(fix(0)),-3)",
        "flip(addr(0101,1))", "flip(shift(addr(0101,1),3))")],
    ["factor", "morse", "--address-of", "flip(addr(0101,1))", "--levels",
     "2"],
    ["factor", "morse", "--address-of", "flip(shift(fix0,777))", "--levels",
     "8"],
    ["pairs", "morse", "--certify", "fix0"],
    ["pairs", "morse", "--certify", "flip(addr(0101010101010101,1))"],
    ["pairs", "morse", "fix0", "flip(fix0)", "--horizon", "4096",
     "--resolution", "16"],
    ["dichotomy", "morse", X0, "flip(shift(%s,2))" % X0],
    ["join", "morse", "fix0", "flip(fix0)", "--steps", "1024",
     "--resolution", "4", "--member", "010110011", "101001100"],
]
# the subcommand paths no command above runs
HANDLERS = [
    ["lang", "morse", "--check", "0110"],
    ["lang", "morse", "--check", "000"],
    ["lang", "morse", "--substitute", "0110"],
    ["lang", "morse", "--length", "5", "--count"],
    ["factor", "morse", "--word", "0110100110010110"],
    ["factor", "morse", "--word", "01"],
    ["freq", "morse", "--length", "2", "--steps", "1024", "--format", "tsv"],
    ["aut", "morse", "--apply", "shift^1", "--compose", "flip"],
    ["census", "morse", "--address", "01", "--resolution", "0",
     "--expect-cardinality", "3"],
    ["sr", "odometer"],
]
# one pair of each verdict no command above reaches: doubly-asymptotic,
# negatively-asymptotic, proximal, and distal with windows that partly
# agree (its separation reads the per-window counts)
VERDICTS = [
    ["pairs", "morse", *pair, "--horizon", "4096", "--resolution", "16"]
    for pair in (("fix0", "fix0"),
                 ("splice(rev(fix0),fix0)", "splice(rev(fix0),flip(fix0))"),
                 ("fix0", "shift(fix0,1024)"), ("fix0", "shift(fix0,1)"))]


def commands():
    """Every command line of the corpus, each once, in a fixed order: the
    benchmark's one-shot commands at ONESHOT_SEEDS, every --help, aut, sr
    and coalesce at r = 0..3 on each built-in system, the flip refusals,
    the edges, the flipped points, the remaining handler paths and the
    missing pair verdicts."""
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
    argvs += FLIP_REFUSALS + EDGES + FLIPS + HANDLERS + VERDICTS
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
