import json
import re
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from minflow.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_lang_list(capsys):
    code, out = run(capsys, "lang", "morse", "--length", "3")
    assert code == 0
    assert out.splitlines() == ["001", "010", "011", "100", "101", "110"]


def test_lang_modes(capsys):
    assert run(capsys, "lang", "morse", "--length", "3", "--count")[1] == "6\n"
    assert run(capsys, "lang", "morse", "--substitute", "01")[1] == "0110\n"
    assert run(capsys, "lang", "morse", "--fixed-point", "8")[1] == "01101001\n"
    code, out = run(capsys, "lang", "morse", "--check", "000")
    assert code == 1 and out == "inadmissible\n"
    assert run(capsys, "lang", "morse", "--check", "0110")[0] == 0


def test_point_window(capsys):
    code, report = run_json(capsys, "point", "morse",
                            "splice(rev(fix0),fix0)", "--lo", "0", "--hi", "7")
    assert code == 0 and report["window"] == "01101001"


def test_aut_apply_and_compose(capsys):
    code, out = run(capsys, "aut", "morse", "--apply", "flip",
                    "--word", "0110")
    assert code == 0 and out == "1001\n"
    code, out = run(capsys, "aut", "morse", "--apply", "shift^1",
                    "--compose", "flip", "--word", "0110")
    assert code == 0 and out == "01\n"     # flip then shift: radius 1
    code, report = run_json(capsys, "aut", "morse", "--apply", "shift^1.flip")
    assert report["normal_form"] == [1, 1]
    for spec, k in (("shift^-2", -2), ("shift^+2", 2), ("shift^-0", 0)):
        code, report = run_json(capsys, "aut", "morse", "--apply", spec)
        assert code == 0 and report["normal_form"] == [k, 0]


def test_aut_report_and_expectations(capsys):
    code, report = run_json(capsys, "aut", "morse", "--radius", "1",
                            "--check-len", "4096")
    assert code == 0
    assert report["count"] == 6 and len(report["codes"]) == 6
    assert report["group"]["shape"] == "Z ⊕ Z/2"
    assert main(["aut", "morse", "--radius", "1", "--expect-count", "7"]) == 1


def test_pairs_verdict(capsys):
    code, report = run_json(
        capsys, "pairs", "morse", "splice(rev(fix0),fix0)",
        "splice(rev(flip(fix0)),fix0)", "--horizon", "65536")
    assert code == 0
    assert report["verdict"] == "positively-asymptotic"
    assert main(["pairs", "morse", "fix0", "flip(fix0)",
                 "--horizon", "1024", "--expect-verdict",
                 "positively-asymptotic"]) == 1


def test_pairs_certify(capsys):
    code, report = run_json(capsys, "pairs", "morse", "--certify",
                            "addr(010101010101,0)", "--levels", "12",
                            "--expect-granted")
    assert code == 0 and report["granted"]


def test_collapse(capsys):
    code, report = run_json(capsys, "collapse", "morse", "--direction",
                            "backward", "--horizon", "4096",
                            "--resolution", "16")
    assert code == 0
    assert report["classes"] == [["mu", "nu_prime"], ["mu_prime", "nu"]]


def test_factor_subcommand(capsys):
    code, report = run_json(capsys, "factor", "morse", "--word", "01101001")
    assert code == 0 and report["preimage"] == "0110" and report["offset"] == 0
    code, report = run_json(capsys, "factor", "morse", "--address-of",
                            "shift(fix0,5)", "--levels", "4")
    assert code == 0 and report["digits"] == "1010"


def test_census(capsys):
    code, report = run_json(capsys, "census", "morse", "--address",
                            "000000000000", "--expect-cardinality", "4")
    assert code == 0 and report["quotient_cardinality"] == 2
    assert main(["census", "morse", "--address", "000000000000",
                 "--expect-cardinality", "3"]) == 1


def test_freq_formats(capsys):
    code, out = run(capsys, "freq", "morse", "--length", "1",
                    "--steps", "1024", "--format", "tsv")
    assert code == 0
    assert out == "0\t512\t0.500000\n1\t512\t0.500000\n"
    code, report = run_json(capsys, "freq", "morse", "--length", "1",
                            "--steps", "1024")
    assert report["words"][0] == {"word": "0", "count": 512, "total": 1024,
                                  "frequency": "0.500000"}


def test_join(capsys):
    code, report = run_json(capsys, "join", "morse", "addr(010101010101010101,0)",
                            "shift(addr(010101010101010101,0),3)",
                            "--resolution", "8", "--steps", "2048",
                            "--check-addresses", "8")
    assert code == 0
    assert report["output_map_single_valued"]
    assert report["address_profile"]["constant"]


def test_dichotomy(capsys):
    code, report = run_json(
        capsys, "dichotomy", "morse", "addr(010101010101010101,0)",
        "shift(addr(010101010101010101,0),2)", "--steps", "8192",
        "--expect-case", "case2")
    assert code == 0
    assert report["fitted_radius"] == 2


def test_sr_odometer(capsys):
    code, report = run_json(capsys, "sr", "odometer", "--levels", "5")
    assert code == 0
    assert report["summary"] == "SR (finite-level witness)"


def test_coalesce(capsys):
    code, report = run_json(capsys, "coalesce", "morse", "--radius", "1")
    assert code == 0 and report["flagged"] == []


def test_odometer_expectations(capsys):
    assert main(["odometer", "--levels", "3", "--expect", "8"]) == 0
    assert main(["odometer", "--levels", "3", "--expect", "9"]) == 1


def test_usage_errors():
    with pytest.raises(SystemExit) as err:
        main(["lang", "sturmian"])
    assert err.value.code == 2
    assert main(["pairs", "morse", "fix0"]) == 2
    assert main(["point", "morse", "warp(fix0)"]) == 2


def usage_failure(capsys, *argv):
    """The exit status and stderr of a run that should fail cleanly."""
    code = main(list(argv))
    return code, capsys.readouterr().err


# files that hold no code object (or no config), written beside each run
# below
CODE_FILES = {"empty.json": b"{}", "list.json": b"[1, 2]",
              "half.json": b'{"radius": 0.5, "blocks": []}',
              "latin1.json": b"\x80", "deep.json": b"[" * 5000 + b"]" * 5000,
              "latin1.cfg": b"length=\x80",
              "nokey.cfg": b"length=2\n\nnonsense\n",
              "emptykey.cfg": b" = 5\n"}


# The names these cases were first collected under, kept literally so
# that rewording a message renames no test.
BAD_INPUT_IDS = [
    "argv0---config needs a FILE argument",
    "argv1---config needs a FILE argument",
    "argv2-cannot read code file",
    "argv3-bad code spec 'shift^x'",
    "argv4-factor needs --word or --address-of",
    "argv5-need resolution >= 0 and steps >= 0",
    "argv6-a code object needs \"radius\" and \"blocks\"",
    "argv7-a code object needs \"radius\" and \"blocks\"",
    "argv8-code radius must be an integer >= 0, got 0.5",
    "argv9-code file latin1.json is not JSON",
    "argv10-code file deep.json is not JSON",
    "argv11-config file latin1.cfg is not text",
    "argv12-bad point spec 'shift(fix0,-_1)': expected integer (at 11)",
    "argv13-bad point spec 'shift(fix0,+)': expected integer (at 11)",
    "argv14-bad point spec 'shift(fix0,\u00b2)': expected integer (at 11)",
    "argv15-bad point spec 'addr(\u0663,0)': expected digit string (at 5)",
    "argv18-bad code spec 'shift^1_0'",
    "argv19-bad code spec 'shift^ 3'",
    "argv20-bad code spec 'shift^\u0661'",
    "argv21-bad code spec 'shift^+-1'",
    "argv22-the empty word has no phase to desubstitute",
    "argv23-the empty word has no phase to desubstitute",
    "argv24-radius must be >= 0, got -1",
    "argv25-check_len must be >= 1, got -4",
    "argv26-check_len must be >= 1, got 0",
    "argv27-radius must be >= 0, got -1",
    "argv28-check_len must be >= 1, got -4",
    "argv29-radius must be >= 0, got -1",
    "argv30-radius must be >= 0, got -2",
    "argv31-max_shift must be >= 0, got -1",
    "argv32-bad address '01x': expected ASCII digits",
    "argv33-bad address '\uff10\uff1101': expected ASCII digits",
    "argv34---sample must be >= 1, got 0",
    "argv35---sample must be >= 1, got -3",
    "argv36-member windows need length 2L+1 = 65",
    "argv37-census needs --address or --sample",
    "argv38-pairs needs two point specs (or --certify)",
    "argv39-cannot write report file",
    "argv40-config file nokey.cfg line 3: expected key=value",
    "argv41-config file nokey.cfg line 3: expected key=value",
    "argv42-config file emptykey.cfg line 1: expected key=value",
    "argv43-resolution must be >= 0, got -1",
    "argv44-resolution must be >= 0, got -1",
]


@pytest.mark.parametrize("argv,message", [
    (["--config"], "--config needs a FILE argument"),
    (["lang", "morse", "--config"], "--config needs a FILE argument"),
    (["aut", "morse", "--apply", "@missing.json"], "cannot read code file"),
    (["aut", "morse", "--apply", "shift^x"], "bad code spec 'shift^x'"),
    (["factor", "morse"], "factor needs --word or --address-of"),
    (["join", "morse", "fix0", "fix0", "--steps", "-5"],
     "need resolution >= 0 and steps >= 0"),
    (["aut", "morse", "--apply", "@empty.json"],
     'a code object needs "radius" and "blocks"'),
    (["aut", "morse", "--apply", "@list.json"],
     'a code object needs "radius" and "blocks"'),
    (["aut", "morse", "--apply", "@half.json"],
     "code radius must be an integer >= 0, got 0.5"),
    (["aut", "morse", "--apply", "@latin1.json"],
     "code file latin1.json is not JSON"),
    (["aut", "morse", "--apply", "@deep.json"],
     "code file deep.json is not JSON"),
    (["--config", "latin1.cfg", "lang", "morse"],
     "config file latin1.cfg is not text"),
    (["point", "morse", "shift(fix0,-_1)"],
     "bad point spec 'shift(fix0,-_1)': expected integer (at 11)"),
    (["point", "morse", "shift(fix0,+)"],
     "bad point spec 'shift(fix0,+)': expected integer (at 11)"),
    (["point", "morse", "shift(fix0,\u00b2)"],
     "bad point spec 'shift(fix0,\u00b2)': expected integer (at 11)"),
    (["point", "morse", "addr(\u0663,0)"],
     "bad point spec 'addr(\u0663,0)': expected digit string (at 5)"),
    (["aut", "morse", "--apply", "shift^1_0"], "bad code spec 'shift^1_0'"),
    (["aut", "morse", "--apply", "shift^ 3"], "bad code spec 'shift^ 3'"),
    (["aut", "morse", "--apply", "shift^\u0661"],
     "bad code spec 'shift^\u0661'"),
    (["aut", "morse", "--apply", "id", "--compose", "shift^+-1.flip"],
     "bad code spec 'shift^+-1'"),
    (["factor", "morse", "--word", ""],
     "the empty word has no phase to desubstitute"),
    (["factor", "period-doubling", "--word", ""],
     "the empty word has no phase to desubstitute"),
    (["aut", "morse", "--radius", "-1"], "radius must be >= 0, got -1"),
    (["aut", "morse", "--radius", "1", "--check-len", "-4"],
     "check_len must be >= 1, got -4"),
    (["aut", "morse", "--check-len", "0"], "check_len must be >= 1, got 0"),
    (["coalesce", "morse", "--radius", "-1"], "radius must be >= 0, got -1"),
    (["coalesce", "morse", "--check-len", "-4"],
     "check_len must be >= 1, got -4"),
    (["sr", "morse", "--radius", "-1"], "radius must be >= 0, got -1"),
    (["sr", "fibonacci", "--radius", "-2"], "radius must be >= 0, got -2"),
    (["sr", "morse", "--max-shift", "-1"], "max_shift must be >= 0, got -1"),
    (["census", "morse", "--address", "01x"],
     "bad address '01x': expected ASCII digits"),
    (["census", "morse", "--address", "\uff10\uff1101"],
     "bad address '\uff10\uff1101': expected ASCII digits"),
    (["census", "morse", "--sample", "0"], "--sample must be >= 1, got 0"),
    (["census", "morse", "--sample", "-3", "--expect-cardinality", "2"],
     "--sample must be >= 1, got -3"),
    (["join", "morse", "fix0", "fix0", "--member", "01", "01"],
     "member windows need length 2L+1 = 65"),
    (["census", "morse"], "census needs --address or --sample"),
    (["pairs", "morse", "fix0"], "pairs needs two point specs (or --certify)"),
    # a report directory that names an existing regular file
    (["--out", "empty.json", "lang", "morse"], "cannot write report file"),
    # a config line with no "=" or no key, under either spelling of the
    # option
    (["--config", "nokey.cfg", "lang", "morse"],
     "config file nokey.cfg line 3: expected key=value"),
    (["--config=nokey.cfg", "lang", "morse"],
     "config file nokey.cfg line 3: expected key=value"),
    (["--config", "emptykey.cfg", "lang", "morse"],
     "config file emptykey.cfg line 1: expected key=value"),
    # a negative census resolution, named before any census is built
    (["census", "morse", "--address", "0110", "--resolution", "-1"],
     "resolution must be >= 0, got -1"),
    (["pairs", "morse", "--certify", "addr(010101010101010101,0)",
      "--resolution", "-1"], "resolution must be >= 0, got -1"),
], ids=BAD_INPUT_IDS)
def test_bad_input_exits_2_with_one_line(capsys, tmp_path, monkeypatch,
                                         argv, message):
    monkeypatch.chdir(tmp_path)
    for name, text in CODE_FILES.items():
        (tmp_path / name).write_bytes(text)
    code, err = usage_failure(capsys, *argv)
    assert code == 2
    assert err.startswith("minflow: " + message) and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["aut", "morse", "--apply", "id", "--compose", "shift^20", "--word",
     "011010011001011010010110011010011001011001101001"],
    ["aut", "morse", "--apply", "shift^12", "--word",
     "01101001100101101001011001101001"],
], ids=["radius-20", "radius-12"])
def test_wide_codes_apply_through_their_rule_dicts(capsys, kernel_calls,
                                                   argv):
    # a table of all 2^(2r+1) words would be over the cap at these radii;
    # the rule dict holds only the admissible blocks, and is read with no
    # kernel call.  The word is a Morse word, so shift^k of it is its
    # tail from 2k on.
    assert run(capsys, *argv) == (0, "01101001\n")
    assert kernel_calls == []


# The names these cases were first collected under, kept literally so
# that rewording a message renames no test.
INPUT_FAULT_IDS = [
    "argv0-window '2' at 2 has no rule entry",
    "argv1-window '000' at 0 has no rule entry",
    "argv2-window '00x' at 5 has no rule entry",
    "argv3-test word of length 3 misses 5 admissible blocks",
    "argv4-splice splice(rev(fix(0)),fix(0)) produced inadmissible window "
    "'00100100' at coordinate -4",
]


@pytest.mark.parametrize("argv,line", [
    # a word with a window outside the code's rule: the first such window
    # and its position are named, whether it holds a symbol outside the
    # alphabet or an inadmissible block
    (["aut", "morse", "--apply", "id", "--word", "0120"],
     "window '2' at 2 has no rule entry"),
    (["aut", "morse", "--apply", "shift^1", "--word", "00010"],
     "window '000' at 0 has no rule entry"),
    (["aut", "morse", "--apply", "flip", "--compose", "shift^1", "--word",
      "0110100x"], "window '00x' at 5 has no rule entry"),
    # a test word too short to hold every block, and a seam that is not
    # admissible, are faults of the input
    (["aut", "morse", "--radius", "1", "--check-len", "3"],
     "test word of length 3 misses 5 admissible blocks"),
    (["point", "fibonacci", "fix0"],
     "splice splice(rev(fix(0)),fix(0)) produced inadmissible window "
     "'00100100' at coordinate -4")], ids=INPUT_FAULT_IDS)
def test_input_faults_name_themselves_on_one_line(capsys, argv, line):
    assert usage_failure(capsys, *argv) == (2, "minflow: %s\n" % line)


NO_FLIP = "'%s': the symbol flip does not commute with its substitution"


# The names these cases were first collected under, kept literally so
# that rewording a message renames no test.
STRUCTURAL_REFUSAL_IDS = [
    "argv0-'period-doubling': the symbol flip does not commute with its "
    "substitution",
    "argv1-'period-doubling': the symbol flip does not commute with its "
    "substitution",
    "argv2-'fibonacci': the symbol flip does not commute with its "
    "substitution",
    "argv3-'period-doubling': the symbol flip does not commute with its "
    "substitution",
    "argv4-'period-doubling': the symbol flip does not commute with its "
    "substitution",
    "argv5-'fibonacci': the symbol flip does not commute with its "
    "substitution",
    "argv6-'fibonacci': the symbol flip does not commute with its "
    "substitution",
    "argv7-desubstitutions need a constant-length system, 'fibonacci' is not",
    "argv8-addresses need a constant-length system, 'fibonacci' is not",
    "argv9-fiber censuses need a constant-length system, 'fibonacci' is not",
    "argv10-fiber censuses need a constant-length system, 'fibonacci' is not",
    "argv11-address points need a constant-length system, 'fibonacci' is not",
]


@pytest.mark.parametrize("argv,message", [
    # a flipped point of a system whose substitution the flip does not
    # commute with is refused at construction, before any window is
    # printed
    (["point", "period-doubling", "flip(addr(0101,0))", "--lo", "0", "--hi",
      "0"], NO_FLIP % "period-doubling"),
    (["point", "period-doubling", "flip(addr(0101,0))", "--lo", "-2", "--hi",
      "3"], NO_FLIP % "period-doubling"),
    (["point", "fibonacci", "splice(rev(flip(fix0)),fix0)"],
     NO_FLIP % "fibonacci"),
    (["dichotomy", "period-doubling", "addr(010101010101010101,0)",
      "shift(addr(010101010101010101,0),2)"], NO_FLIP % "period-doubling"),
    # at L = 0 each flipped window is one admissible symbol, and the
    # flipped target pair was once reported as a Case 1 witness
    (["dichotomy", "period-doubling", "addr(010101010101010101,0)",
      "shift(addr(010101010101010101,0),2)", "--resolution", "0"],
     NO_FLIP % "period-doubling"),
    (["collapse", "fibonacci", "--direction", "forward"],
     NO_FLIP % "fibonacci"),
    (["aut", "fibonacci", "--apply", "flip"], NO_FLIP % "fibonacci"),
    (["factor", "fibonacci", "--word", "0100101"],
     "desubstitutions need a constant-length system, 'fibonacci' is not"),
    (["factor", "fibonacci", "--address-of", "fix0"],
     "addresses need a constant-length system, 'fibonacci' is not"),
    (["census", "fibonacci", "--address", "0101"],
     "fiber censuses need a constant-length system, 'fibonacci' is not"),
    (["census", "fibonacci", "--sample", "2"],
     "fiber censuses need a constant-length system, 'fibonacci' is not"),
    (["point", "fibonacci", "addr(01,0)"],
     "address points need a constant-length system, 'fibonacci' is not"),
], ids=STRUCTURAL_REFUSAL_IDS)
def test_structural_refusals_exit_2_with_one_line(capsys, argv, message):
    code, err = usage_failure(capsys, *argv)
    assert (code, err) == (2, "minflow: %s\n" % message)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ("lang", "morse", "--fixed-point"),
    ("freq", "morse", "--length", "1", "--steps"),
    ("aut", "morse", "--radius", "0", "--check-len"),
    ("coalesce", "morse", "--radius", "0", "--check-len")])
def test_fixed_point_prefix_over_its_cap_exits_2(capsys, argv):
    # refused before the prefix is built, not by running out of memory;
    # the cap is words.BLOCK_CAP
    code, err = usage_failure(capsys, *argv, str((1 << 22) + 1))
    assert code == 2
    assert re.fullmatch(r"minflow: fixed-point prefix of \d+ symbols, over "
                        r"the cap 4194304\n", err)


def test_census_sample_is_refused_over_its_cap_before_any_census(capsys):
    # every census keeps its record until the end, about 0.3 ms and 290
    # bytes each, so a sample of 10^9 would run for days
    t0 = time.monotonic()
    code, err = usage_failure(capsys, "census", "morse", "--sample",
                              "1000000000")
    assert time.monotonic() - t0 < 0.5
    assert (code, err) == (2, "minflow: 1000000000 censuses exceed cap "
                              "10000\n")


def test_compose_needs_no_rule_table(capsys):
    # composition reads the rule dicts, and so does applying the radius-20
    # composite to a word: no 2^41-entry table is built
    code, report = run_json(capsys, "aut", "morse", "--apply", "id",
                            "--compose", "shift^20")
    assert code == 0 and report["normal_form"] == [20, 0]
    assert len(report["code"]["blocks"]) == 128


def test_code_file_that_is_not_json(capsys, tmp_path):
    bad = tmp_path / "code.json"
    bad.write_text("{radius")
    code, err = usage_failure(capsys, "aut", "morse", "--apply", "@%s" % bad)
    assert code == 2 and "is not JSON" in err and err.count("\n") == 1


def test_reports_are_byte_identical(capsys):
    _, first = run(capsys, "aut", "morse", "--radius", "1")
    _, second = run(capsys, "aut", "morse", "--radius", "1")
    assert first == second


def test_output_directory(tmp_path, capsys, monkeypatch):
    out = tmp_path / "reports"
    code, _ = run(capsys, "--out", str(out), "census", "morse",
                  "--address", "0000")
    assert code == 0
    assert (out / "minflow_census.json").exists()
    env_dir = tmp_path / "env"
    monkeypatch.setenv("MINFLOW_OUT", str(env_dir))
    run(capsys, "lang", "morse", "--length", "2")
    assert (env_dir / "minflow_lang.txt").read_text() == "00\n01\n10\n11\n"


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("length=2\n# comment\n")
    code, out = run(capsys, "--config", str(cfg), "lang", "morse")
    assert code == 0
    assert out.splitlines() == ["00", "01", "10", "11"]
    # explicit flags still win over config values
    code, out = run(capsys, "--config", str(cfg), "lang", "morse",
                    "--length", "1")
    assert out.splitlines() == ["0", "1"]


def test_config_file_named_with_an_equals_sign(tmp_path, capsys):
    # argparse takes --config=FILE at the top level too, so the file is
    # read under that spelling as well
    cfg = tmp_path / "run.cfg"
    cfg.write_text("radius=2\n")
    spaced = run(capsys, "--config", str(cfg), "aut", "morse")
    inline = run(capsys, "--config=%s" % cfg, "aut", "morse")
    assert inline == spaced
    assert spaced[0] == 0 and len(json.loads(spaced[1])["codes"]) == 10


@pytest.mark.parametrize("flag", ["--conf", "--c", "--ou"])
def test_top_level_options_are_not_abbreviated(tmp_path, capsys, flag):
    # an abbreviated --config used to parse, and the file was never read
    cfg = tmp_path / "run.cfg"
    cfg.write_text("length=2\n")
    with pytest.raises(SystemExit) as exc:
        main([flag, str(cfg), "lang", "morse"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["--conf", "{cfg}", "lang", "morse"],
    ["--conf={cfg}", "lang", "morse"],
    ["--out", "{dir}", "--conf", "{cfg}", "lang", "morse"],
    ["--ou", "{dir}", "lang", "morse"],
    ["--bogus", "lang", "morse"]])
def test_an_unknown_top_level_option_is_named(tmp_path, capsys, monkeypatch,
                                              argv):
    # argparse alone reads the value after an unknown option as the
    # subcommand, and names the value instead of the option
    cfg = tmp_path / "run.cfg"
    cfg.write_text("length=2\n")
    opened = []
    monkeypatch.setattr("builtins.open",
                        lambda *a, **k: opened.append(a) or pytest.fail())
    argv = [t.format(cfg=cfg, dir=tmp_path / "out") for t in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    flag = next(t for t in argv if t.startswith("--") and t != "--out")
    assert out == "" and opened == []
    assert err.splitlines()[-1] == \
        "minflow: error: unrecognized arguments: %s" % flag
    assert not (tmp_path / "out").exists()


# -- fuzzing the exit-status contract ------------------------------------

SYMBOLS = st.sampled_from("0123")
ONE_SIDED = st.recursive(
    st.builds("fix({})".format, SYMBOLS) | st.builds("fix{}".format, SYMBOLS),
    lambda inner: st.builds("rev({})".format, inner)
    | st.builds("flip({})".format, inner),
    max_leaves=3)
POINTS = st.recursive(
    st.builds("splice({},{})".format, ONE_SIDED, ONE_SIDED)
    | st.builds("fix({})".format, SYMBOLS)
    | st.builds("addr({},{})".format,
                st.text("0123", min_size=0, max_size=12), SYMBOLS),
    lambda inner: st.builds("shift({},{})".format, inner,
                            st.integers(-40, 40))
    | st.builds("flip({})".format, inner),
    max_leaves=3)
# grammar specs, cut or spliced with characters int() and isdigit() read
NOISE = st.text("()+-_ ,0123456789²٣fixrevsplicehftadr", max_size=6)
POINT_SPECS = st.one_of(
    POINTS,
    st.tuples(POINTS, st.integers(0, 40), st.integers(0, 3), NOISE).map(
        lambda t: t[0][:t[1]] + t[3] + t[0][t[1] + t[2]:]),
    st.text(max_size=12))
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats(-2, 2)
    | st.text("01", max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["radius", "blocks", "x"]), inner,
                      max_size=3),
    max_leaves=8)
# what a code file holds: JSON, deeply nested JSON, or any bytes
CODE_FILES_TEXT = st.one_of(
    JSON.map(lambda obj: json.dumps(obj).encode()),
    st.integers(1, 5000).map(lambda n: b"[" * n + b"]" * n),
    st.binary(max_size=12))
CODE_SPECS = st.one_of(
    st.sampled_from(["id", "flip", "id.flip", "flip.flip"]),
    st.builds("shift^{}".format, st.integers(-3, 3)),
    st.builds("shift^{}.flip".format, st.integers(-3, 3)),
    st.builds("shift^{}".format, NOISE),
    st.just("@code.json"),
    st.text(max_size=10))
CONFIG_KEYS = st.sampled_from(["length", "count", "check", "lo", "hi",
                               "levels", "expect", "fixed_point", "word",
                               "", "=", "-", "config"])
CONFIG_LINES = st.lists(
    st.builds("{}={}".format, CONFIG_KEYS | st.text(max_size=4),
              st.integers(-3, 12).map(str) | st.text(max_size=4))
    | st.text(max_size=8), max_size=4).map("\n".join)


def exit_status(capsys, argv):
    """main's exit status, and that it printed no traceback."""
    try:
        code = main(argv)
    except SystemExit as exc:        # argparse's usage errors
        code = exc.code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code


# derandomized: every run tries the same examples, so that the suite's
# verdict does not depend on the run
FUZZ = settings(max_examples=100, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(system=st.sampled_from(["morse", "fibonacci", "period-doubling"]),
       spec=POINT_SPECS, lo=st.integers(-40, 40), width=st.integers(-2, 40))
def test_fuzz_point_specs(capsys, system, spec, lo, width):
    argv = ["point", system, spec, "--lo", str(lo), "--hi", str(lo + width)]
    assert exit_status(capsys, argv) in (0, 1, 2)


@FUZZ
@given(system=st.sampled_from(["morse", "fibonacci", "period-doubling"]),
       apply=CODE_SPECS, compose=st.none() | CODE_SPECS,
       code=CODE_FILES_TEXT,
       word=st.none() | st.text("0123", max_size=12))
def test_fuzz_code_specs(capsys, tmp_path_factory, system, apply, compose,
                         code, word):
    path = tmp_path_factory.mktemp("code") / "code.json"
    path.write_bytes(code)
    argv = ["aut", system, "--apply", apply.replace("@code.json",
                                                    "@%s" % path)]
    if compose is not None:
        argv += ["--compose", compose.replace("@code.json", "@%s" % path)]
    if word is not None:
        argv += ["--word", word]
    assert exit_status(capsys, argv) in (0, 1, 2)


@FUZZ
@given(system=st.sampled_from(["morse", "fibonacci", "period-doubling"]),
       word=st.text("0123", max_size=40) | st.text(max_size=12))
def test_fuzz_factor_words(capsys, system, word):
    assert exit_status(capsys, ["factor", system, "--word", word]) in (0, 2)


@FUZZ
@given(command=st.sampled_from(["aut", "coalesce"]),
       system=st.sampled_from(["morse", "fibonacci", "period-doubling"]),
       radius=st.integers(-2, 6), check_len=st.integers(-4, 600))
def test_fuzz_enumerations(capsys, command, system, radius, check_len):
    # check lengths down to below the code window and below 1, where the
    # test word misses blocks
    argv = [command, system, "--radius", str(radius),
            "--check-len", str(check_len)]
    assert exit_status(capsys, argv) in (0, 1, 2)


@FUZZ
@given(command=st.sampled_from([["lang", "morse"], ["odometer"],
                                ["point", "morse", "fix0"]]),
       text=CONFIG_LINES, raw=st.none() | st.binary(max_size=12))
def test_fuzz_config_lines(capsys, tmp_path_factory, command, text, raw):
    path = tmp_path_factory.mktemp("config") / "run.cfg"
    if raw is None:
        path.write_text(text)
    else:
        path.write_bytes(raw)
    argv = ["--config", str(path)] + command
    assert exit_status(capsys, argv) in (0, 1, 2)


@pytest.mark.parametrize("argv", [
    ["dichotomy", "morse", "addr(010101010101010101,0)",
     "shift(addr(010101010101010101,0),2)"],
    ["join", "morse", "addr(010101010101010101,0)",
     "shift(addr(010101010101010101,0),-7)", "--check-addresses", "8"],
    ["factor", "morse", "--address-of", "shift(fix0,-25992)", "--levels",
     "8"],
    ["pairs", "morse", "splice(rev(fix0),fix0)",
     "splice(rev(flip(fix0)),fix0)", "--horizon", "65536"]],
    ids=lambda argv: argv[0])
def test_a_cold_command_walks_sigma_once(argv, walks, monkeypatch, capsys):
    # fixed-point prefixes, language covers, the occurrence check, level
    # images and address points all read the system's one tower
    monkeypatch.setattr("minflow.words._instances", {})
    assert main(argv) == 0
    assert len(walks) == 1
