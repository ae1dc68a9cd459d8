"""Command-line harness.

Every library operation is reachable from exactly one subcommand (the
mapping is tabulated in the README).  Reports are machine-readable and
byte-stable: JSON with sorted keys, frequencies as count/total rationals
next to 6-decimal floats.  Exit status 0 on success, 1 when an
--expect... check fails, 2 on usage or domain errors.

A fresh process loads only the layers its subcommand runs: each
handler imports its own modules, and the parser reads its defaults
from `defaults`, which imports nothing.
"""

import argparse
import json
import os
import sys

from . import defaults
from .errors import DomainError, MinflowError
from .words import REGISTRY, fixed_point_prefix, get_system

CHECK_FAILED = True  # handler return value mapped to exit status 1


def _emit(args, text, suffix):
    sys.stdout.write(text)
    out_dir = args.out or os.environ.get("MINFLOW_OUT")
    if out_dir:
        path = os.path.join(out_dir, "minflow_%s.%s" % (args.command, suffix))
        try:
            os.makedirs(out_dir, exist_ok=True)
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError("cannot write report file: %s" % exc) from None


def _emit_json(args, report):
    _emit(args, json.dumps(report, sort_keys=True, indent=2) + "\n", "json")


def _system(args):
    return get_system(args.system)


def _point(args, spec):
    from .points import parse_point_spec
    return parse_point_spec(_system(args), spec)


# -- subcommand handlers -------------------------------------------------

def cmd_lang(args):
    system = _system(args)
    if args.substitute is not None:
        _emit(args, system.substitution.apply(args.substitute) + "\n", "txt")
        return
    if args.fixed_point is not None:
        _emit(args, fixed_point_prefix(system.substitution, system.seed,
                                       args.fixed_point) + "\n", "txt")
        return
    if args.check is not None:
        ok = system.is_admissible(args.check)
        _emit(args, ("admissible" if ok else "inadmissible") + "\n", "txt")
        return None if ok else CHECK_FAILED
    words = sorted(system.language(args.length))
    if args.count:
        _emit(args, "%d\n" % len(words), "txt")
    else:
        _emit(args, "".join(w + "\n" for w in words), "txt")


def cmd_point(args):
    point = _point(args, args.spec)
    window = point.window(args.lo, args.hi)
    _emit_json(args, {"spec": args.spec, "lo": args.lo, "hi": args.hi,
                      "window": window})


def _parse_code_spec(system, text):
    """Code mini-syntax: id | flip | shift^K | shift^K.flip | @file.json."""
    from .codes import (SlidingBlockCode, compose, flip_code, identity_code,
                        shift_code)
    from .points import INTEGER
    if text.startswith("@"):
        try:
            with open(text[1:]) as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise DomainError("cannot read code file: %s" % exc) from None
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, UnicodeDecodeError, or nesting too deep
            raise DomainError("code file %s is not JSON: %s"
                              % (text[1:], exc)) from None
        return SlidingBlockCode.from_json(system, obj)
    flip = text.endswith(".flip")
    if flip:
        text = text[:-len(".flip")]
    if text == "id":
        base = identity_code(system)
    elif text == "flip":
        return flip_code(system)
    elif text.startswith("shift^"):
        k = text[len("shift^"):]
        if not INTEGER.fullmatch(k):
            raise DomainError("bad code spec %r" % text)
        base = shift_code(system, int(k))
    else:
        raise DomainError("bad code spec %r" % text)
    return compose(base, flip_code(system)) if flip else base


def cmd_aut(args):
    from .codes import classify_aut_group, compose, enumerate_endomorphisms
    system = _system(args)
    if args.apply is not None:
        code = _parse_code_spec(system, args.apply)
        if args.compose is not None:
            code = compose(code, _parse_code_spec(system, args.compose))
        if args.word is None:
            report = {"code": code.to_json(),
                      "normal_form": list(code.normal_form)
                      if code.normal_form else None}
            _emit_json(args, report)
        else:
            _emit(args, code.apply(args.word) + "\n", "txt")
        return
    codes = enumerate_endomorphisms(system, args.radius, args.check_len)
    group = classify_aut_group(codes, system)
    report = {"system": args.system, "radius": args.radius,
              "certified_up_to": args.check_len, "count": len(codes),
              "group": group.to_json(),
              "codes": [c.to_json() for c in codes]}
    _emit_json(args, report)
    if args.expect_count is not None and args.expect_count != len(codes):
        return CHECK_FAILED


def cmd_pairs(args):
    from . import pairs
    if args.certify is not None:
        cert = pairs.distal_certificate(_point(args, args.certify),
                                        args.horizon, args.resolution,
                                        args.levels)
        _emit_json(args, cert.to_json())
        return None if cert.granted or not args.expect_granted else CHECK_FAILED
    if args.spec1 is None or args.spec2 is None:
        raise DomainError("pairs needs two point specs (or --certify)")
    p = _point(args, args.spec1)
    q = _point(args, args.spec2)
    result = pairs.classify_pair(p, q, args.horizon, args.resolution)
    _emit_json(args, result.to_json())
    print(result.verdict, file=sys.stderr)
    if args.expect_verdict and args.expect_verdict != result.verdict:
        return CHECK_FAILED


def cmd_collapse(args):
    from . import pairs
    from .points import seam_points
    system = _system(args)
    fiber = seam_points(system)
    pattern = pairs.asymptotic_collapse(fiber, args.direction, args.horizon,
                                        args.resolution)
    _emit_json(args, pattern.to_json())


def cmd_factor(args):
    from . import factors
    system = _system(args)
    if args.word is not None:
        preimage, offset = factors.desubstitute(system, args.word)
        _emit_json(args, {"word": args.word, "preimage": preimage,
                          "offset": offset})
        return
    if args.address_of is None:
        raise DomainError("factor needs --word or --address-of")
    point = _point(args, args.address_of)
    addr = factors.address(system, point, args.levels)
    _emit_json(args, {"spec": args.address_of, "levels": args.levels,
                      "digits": addr.digit_string()})


def cmd_census(args):
    from . import factors
    system = _system(args)
    if args.sample is not None:
        if args.sample < 1:
            raise DomainError("--sample must be >= 1, got %d" % args.sample)
        records = [census.to_json() for census in factors.sample_censuses(
            system, args.sample, args.levels, args.resolution, args.seed)]
        report = {"generator": "random.Random", "seed": args.seed,
                  "levels": args.levels, "resolution": args.resolution,
                  "censuses": records}
        _emit_json(args, report)
        cards = {r["cardinality"] for r in records}
        if args.expect_cardinality is not None and \
                cards != {args.expect_cardinality}:
            return CHECK_FAILED
        return
    if args.address is None:
        raise DomainError("census needs --address or --sample")
    if not all("0" <= d <= "9" for d in args.address):
        raise DomainError("bad address %r: expected ASCII digits"
                          % args.address)
    addr = factors.census_address(system, (int(d) for d in args.address))
    census = factors.fiber_census(system, addr, args.resolution)
    _emit_json(args, census.to_json())
    if args.expect_cardinality is not None and \
            args.expect_cardinality != census.cardinality:
        return CHECK_FAILED


def cmd_freq(args):
    from . import factors
    table = factors.word_frequencies(_system(args), args.length, args.steps)
    if args.format == "tsv":
        _emit(args, table.to_tsv(), "tsv")
    else:
        _emit_json(args, table.to_json())


def cmd_join(args):
    from . import joins
    p = _point(args, args.spec1)
    q = _point(args, args.spec2)
    joint = joins.joint_language(p, q, args.resolution, args.steps)
    report = {"L": args.resolution, "T": args.steps,
              "pairs_observed": len(joint.pair_times),
              "output_map_single_valued":
                  all(len(v) == 1 for v in joint.output_map().values())}
    failed = False
    if args.member:
        a, b = args.member
        report["member"] = joint.member(a, b)
    if args.check_addresses is not None:
        profile = joins.joint_address_profile(joint, args.check_addresses)
        report["address_profile"] = profile
        failed = not profile["constant"]
    _emit_json(args, report)
    if failed:
        return CHECK_FAILED


def cmd_dichotomy(args):
    from . import joins
    x0 = _point(args, args.spec_x0)
    x = _point(args, args.spec_x)
    verdict = joins.dichotomy(x0, x, args.resolution, args.steps,
                              args.radius_budget,
                              certificate_level=args.levels)
    _emit_json(args, verdict.to_json())
    if args.expect_case and args.expect_case != verdict.case:
        return CHECK_FAILED


def cmd_sr(args):
    from . import joins
    report = joins.sr_report(args.system, max_shift=args.max_shift,
                             radius=args.radius, resolution=args.resolution,
                             steps=args.steps, levels=args.levels)
    _emit_json(args, report)


def cmd_coalesce(args):
    from . import joins
    report = joins.coalescence_check(_system(args), args.radius,
                                     args.check_len)
    _emit_json(args, report)
    if report["flagged"] and not args.allow_flags:
        return CHECK_FAILED


def cmd_odometer(args):
    from . import joins
    report = joins.odometer_sr_witness(args.levels)
    _emit_json(args, report)
    if args.expect is not None and args.expect != report["translation_count"]:
        return CHECK_FAILED


# -- parser ----------------------------------------------------------------

def _add_system(sub):
    sub.add_argument("system", choices=sorted(REGISTRY),
                     help="built-in system name")


def build_parser():
    """The top parser and its subparsers action, whose `choices` are the
    subcommands."""
    top = argparse.ArgumentParser(
        prog="minflow",
        description="desk-scale symbolic dynamics laboratory",
        # `_apply_config` reads the file only when named in full; an
        # abbreviation such as --conf would otherwise parse and be ignored
        allow_abbrev=False)
    top.add_argument("--out", default=None,
                     help="directory for report files (default: "
                          "$MINFLOW_OUT, else stdout only)")
    top.add_argument("--config", default=None,
                     help="key=value file supplying argument defaults")
    subs = top.add_subparsers(dest="command", required=True)

    s = subs.add_parser("lang", help="factor language of a system")
    _add_system(s)
    s.add_argument("--length", type=int, default=3)
    s.add_argument("--count", action="store_true")
    s.add_argument("--check", default=None, metavar="WORD",
                   help="test admissibility of WORD (exit 1 if inadmissible)")
    s.add_argument("--substitute", default=None, metavar="WORD")
    s.add_argument("--fixed-point", type=int, default=None, metavar="N")
    s.set_defaults(func=cmd_lang)

    s = subs.add_parser("point", help="evaluate a window of a point")
    _add_system(s)
    s.add_argument("spec", help="point spec, e.g. splice(rev(fix0),fix0)")
    s.add_argument("--lo", type=int, default=0)
    s.add_argument("--hi", type=int, default=15)
    s.set_defaults(func=cmd_point)

    s = subs.add_parser("aut", help="enumerate endomorphism codes")
    _add_system(s)
    s.add_argument("--radius", type=int, default=1)
    s.add_argument("--check-len", type=int, default=defaults.CHECK_LEN)
    s.add_argument("--expect-count", type=int, default=None)
    s.add_argument("--apply", default=None, metavar="CODE",
                   help="apply a code (id|flip|shift^K[.flip]|@file.json) "
                        "instead of enumerating")
    s.add_argument("--compose", default=None, metavar="CODE",
                   help="precompose --apply with a second code")
    s.add_argument("--word", default=None,
                   help="input word for --apply (omit to print the code)")
    s.set_defaults(func=cmd_aut)

    s = subs.add_parser("pairs", help="classify a pair of points")
    _add_system(s)
    s.add_argument("spec1", nargs="?")
    s.add_argument("spec2", nargs="?")
    s.add_argument("--horizon", type=int, default=defaults.HORIZON)
    s.add_argument("--resolution", type=int,
                   default=defaults.PAIR_RESOLUTION)
    s.add_argument("--expect-verdict", default=None)
    s.add_argument("--certify", default=None, metavar="SPEC",
                   help="distal certificate for SPEC instead of a pair")
    s.add_argument("--levels", type=int,
                   default=defaults.CERTIFICATE_LEVEL)
    s.add_argument("--expect-granted", action="store_true")
    s.set_defaults(func=cmd_pairs)

    s = subs.add_parser("collapse", help="seam fiber collapse pattern")
    _add_system(s)
    s.add_argument("--direction", choices=("forward", "backward"),
                   required=True)
    s.add_argument("--horizon", type=int, default=defaults.HORIZON)
    s.add_argument("--resolution", type=int,
                   default=defaults.PAIR_RESOLUTION)
    s.set_defaults(func=cmd_collapse)

    s = subs.add_parser("factor", help="desubstitute a word or address a point")
    _add_system(s)
    s.add_argument("--word", default=None)
    s.add_argument("--address-of", default=None, metavar="SPEC")
    s.add_argument("--levels", type=int, default=8)
    s.set_defaults(func=cmd_factor)

    s = subs.add_parser("census", help="fiber census of an odometer address")
    _add_system(s)
    s.add_argument("--address", default=None,
                   help="digit string, least significant first")
    s.add_argument("--sample", type=int, default=None, metavar="N",
                   help="census N randomly sampled addresses instead")
    s.add_argument("--levels", type=int, default=defaults.CENSUS_LEVELS,
                   help="address level for --sample")
    s.add_argument("--seed", type=int, default=defaults.SAMPLE_SEED,
                   help="deterministic generator seed for --sample")
    s.add_argument("--resolution", type=int,
                   default=defaults.CENSUS_RESOLUTION)
    s.add_argument("--expect-cardinality", type=int, default=None)
    s.set_defaults(func=cmd_census)

    s = subs.add_parser("freq", help="empirical word frequencies")
    _add_system(s)
    s.add_argument("--length", type=int, default=2)
    s.add_argument("--steps", type=int, default=1 << 16)
    s.add_argument("--format", choices=("json", "tsv"), default="json")
    s.set_defaults(func=cmd_freq)

    s = subs.add_parser("join", help="joint language of two points")
    _add_system(s)
    s.add_argument("spec1")
    s.add_argument("spec2")
    s.add_argument("--resolution", type=int,
                   default=defaults.JOIN_RESOLUTION)
    s.add_argument("--steps", type=int, default=defaults.STEPS)
    s.add_argument("--member", nargs=2, metavar=("A", "B"), default=None)
    s.add_argument("--check-addresses", type=int, default=None, metavar="K",
                   help="verify constant address difference mod base^K")
    s.set_defaults(func=cmd_join)

    s = subs.add_parser("dichotomy", help="Case 1 / Case 2 experiment")
    _add_system(s)
    s.add_argument("spec_x0")
    s.add_argument("spec_x")
    s.add_argument("--resolution", type=int,
                   default=defaults.JOIN_RESOLUTION)
    s.add_argument("--steps", type=int, default=defaults.STEPS)
    s.add_argument("--radius-budget", type=int,
                   default=defaults.RADIUS_BUDGET)
    s.add_argument("--levels", type=int,
                   default=defaults.CERTIFICATE_LEVEL)
    s.add_argument("--expect-case", default=None)
    s.set_defaults(func=cmd_dichotomy)

    s = subs.add_parser("sr", help="semi-regularity verdict report")
    s.add_argument("system", choices=sorted(REGISTRY) + ["odometer"])
    s.add_argument("--max-shift", type=int, default=defaults.MAX_SHIFT)
    s.add_argument("--radius", type=int, default=defaults.SR_RADIUS)
    s.add_argument("--resolution", type=int,
                   default=defaults.JOIN_RESOLUTION)
    s.add_argument("--steps", type=int, default=defaults.STEPS)
    s.add_argument("--levels", type=int, default=defaults.SR_LEVELS)
    s.set_defaults(func=cmd_sr)

    s = subs.add_parser("coalesce", help="invertibility of all endomorphisms")
    _add_system(s)
    s.add_argument("--radius", type=int, default=2)
    s.add_argument("--check-len", type=int, default=defaults.CHECK_LEN)
    s.add_argument("--allow-flags", action="store_true")
    s.set_defaults(func=cmd_coalesce)

    s = subs.add_parser("odometer", help="finite-level odometer SR witness")
    s.add_argument("--levels", type=int, default=8)
    s.add_argument("--expect", type=int, default=None)
    s.set_defaults(func=cmd_odometer)

    return top, subs


def _apply_config(argv, commands):
    """Splice --config key=value pairs in as leading defaults; the file
    is named as `--config FILE` or `--config=FILE`."""
    for i, tok in enumerate(argv):
        flag, inline, path = tok.partition("=")
        if flag == "--config":
            break
    else:
        return argv
    if not inline:
        if i + 1 == len(argv):
            raise DomainError("--config needs a FILE argument")
        path = argv[i + 1]
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DomainError("config file %s is not text: %s"
                          % (path, exc)) from None
    extra = []
    for n, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not (eq and key.strip()):
            raise DomainError("config file %s line %d: expected key=value"
                              % (path, n))
        extra.extend(["--" + key.strip().replace("_", "-"), value.strip()])
    # config-supplied options go right after the subcommand so explicit
    # flags still win (argparse keeps the last occurrence)
    head = argv[:i] + argv[i + (1 if inline else 2):]
    for j, tok in enumerate(head):
        if tok in commands:
            return head[:j + 1] + extra + head[j + 1:]
    return head + extra


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subs = build_parser()
    # argparse would read an unknown option's value as the subcommand
    for tok in argv:
        if tok in subs.choices:
            break
        if tok.startswith("-") and tok.partition("=")[0] not in (
                "--out", "--config", "-h", "--help"):
            parser.error("unrecognized arguments: %s" % tok)
    try:
        argv = _apply_config(argv, subs.choices)
    except (OSError, DomainError) as exc:
        print("minflow: %s" % exc, file=sys.stderr)
        return 2
    args = parser.parse_args(argv)
    try:
        failed = args.func(args)
    except MinflowError as exc:
        print("minflow: %s" % exc, file=sys.stderr)
        return 2
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
