"""The four benchmark workloads and their references.

Every workload is a closed loop with one caller: each op starts when
the previous one returns.  Ops come in cycles.  A cycle is a seeded
shuffle of a fixed mix of op types, and a run always ends on a cycle
boundary, so every run has the same mix whatever its seed; the seed
picks the inputs and their order.  That keeps the median and the tail
percentile inside the same op type from run to run.

References come from theory (Thue-Morse arithmetic, the seam fiber,
the automorphism group of each system), never from an earlier output of
the program.  A check returns None when the result is right and a short
message when it is not.
"""

import json
import os
import subprocess
import sys

from minflow import codes, factors, joins, pairs, points
from minflow.words import REGISTRY

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def tm(n):
    """Thue-Morse symbol t(n): the parity of the binary digit sum of n."""
    return bin(n).count("1") & 1


def seam_symbol(n):
    """mu(n) for the seam point mu = rev(Q) + Q of the Thue-Morse shift."""
    return tm(n) if n >= 0 else tm(-1 - n)


def bits(m, k):
    """Level-k odometer digits of m, least significant first (m mod 2^k)."""
    return tuple((m >> j) & 1 for j in range(k))


def census_cardinality(value, level, resolution):
    """Thue-Morse fiber census size of an address: 2 when the centred
    window lies inside one level-`level` block (a symbol and its flip),
    4 when it straddles a block boundary (every 2-word is admissible)."""
    inside = resolution <= value <= 2 ** level - 1 - resolution
    return 2 if inside else 4


def expect(cond, message):
    return None if cond else message


class Workload:
    """A named op mix: `setup()` builds the state (timed, repeated) and
    `cycle(rng, state)` returns one cycle of (kind, call, check) ops."""

    min_cycles = 1
    fresh_processes = False   # True: every op is a new interpreter

    def __init__(self, rng):
        """`rng` seeds inputs fixed for the whole run; most workloads draw
        theirs per cycle instead."""


# -- address-stream ---------------------------------------------------------

class AddressStream(Workload):
    name = "address-stream"
    why = ("kernel-bound: decode_blocks dominates address time, and the "
           "k range gives a heavy tail, so the kernels move its tail and "
           "throughput first")
    K_MAX = 16
    M_MAX = 1 << 16
    CENSUS_LEVEL = 16
    CENSUS_L = 16
    sizes = {
        "system": "morse", "point": "mu (seam, address 0)",
        "address_k": [1, K_MAX], "address_m": [-M_MAX, M_MAX],
        "census_k": CENSUS_LEVEL, "census_L": CENSUS_L,
        "cycle": "one address op for each k in 1..16 and one census, "
                 "shuffled",
    }

    def setup(self):
        morse = REGISTRY["morse"]()
        mu = points.seam_points(morse)["mu"]
        # warm-up: the widest op fills the splice buffer and the parse
        # caches the stream reads
        factors.address(morse, mu.shift(self.M_MAX), self.K_MAX)
        factors.fiber_census(
            morse, factors.OdometerAddress((0, 1) * (self.CENSUS_LEVEL // 2)),
            self.CENSUS_L)
        return morse, mu

    def cycle(self, rng, state):
        morse, mu = state
        ks = list(range(1, self.K_MAX + 1))
        rng.shuffle(ks)
        ops = [self._address_op(morse, mu, k, rng.randint(-self.M_MAX,
                                                          self.M_MAX))
               for k in ks]
        ops.insert(rng.randrange(len(ops) + 1), self._census_op(morse, rng))
        return ops

    @staticmethod
    def _address_op(morse, mu, k, m):
        want = bits(m, k)

        def call():
            return factors.address(morse, mu.shift(m), k)

        def check(got):
            return expect(tuple(got.digits) == want,
                          "address k=%d m=%d: %s" % (k, m, got))
        return "address k=%d" % k, call, check

    def _census_op(self, morse, rng):
        k, L = self.CENSUS_LEVEL, self.CENSUS_L
        digits = [rng.randint(0, 1) for _ in range(k)]
        digits[-1] = 1 - digits[-2]      # break the constant tail
        value = sum(d << j for j, d in enumerate(digits))
        want = census_cardinality(value, k, L)

        def call():
            return factors.fiber_census(
                morse, factors.OdometerAddress(tuple(digits)), L)

        def check(got):
            return expect((got.cardinality, got.quotient_cardinality)
                          == (want, want // 2),
                          "census %s: %d/%s" % (digits, got.cardinality,
                                                got.quotient_cardinality))
        return "census", call, check


# -- code-census --------------------------------------------------------------

class CodeCensus(Workload):
    name = "code-census"
    why = ("pure-Python language building, parse certificate and DFS on "
           "cold systems; kernels are a small share, so a kernel rewrite "
           "should not move it")
    CHECK_LEN = 4096
    RADII = {"morse": [0, 1, 2, 3], "fibonacci": [0, 1, 2, 3],
             "period-doubling": [0, 1, 2]}
    COALESCE_RADII = [0, 1, 2]
    # The dearest enumeration runs twice more per cycle (4 of 27 ops), so
    # that p90 falls inside its block of ops; at twice, p90 fell on the
    # edge between it and the next-dearest kinds, about 15% cheaper.
    TAIL = ("fibonacci", 3)
    sizes = {
        "check_len": CHECK_LEN, "radii": RADII,
        "coalescence_radii": {"morse": COALESCE_RADII},
        "cycle": "each (system, r) enumeration twice, fibonacci r=3 twice "
                 "more, and each coalescence check once, shuffled; every "
                 "op builds a fresh system",
    }

    def setup(self):
        # every op builds its own system, so set-up is the warm-up op
        self._enumerate_op("morse", 0)[1]()

    def cycle(self, rng, state):
        ops = [self._enumerate_op(name, r)
               for name, radii in self.RADII.items() for r in radii] * 2
        ops += [self._enumerate_op(*self.TAIL)] * 2
        ops += [self._coalesce_op(r) for r in self.COALESCE_RADII]
        rng.shuffle(ops)
        return ops

    def _enumerate_op(self, name, r):
        if name == "morse":
            # Coven: Aut(Thue-Morse) is generated by the shift and the flip
            want = {(k, e) for k in range(-r, r + 1) for e in (0, 1)}
            shape = "Z ⊕ Z/2"
        else:
            # Sturmian and Toeplitz representatives: shifts only
            want = {(k, 0) for k in range(-r, r + 1)}
            shape = "Z" if r else "trivial"

        def call():
            system = REGISTRY[name]()
            found = codes.enumerate_endomorphisms(system, r,
                                                  check_len=self.CHECK_LEN)
            return found, codes.classify_aut_group(found, system)

        def check(result):
            found, group = result
            return expect(len(found) == len(want)
                          and set(group.forms) == want
                          and group.unrecognized == 0
                          and group.shape == shape,
                          "%s r=%d: %d codes, %s" % (name, r, len(found),
                                                     group.shape))
        return "enumerate %s r=%d" % (name, r), call, check

    def _coalesce_op(self, r):
        def call():
            return joins.coalescence_check(REGISTRY["morse"](), r,
                                           check_len=self.CHECK_LEN)

        def check(report):
            return expect(report["checked"] == 4 * r + 2
                          and report["flagged"] == [],
                          "coalescence r=%d: %s" % (r, report))
        return "coalesce r=%d" % r, call, check


# -- pair-verdicts ------------------------------------------------------------

class PairVerdicts(Workload):
    name = "pair-verdicts"
    why = ("window_diffs plus a Python scan (classify_pair) against "
           "dict-heavy joint languages and code checks (dichotomy), with "
           "little kernel work")
    H = 1 << 16
    L = 64
    A = 1024
    DICHOTOMY_L = 32
    # T = 2^17 makes every dichotomy cost clearly more than any
    # classify_pair (about 1.5-2x), so that with the 66:34 mix p50 falls
    # among the classify_pair ops and p90 among the dichotomies
    DICHOTOMY_T = 1 << 17
    DICHOTOMY_K = 8
    RADIUS_BUDGET = 8
    CERT_LEVEL = 12
    X0_LEVEL = 20          # x0 is determined far enough right for T
    # (first, second) seam pair -> verdict
    PAIRS = [
        ("mu", "nu", "positively-asymptotic"),
        ("mu_prime", "nu_prime", "positively-asymptotic"),
        ("mu", "nu_prime", "negatively-asymptotic"),
        ("mu_prime", "nu", "negatively-asymptotic"),
        ("mu", "mu_prime", "distal-up-to-horizon"),
        ("nu", "nu_prime", "distal-up-to-horizon"),
    ]
    sizes = {
        "system": "morse",
        "classify_pair": {"H": H, "L": L, "offset_a": [-A, A],
                          "pairs": [p[:2] for p in PAIRS]},
        "dichotomy": {"L": DICHOTOMY_L, "T": DICHOTOMY_T,
                      "k": [-DICHOTOMY_K, DICHOTOMY_K], "flip": [0, 1],
                      "radius_budget": RADIUS_BUDGET,
                      "x0": "alternating address, level %d" % X0_LEVEL,
                      "certificate_level": CERT_LEVEL},
        "cycle": "every (k, flip) dichotomy once and 11 classify_pair ops "
                 "per seam pair, shuffled (66:34)",
    }
    CLASSIFY_PER_PAIR = 11

    def setup(self):
        morse = REGISTRY["morse"]()
        seam = points.seam_points(morse)
        reach = self.H + self.L + self.A
        for p in seam.values():
            p.window(-reach, reach)
        x0 = points.point_from_address(
            morse, tuple(j % 2 for j in range(self.X0_LEVEL)), morse.seed)
        cert = pairs.distal_certificate(x0, level=self.CERT_LEVEL)
        if not cert.granted:
            raise RuntimeError("x0 has no distal certificate: %s"
                               % cert.reason)
        state = seam, x0, cert
        self._classify_op(state, 0, self.PAIRS[0])[1]()
        self._dichotomy_op(state, 1, 1)[1]()
        return state

    def cycle(self, rng, state):
        ops = [self._classify_op(state, rng.randint(-self.A, self.A), pair)
               for pair in self.PAIRS for _ in range(self.CLASSIFY_PER_PAIR)]
        ops += [self._dichotomy_op(state, k, eps)
                for k in range(-self.DICHOTOMY_K, self.DICHOTOMY_K + 1)
                for eps in (0, 1)]
        rng.shuffle(ops)
        return ops

    def _classify_op(self, state, a, pair):
        seam = state[0]
        first, second, verdict = pair
        # mu and nu share the right half Q, so their windows agree from
        # centre L on; pairs sharing the left half agree up to -L-1; pairs
        # that differ in both halves mismatch on every symbol
        want = {"positively-asymptotic": (verdict, self.L - a, 0),
                "negatively-asymptotic": (verdict, -self.L - 1 - a, 0),
                "distal-up-to-horizon": (verdict, None, 2 * self.L + 1),
                }[verdict]

        def call():
            return pairs.classify_pair(seam[first].shift(a),
                                       seam[second].shift(a), self.H, self.L)

        def check(got):
            return expect((got.verdict, got.witness_time, got.separation)
                          == want, "(%s,%s)+%d: %s" % (first, second, a, got))
        return "classify %s,%s" % (first, second), call, check

    def _dichotomy_op(self, state, k, eps):
        _, x0, cert = state

        def call():
            x = x0.shift(k)
            if eps:
                x = x.flip()
            return joins.dichotomy(x0, x, resolution=self.DICHOTOMY_L,
                                   steps=self.DICHOTOMY_T,
                                   radius_budget=self.RADIUS_BUDGET,
                                   certificate=cert)

        def check(got):
            if got.case != "case2":
                return "dichotomy k=%d eps=%d: %s" % (k, eps, got.case)
            r = got.code.radius
            # x = shift^k flip^eps x0, so the extracted rule must be it
            ok = all(out == str(int(b[r + k]) ^ eps)
                     for b, out in got.code.rule.items())
            return expect(ok, "dichotomy k=%d eps=%d: wrong code" % (k, eps))
        return "dichotomy k=%d eps=%d" % (k, eps), call, check


# -- cli-oneshot --------------------------------------------------------------

X0_SPEC = "addr(010101010101010101,0)"
TIMEOUT = 120
# seeded parameters of the commands: name -> inclusive range
CLI_RANGES = {
    "point_shift": (-4096, 4096),
    "factor_shift": (-(1 << 16), 1 << 16),
    "dichotomy_shift": (-4, 4),       # within the default radius budget
    "join_shift": (-8, 8),
    "census_seed": (0, (1 << 31) - 1),
    "freq_log2_steps": (10, 16),
}


def tier1_env():
    """The Tier-1 environment: PYTHONPATH=src, ahead of any inherited path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (":" + env["PYTHONPATH"]
                                 if env.get("PYTHONPATH") else "")
    return env


def python(args):
    """Run a fresh interpreter under the Tier-1 environment; it must exit 0."""
    proc = subprocess.run([sys.executable] + args, cwd=ROOT, env=tier1_env(),
                          capture_output=True, timeout=TIMEOUT)
    if proc.returncode:
        raise RuntimeError("%s exited %d: %s" % (
            " ".join(args), proc.returncode, proc.stderr[-300:]))
    return proc


def _json_check(check):
    def parse(stdout):
        return check(json.loads(stdout))
    return parse


def cli_commands(rng):
    """label -> (argv, stdout check): the README examples plus one command
    for each remaining subcommand, with seeded parameters."""
    a = rng.randint(*CLI_RANGES["point_shift"])
    m = rng.randint(*CLI_RANGES["factor_shift"])
    dk = rng.randint(*CLI_RANGES["dichotomy_shift"])
    jk = rng.randint(*CLI_RANGES["join_shift"])
    census_seed = rng.randint(*CLI_RANGES["census_seed"])
    power = rng.randint(*CLI_RANGES["freq_log2_steps"])

    def lang(out):
        words = ["001", "010", "011", "100", "101", "110"]   # cube-free
        return expect(out == "".join(w + "\n" for w in words), "lang")

    def aut(rep):
        forms = sorted([k, e] for k in (-1, 0, 1) for e in (0, 1))
        return expect(rep["count"] == 6 and rep["group"]["forms"] == forms,
                      "aut: %s" % rep["group"])

    def pairs_(rep):
        return expect((rep["verdict"], rep["witness_n"]) ==
                      ("positively-asymptotic", 64), "pairs: %s" % rep)

    def dichotomy(rep):
        if rep["case"] != "case2":
            return "dichotomy: %s" % rep["case"]
        r = rep["code"]["radius"]
        ok = all(out == b[r + dk] for b, out in rep["code"]["blocks"])
        return expect(ok, "dichotomy: not shift^%d" % dk)

    def census(rep):
        for c in rep["censuses"]:
            value = int(c["address"][::-1], 2)
            want = census_cardinality(value, 14, 16)
            if (c["cardinality"], c["quotient_cardinality"]) != \
                    (want, want // 2):
                return "census %s: %d" % (c["address"], c["cardinality"])
        return expect(len(rep["censuses"]) == 20, "census count")

    def point(rep):
        want = "".join(str(seam_symbol(n + a)) for n in range(-8, 9))
        return expect(rep["window"] == want, "point: %s" % rep["window"])

    def collapse(rep):
        return expect(rep["classes"] == [["mu", "nu"],
                                         ["mu_prime", "nu_prime"]],
                      "collapse: %s" % rep["classes"])

    def factor(rep):
        want = "".join(map(str, bits(m, 8)))
        return expect(rep["digits"] == want, "factor: %s" % rep["digits"])

    def freq(rep):
        # a Thue-Morse prefix of length 2^p (p >= 1) is balanced
        half = 1 << (power - 1)
        return expect([(w["word"], w["count"]) for w in rep["words"]]
                      == [("0", half), ("1", half)], "freq")

    def join(rep):
        prof = rep["address_profile"]
        return expect(prof["constant"] and prof["difference"] == -jk % 256
                      and rep["output_map_single_valued"],
                      "join: %s" % prof)

    def sr(rep):
        forms = [[-1, 0], [0, 0], [1, 0]]    # Olli: shifts only
        return expect(rep["realized_group"]["forms"] == forms
                      and rep["summary"] == "not SR (evidence)",
                      "sr: %s" % rep["summary"])

    def coalesce(rep):
        return expect(rep["checked"] == 6 and rep["flagged"] == [],
                      "coalesce: %s" % rep)

    def odometer(rep):
        return expect(rep["translation_count"] == 1 << 10, "odometer")

    return {
        "lang": (["lang", "morse", "--length", "3"], lang),
        "aut": (["aut", "morse", "--radius", "1", "--check-len", "4096"],
                _json_check(aut)),
        "pairs": (["pairs", "morse", "splice(rev(fix0),fix0)",
                   "splice(rev(flip(fix0)),fix0)", "--horizon", "65536"],
                  _json_check(pairs_)),
        "dichotomy": (["dichotomy", "morse", X0_SPEC,
                       "shift(%s,%d)" % (X0_SPEC, dk)],
                      _json_check(dichotomy)),
        "census": (["census", "morse", "--sample", "20", "--levels", "14",
                    "--seed", str(census_seed)], _json_check(census)),
        "point": (["point", "morse", "shift(fix0,%d)" % a, "--lo", "-8",
                   "--hi", "8"], _json_check(point)),
        "collapse": (["collapse", "morse", "--direction", "forward"],
                     _json_check(collapse)),
        "factor": (["factor", "morse", "--address-of", "shift(fix0,%d)" % m,
                    "--levels", "8"], _json_check(factor)),
        "freq": (["freq", "morse", "--length", "1", "--steps",
                  str(1 << power)], _json_check(freq)),
        "join": (["join", "morse", X0_SPEC, "shift(%s,%d)" % (X0_SPEC, jk),
                  "--check-addresses", "8"], _json_check(join)),
        "sr": (["sr", "fibonacci", "--radius", "1"], _json_check(sr)),
        "coalesce": (["coalesce", "morse", "--radius", "1"],
                     _json_check(coalesce)),
        "odometer": (["odometer", "--levels", "10", "--expect", "1024"],
                     _json_check(odometer)),
    }


class CliOneshot(Workload):
    name = "cli-oneshot"
    why = ("fresh processes pay interpreter start-up, import and cold "
           "caches on every op, so import-time work and work moved into "
           "set-up show here")
    min_cycles = 2          # every command runs at least twice per run
    fresh_processes = True
    sizes = {
        "commands": "README examples plus one per remaining subcommand",
        "seeded": CLI_RANGES,
        "fixed": {"aut": "morse r=1 check_len=4096",
                  "pairs": "seam (mu,nu) H=65536 L=64",
                  "census": "20 samples, levels 14, L=16",
                  "collapse": "forward, H=65536", "sr": "fibonacci r=1",
                  "coalesce": "morse r=1", "odometer_levels": 10},
        "cycle": "each of the 13 commands once, shuffled; at least two "
                 "cycles per run",
    }

    def __init__(self, rng):
        self.commands = cli_commands(rng)
        self.trace_dir = None        # set for the traced run
        self.child_traces = []
        self._first_stdout = {}

    def setup(self):
        python(["-c", "import minflow.cli"])

    def cycle(self, rng, state):
        labels = sorted(self.commands)
        rng.shuffle(labels)
        return [self._op(label) for label in labels]

    def _op(self, label):
        argv, check_stdout = self.commands[label]

        def call():
            if self.trace_dir is None:
                cmd = [sys.executable, "-m", "minflow.cli"] + argv
                trace_file = None
            else:
                trace_file = os.path.join(
                    self.trace_dir, "child-%d.json" % len(self.child_traces))
                cmd = [sys.executable, os.path.join(HERE, "bootstrap.py"),
                       trace_file] + argv
            proc = subprocess.run(cmd, cwd=ROOT, env=tier1_env(),
                                  capture_output=True, timeout=TIMEOUT)
            if trace_file is not None and os.path.exists(trace_file):
                self.child_traces.append(trace_file)
            return proc

        def check(proc):
            if proc.returncode != 0:
                return "%s exited %d: %s" % (label, proc.returncode,
                                             proc.stderr[-300:])
            first = self._first_stdout.setdefault(label, proc.stdout)
            if proc.stdout != first:
                return "%s: stdout differs from its earlier run" % label
            return check_stdout(proc.stdout.decode())
        return label, call, check


WORKLOADS = {w.name: w for w in (AddressStream, CodeCensus, PairVerdicts,
                                 CliOneshot)}
