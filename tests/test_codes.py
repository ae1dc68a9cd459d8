import hashlib
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest
from conftest import random_primitive_rules, ternary_morse

import minflow
from minflow.codes import (SlidingBlockCode, classify_aut_group, compose,
                           enumerate_endomorphisms, flip_code, identity_code,
                           invert, shift_code, verify_endomorphism)
from minflow.defaults import CHECK_LEN
from minflow.errors import DomainError, ResourceError
from minflow.joins import coalescence_check
from minflow.words import (FLIP, REGISTRY, FullShiftSystem, Substitution,
                           SubshiftSystem, first_windows, flip_word)


def is_identity(code):
    """Whether the code maps every block to its centre symbol."""
    r = code.radius
    return all(out == b[r] for b, out in code.rule.items())


def test_apply_examples(morse):
    assert identity_code(morse).apply("0110") == "0110"
    assert flip_code(morse).apply("0110") == "1001"
    # image length is |w| - 2r; the three windows of 01101 read 1, 0, 1
    assert shift_code(morse, 1).apply("01101") == "101"


def test_apply_errors(morse):
    code = shift_code(morse, 1)
    with pytest.raises(DomainError):
        code.apply("01")                  # shorter than the window
    # the first window outside the rule is named, its position counted
    # in symbols
    with pytest.raises(DomainError, match="^window '000' at 0 has no rule "
                                          "entry$"):
        code.apply("00011")               # contains the inadmissible 000
    with pytest.raises(DomainError, match="^window '10\u00e9' at 2 has no "
                                          "rule entry$"):
        code.apply("0110\u00e91")


def test_compose_examples(morse):
    kappa = flip_code(morse)
    assert compose(kappa, kappa) == identity_code(morse)
    assert compose(shift_code(morse, 1), kappa).normal_form == (1, 1)
    s2 = compose(shift_code(morse, 1), shift_code(morse, 1))
    assert s2.radius == 2
    assert s2 == shift_code(morse, 2)


# this radius-1 Morse rule sends some 5-blocks onto '000' and others onto
# '111', neither of them in the shift's domain; read in the frozenset's
# order, which block the error named changed between hash seeds 0 and 1
FAILING_COMPOSITION = """
from minflow.codes import SlidingBlockCode, compose, shift_code
from minflow.errors import DomainError
from minflow.words import get_system
morse = get_system("morse")
code = SlidingBlockCode(morse, 1, dict(zip(sorted(morse.language(3)),
                                           "010110")))
try:
    compose(shift_code(morse, 1), code)
except DomainError as exc:
    print(exc)
"""


def test_composition_error_names_one_block_on_every_hash_seed():
    src = str(pathlib.Path(minflow.__file__).parent.parent)
    messages = {subprocess.run(
        [sys.executable, "-c", FAILING_COMPOSITION],
        env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
        capture_output=True, text=True, check=True).stdout
        for seed in ("0", "1")}
    assert messages == {"composition hits block '000' outside the left "
                        "rule's domain\n"}


def test_code_equality_pads_radii(morse):
    assert identity_code(morse) == identity_code(morse, radius=2)
    assert flip_code(morse) == flip_code(morse, radius=1)
    assert identity_code(morse) != flip_code(morse)


def test_enumerate_morse_r0(morse):
    codes = enumerate_endomorphisms(morse, 0)
    assert len(codes) == 2
    assert {c.normal_form for c in codes} == {(0, 0), (0, 1)}


def test_enumerate_morse_r1(morse):
    codes = enumerate_endomorphisms(morse, 1, check_len=4096)
    assert len(codes) == 6
    assert {c.normal_form for c in codes} == \
        {(k, e) for k in (-1, 0, 1) for e in (0, 1)}
    assert all(c.certified_len == 4096 for c in codes)


def test_enumerate_fibonacci(fib):
    assert len(enumerate_endomorphisms(fib, 0)) == 1
    codes = enumerate_endomorphisms(fib, 1, check_len=4096)
    assert {c.normal_form for c in codes} == {(-1, 0), (0, 0), (1, 0)}


def test_enumerate_counts_follow_radius(morse, fib):
    for r in (0, 1, 2):
        assert len(enumerate_endomorphisms(morse, r)) == 2 * (2 * r + 1)
        assert len(enumerate_endomorphisms(fib, r)) == 2 * r + 1


def test_radius_r_codes_embed_in_radius_r_plus_1(morse):
    small = enumerate_endomorphisms(morse, 1)
    large = enumerate_endomorphisms(morse, 2)
    for c in small:
        assert sum(c == d for d in large) == 1


def test_closure_under_composition(morse):
    r1 = enumerate_endomorphisms(morse, 1)
    r2 = enumerate_endomorphisms(morse, 2)
    for c1 in r1:
        for c2 in r1:
            composed = compose(c1, c2)
            assert sum(composed == d for d in r2) == 1


def test_closure_under_flip_and_unit_shifts(morse):
    # composing with kappa keeps the radius; with shift^{+-1} it grows by
    # one, so the result must appear in the next enumeration
    kappa = flip_code(morse)
    r1 = enumerate_endomorphisms(morse, 1)
    r2 = enumerate_endomorphisms(morse, 2)
    for c in r1:
        assert any(compose(kappa, c) == d for d in r1)
        for k in (-1, 1):
            assert any(compose(shift_code(morse, k), c) == d for d in r2)


def test_shift_commutation_is_structural(morse):
    word = morse.test_word(600)
    for code in enumerate_endomorphisms(morse, 1, check_len=1024):
        assert code.apply(word)[1:] == code.apply(word[1:])


def test_invert(morse):
    kappa = flip_code(morse)
    assert invert(kappa, max_radius=2) == kappa
    s2 = shift_code(morse, 2)
    inv = invert(s2, max_radius=2)
    assert inv == shift_code(morse, -2)
    for code in enumerate_endomorphisms(morse, 2):
        assert invert(code, max_radius=4) is not None


def test_invert_absence_is_a_value(full_shift):
    blocks = sorted(full_shift.language(1))
    constant = SlidingBlockCode(full_shift, 0, {b: "0" for b in blocks})
    assert invert(constant, max_radius=2, check_len=512) is None


def test_verify_endomorphism(morse, full_shift):
    assert verify_endomorphism(shift_code(morse, 1))
    blocks = sorted(morse.language(1))
    constant = SlidingBlockCode(morse, 0, {b: "0" for b in blocks})
    assert not verify_endomorphism(constant)   # 000 is not admissible


def test_full_shift_enumeration_contains_constants(full_shift):
    codes = enumerate_endomorphisms(full_shift, 0, check_len=512)
    assert len(codes) == 4          # every rule works on the full shift
    assert sum(1 for c in codes if is_identity(c)) == 1


def test_classify_group_shapes(morse, fib):
    report = classify_aut_group(enumerate_endomorphisms(morse, 2), morse)
    assert report.shape == "Z ⊕ Z/2"
    assert report.forms == tuple(sorted(
        (k, e) for k in range(-2, 3) for e in (0, 1)))
    report = classify_aut_group(enumerate_endomorphisms(fib, 2), fib)
    assert report.shape == "Z"
    assert classify_aut_group([], morse).shape == "trivial"
    assert classify_aut_group([identity_code(morse)], morse).shape == "trivial"


def test_rule_must_be_total(morse):
    with pytest.raises(DomainError):
        SlidingBlockCode(morse, 0, {"0": "0"})
    with pytest.raises(DomainError):
        SlidingBlockCode(morse, 0, {"0": "0", "1": "2"})


def test_serialization_round_trip(morse):
    code = compose(shift_code(morse, 1), flip_code(morse))
    blob = json.dumps(code.to_json(), sort_keys=True)
    again = SlidingBlockCode.from_json(morse, json.loads(blob))
    assert again == code
    assert json.dumps(again.to_json(), sort_keys=True) == blob
    obj = code.to_json()
    assert obj["blocks"] == sorted(obj["blocks"])


def codes_digest(codes):
    """First 16 hex digits of the SHA-256 of the codes' JSON, in order."""
    blob = json.dumps([c.to_json() for c in codes], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def fresh_system(name):
    if name == "ternary":
        return ternary_morse()
    return FullShiftSystem("01") if name == "full-shift" else REGISTRY[name]()


# (system, radius) -> (count, digest of every code's to_json), as the
# search enumerated them before it filled ranges through the kernel and
# certified images by occurrence in the fixed point (ternary Thue-Morse:
# as it enumerated them when it searched every first output)
ENUMERATION_PINS = {
    ("morse", 0): (2, "4cf61edf3db7e564"),
    ("morse", 1): (6, "db161c0a72570b53"),
    ("morse", 2): (10, "5a1b03de51f2a322"),
    ("morse", 3): (14, "60dd3d99ab0e33dc"),
    ("fibonacci", 0): (1, "b291fcca21b8c889"),
    ("fibonacci", 1): (3, "31d2adca5bb9a7ab"),
    ("fibonacci", 2): (5, "a9a16679fd064c1b"),
    ("fibonacci", 3): (7, "170170c646da8888"),
    ("period-doubling", 0): (1, "b291fcca21b8c889"),
    ("period-doubling", 1): (3, "8871df96a711cf00"),
    ("period-doubling", 2): (5, "0655f0983936a127"),
    ("full-shift", 0): (4, "7f6ee8bf961a4b74"),
    ("full-shift", 1): (256, "6beb132ed62aea2b"),
    ("ternary", 0): (3, "06424db9c051f1d5"),
    ("ternary", 1): (9, "1466bfdd397568f8"),
    ("ternary", 2): (15, "9d01bc30a82e6d10"),
}


@pytest.mark.parametrize("name,radius", sorted(ENUMERATION_PINS))
def test_enumeration_is_pinned(name, radius):
    codes = enumerate_endomorphisms(fresh_system(name), radius)
    assert (len(codes), codes_digest(codes)) == \
        ENUMERATION_PINS[name, radius]


# (system, radius, node cap) -> normal forms and digest of the partial list;
# a leaf's relabellings by the alphabet rotations that commute with σ
# join it there (Morse: each code and its flip)
NODE_CAP_PINS = {
    ("morse", 3, 50): ([(-2, 0), (-2, 1)], "d37de4cd4f1ae521"),
    ("fibonacci", 3, 25): ([(-1, 0)], "6239888a82fc47ec"),
    ("fibonacci", 3, 15): ([], "4f53cda18c2baa0c"),
}


@pytest.mark.parametrize("name,radius,cap", sorted(NODE_CAP_PINS))
def test_node_cap_raises_with_the_partial_list(name, radius, cap,
                                               monkeypatch):
    monkeypatch.setattr("minflow.codes._NODE_CAP", cap)
    t0 = time.monotonic()
    with pytest.raises(ResourceError) as err:
        enumerate_endomorphisms(fresh_system(name), radius)
    assert time.monotonic() - t0 < 5
    partial = err.value.partial
    assert ([c.normal_form for c in partial], codes_digest(partial)) == \
        NODE_CAP_PINS[name, radius, cap]


def test_enumeration_refuses_tables_over_the_cap(morse, monkeypatch):
    # the system's cached block ids were built under the real cap, so
    # they are dropped for the enumerations to build them again
    monkeypatch.setattr(morse, "_ids", {})
    monkeypatch.setattr("minflow.words.TABLE_CAP", 1 << 6)
    assert len(enumerate_endomorphisms(morse, 2)) == 10     # 2^5 entries
    with pytest.raises(ResourceError, match="radius-3 code needs a rule "
                       "table of 2\\^7 entries"):
        enumerate_endomorphisms(morse, 3)


# system -> the smallest node cap that completes its enumeration at
# r = 0, 1, ..., as the search counted nodes before it pruned ranges at
# precomputed windows, with one first output per orbit of the alphabet
# rotations that commute with σ: half of them on Morse (flip),
# a third on ternary Thue-Morse, and all of them where no rotation but
# the identity does (Fibonacci, period-doubling)
NODE_COUNTS = {
    "morse": (3, 35, 177, 307),
    "ternary": (13, 280, 643),
    "fibonacci": (6, 18, 40, 72),
    "period-doubling": (6, 34, 80, 176),
}


# (system, radius) -> the outcome at each of SHORT_CHECK_LENS, as the
# search gave it when it built every language level up to the prune
# window: the count and digest of the codes, or the number of admissible
# blocks that the test word misses (DomainError)
SHORT_CHECK_LENS = (2, 3, 5, 8, 12, 17, 20, 33)
SHORT_CHECK_PINS = {
    ("morse", 0): [(2, "4cf61edf3db7e564")] * 8,
    ("morse", 1): [6, 5, 3] + [(6, "db161c0a72570b53")] * 5,
    ("morse", 2): [12, 12, 11, 8, 4] + [(10, "5a1b03de51f2a322")] * 3,
    ("fibonacci", 0): [(1, "b291fcca21b8c889")] * 8,
    ("fibonacci", 1): [4, 3, 1] + [(3, "31d2adca5bb9a7ab")] * 5,
    ("fibonacci", 2): [6, 6, 5, 2] + [(5, "a9a16679fd064c1b")] * 4,
    ("period-doubling", 0): [(1, "b291fcca21b8c889")] * 8,
    ("period-doubling", 1): [5, 4, 2] + [(3, "8871df96a711cf00")] * 5,
    ("period-doubling", 2): [8, 8, 7, 4, 1, (7, "f558c206cf981ee3")] +
                            [(5, "0655f0983936a127")] * 2,
    ("ternary", 0): [1] + [(3, "06424db9c051f1d5")] * 7,
    ("ternary", 1): [15, 14, 12, 9, 6, 4, 2, 2],
    ("ternary", 2): [30, 30, 29, 26, 22, 19, 16, 9],
    ("full-shift", 0): [1, 1] + [(4, "7f6ee8bf961a4b74")] * 6,
    ("full-shift", 1): [8, 7, 6, 4, 2, 2, 1, (256, "6beb132ed62aea2b")],
}


@pytest.mark.parametrize("name,radius,check_len", [
    (name, radius, check_len) for name, radius in sorted(SHORT_CHECK_PINS)
    for check_len in SHORT_CHECK_LENS])
def test_short_check_lengths_are_pinned(name, radius, check_len):
    # below 16 + 2r the prune window is shorter than 16, and the prefixes
    # of the image shorter than it do the pruning
    want = SHORT_CHECK_PINS[name, radius][SHORT_CHECK_LENS.index(check_len)]
    if type(want) is int:
        want = ("DomainError", "test word of length %d misses %d "
                "admissible blocks" % (check_len, want))
    try:
        codes = enumerate_endomorphisms(fresh_system(name), radius,
                                        check_len)
        got = (len(codes), codes_digest(codes))
    except DomainError as exc:
        got = (type(exc).__name__, str(exc))
    assert got == want


@pytest.mark.parametrize("radius", range(4))
def test_cold_enumeration_builds_only_the_levels_it_reads(radius):
    # the blocks, the short words and their output level, and the prune
    # level, which the others are built from as its prefixes
    system = fresh_system("morse")
    enumerate_endomorphisms(system, radius, 4096)
    assert sorted(system._lang) == sorted({2 * radius + 1, 8,
                                           2 * radius + 8, 16})


@pytest.mark.parametrize("name,radius", [
    (name, radius) for name in sorted(NODE_COUNTS)
    for radius in range(len(NODE_COUNTS[name]))])
def test_enumeration_visits_the_pinned_number_of_nodes(name, radius,
                                                       monkeypatch):
    nodes = NODE_COUNTS[name][radius]
    monkeypatch.setattr("minflow.codes._NODE_CAP", nodes)
    enumerate_endomorphisms(fresh_system(name), radius)
    monkeypatch.setattr("minflow.codes._NODE_CAP", nodes - 1)
    with pytest.raises(ResourceError, match="node cap"):
        enumerate_endomorphisms(fresh_system(name), radius)


def test_more_blocks_than_byte_ids_are_refused(monkeypatch):
    # 2^9 blocks at r=4 are refused before the search; the 2^7 at r=3
    # still fit a byte and are searched until the node cap
    t0 = time.monotonic()
    monkeypatch.setattr("minflow.codes._NODE_CAP", 20000)
    with pytest.raises(ResourceError, match="^512 admissible 9-blocks, "
                       "over the 255") as err:
        enumerate_endomorphisms(FullShiftSystem("01"), 4)
    assert err.value.partial == []
    monkeypatch.setattr("minflow.codes._NODE_CAP", 50)
    with pytest.raises(ResourceError, match="node cap"):
        enumerate_endomorphisms(FullShiftSystem("01"), 3)
    assert time.monotonic() - t0 < 5


@pytest.mark.parametrize("name,radius", [(name, radius)
                                         for name in sorted(REGISTRY)
                                         for radius in range(4)] +
                         [("full-shift", 0), ("full-shift", 1)])
def test_cold_enumeration_makes_one_kernel_call(name, radius, kernel_calls):
    # the block ids of the test word are read once; every range of the
    # image is filled from them without a kernel call, and the short
    # words missing from the test word (every survivor on the full shift
    # has some) are read in the rule dict
    assert enumerate_endomorphisms(fresh_system(name), radius,
                                   check_len=4096)
    assert len(kernel_calls) == 1


@pytest.mark.parametrize("name,radius", [(name, radius)
                                         for name in sorted(REGISTRY)
                                         for radius in range(4)] +
                         [("full-shift", 1)])
@pytest.mark.parametrize("check_len", [64, 4096])
def test_enumerated_codes_hold_their_test_image(name, radius, check_len,
                                                kernel_calls):
    system = fresh_system(name)
    codes = enumerate_endomorphisms(system, radius, check_len)
    images = [code.test_image(check_len) for code in codes]
    assert len(kernel_calls) == 1
    assert images == [code.apply(system.test_word(check_len))
                      for code in codes]


def test_test_image_is_applied_once_per_length(kernel_calls):
    # a fresh system, whose block ids no earlier test has built
    morse = fresh_system("morse")
    code = shift_code(morse, 2)
    first = code.test_image(100)
    assert code.test_image(100) is first and len(kernel_calls) == 1
    assert code.test_image(50) == first[:46] and len(kernel_calls) == 2
    assert first == shift_code(morse, 2).apply(morse.test_word(100))
    with pytest.raises(DomainError, match="shorter than the code window"):
        code.test_image(4)


def test_test_images_share_the_systems_block_ids(kernel_calls):
    # the first test image at a radius and length reads the block ids of
    # the test word; every other code there translates the same ids
    system = fresh_system("morse")
    codes = [shift_code(system, 2), flip_code(system, 2),
             shift_code(system, -1, 2)]
    images = [codes[0].test_image(4096)]
    assert len(kernel_calls) == 1
    images += [code.test_image(4096) for code in codes[1:]]
    assert len(kernel_calls) == 1
    word = system.test_word(4096)
    assert images == [code.apply(word) for code in codes]


def test_codes_over_255_blocks_apply_themselves_to_the_test_word(
        kernel_calls):
    # 512 blocks at r=4 have no one-byte ids, so the code's own table
    # gives its test image
    system = FullShiftSystem("01")
    code = SlidingBlockCode(system, 4, {b: str(b.count("1") % 2)
                                        for b in system.language(9)})
    image = code.test_image(4096)
    assert len(kernel_calls) == 1
    assert image == code.apply(system.test_word(4096))
    with pytest.raises(ResourceError, match="^512 admissible 9-blocks"):
        system.block_ids(4, 4096)


@pytest.mark.parametrize("radius,check_len,message", [
    (-1, 4096, "radius must be >= 0, got -1"),
    (-2, 0, "radius must be >= 0, got -2"),
    (1, 0, "check_len must be >= 1, got 0"),
    (1, -4, "check_len must be >= 1, got -4"),
    (0, -4, "check_len must be >= 1, got -4")])
def test_enumeration_rejects_bad_arguments_first(radius, check_len, message):
    system = fresh_system("morse")
    with pytest.raises(DomainError, match="^%s$" % message):
        enumerate_endomorphisms(system, radius, check_len)
    assert system._lang == {}


@pytest.mark.parametrize("radius,check_len,blocks", [
    (50, 64, 328), (50, 4096, 328), (40, 16, 256)])
def test_enumeration_refuses_over_255_blocks_before_the_test_word(
        radius, check_len, blocks):
    # too many blocks is a usage error, named before a short test word
    # could fail the check that it holds every block
    with pytest.raises(ResourceError, match="^%d admissible %d-blocks, over "
                       "the 255" % (blocks, 2 * radius + 1)):
        enumerate_endomorphisms(fresh_system("morse"), radius, check_len)


def test_cold_enumeration_scans_a_constant_number_of_times(monkeypatch):
    calls = []

    def scan(word, width):
        calls.append(width)
        return first_windows(word, width)

    monkeypatch.setattr("minflow.words.first_windows", scan)
    system = fresh_system("morse")
    assert len(enumerate_endomorphisms(system, 3)) == 14
    assert len(calls) <= len(system.language(7)) + 2


def test_warm_enumeration_makes_no_scan_and_no_block_id_call(monkeypatch):
    # the block ids and the first starts it reads are the system's,
    # cached by the first enumeration
    morse = fresh_system("morse")
    codes = enumerate_endomorphisms(morse, 2)
    calls = []

    def scan(word, width):
        calls.append(width)
        return first_windows(word, width)

    # every minflow module that binds the scan
    for name, module in list(sys.modules.items()):
        if name.startswith("minflow") and \
                getattr(module, "first_windows", None) is first_windows:
            monkeypatch.setattr(module, "first_windows", scan)
    monkeypatch.setattr("minflow.kernels.apply_rule",
                        lambda *args: pytest.fail("block ids rebuilt"))
    again = enumerate_endomorphisms(morse, 2)
    assert [c.rule for c in again] == [c.rule for c in codes]
    assert calls == []


def test_inversions_scan_once_per_system_width_and_length(monkeypatch):
    calls = []

    def scan(word, width):
        calls.append((width, len(word)))
        return first_windows(word, width)

    monkeypatch.setattr("minflow.words.first_windows", scan)
    # 256 codes, one enumeration scan and one inversion scan
    report = coalescence_check(FullShiftSystem("01"), 1)
    assert (report["checked"], len(report["flagged"])) == (256, 250)
    assert len(calls) == len(set(calls)) == 2
    morse = fresh_system("morse")
    codes = enumerate_endomorphisms(morse, 2)
    invert(codes[0], 4)
    calls.clear()
    assert all(invert(code, 4) for code in codes)
    assert calls == []


@pytest.mark.parametrize("radius", [1, 3])
def test_enumeration_requests_the_top_language_level_first(radius):
    # 3^16 words exceed the full shift's language size cap; language(16)
    # is requested before any lower level, so it is the one named
    with pytest.raises(ResourceError, match=r"language\(16\) exceeds cap"):
        enumerate_endomorphisms(FullShiftSystem("012"), radius)


def naive_compose(c1, c2):
    """compose with each block's middle image applied by `c2.apply`, the
    blocks read in sorted order."""
    system = c1.system
    r = c1.radius + c2.radius
    rule = {}
    for b in sorted(system.language(2 * r + 1)):
        mid = c2.apply(b)
        if mid not in c1.rule:
            raise DomainError("composition hits block %r outside the left "
                              "rule's domain" % mid)
        rule[b] = c1.rule[mid]
    return SlidingBlockCode(system, r, rule)


def composed_or_error(compose, c1, c2):
    try:
        return compose(c1, c2).to_json()
    except DomainError as exc:
        return str(exc)


def every_rule(system, radius):
    """Every radius-`radius` code of the system, endomorphism or not."""
    blocks = sorted(system.language(2 * radius + 1))
    return [SlidingBlockCode(system, radius, dict(zip(blocks, outs)))
            for outs in itertools.product(sorted(system.alphabet),
                                          repeat=len(blocks))]


@pytest.mark.parametrize("name", ["morse", "ternary"])
def test_compose_matches_the_block_by_block_oracle(name, request,
                                                   kernel_calls):
    system = request.getfixturevalue(name)
    codes = every_rule(system, 0) + [
        c for r in (1, 2) for c in enumerate_endomorphisms(system, r)]
    kernel_calls.clear()
    got = [composed_or_error(compose, c1, c2) for c1 in codes for c2 in codes]
    assert kernel_calls == []
    want = [composed_or_error(naive_compose, c1, c2)
            for c1 in codes for c2 in codes]
    assert got == want
    errors = [g for g in got if isinstance(g, str)]
    # the radius-0 rules that are no endomorphisms send some block
    # outside every other code's domain
    assert errors and all(e.startswith("composition hits block ")
                          for e in errors)


def naive_invert(code, max_radius, check_len=4096):
    """invert with the graph read one window at a time, checked with the
    block-by-block composition."""
    system = code.system
    r = code.radius
    master = system.test_word(check_len)
    u = code.apply(master)
    for rp in range(max_radius + 1):
        width = 2 * rp + 1
        mapping = {}
        for i in range(len(u) - width + 1):
            if mapping.setdefault(u[i:i + width], master[i + rp + r]) != \
                    master[i + rp + r]:
                break
        else:
            if set(mapping) == set(system.language(width)):
                cand = SlidingBlockCode(system, rp, mapping)
                if is_identity(naive_compose(cand, code)) and \
                        is_identity(naive_compose(code, cand)):
                    return cand
    return None


@pytest.mark.parametrize("name,radius,check_len", [
    ("morse", 2, 4096), ("fibonacci", 2, 4096), ("period-doubling", 2, 4096),
    ("full-shift", 1, 512), ("morse", 1, 9), ("fibonacci", 1, 4)])
def test_invert_matches_the_window_by_window_graph(name, radius, check_len):
    system = fresh_system(name)
    codes = enumerate_endomorphisms(system, radius)
    for code in codes:
        for max_radius in range(5):
            got = invert(code, max_radius, check_len)
            want = naive_invert(code, max_radius, check_len)
            assert (got and got.to_json()) == (want and want.to_json())


def inverted_or_error(invert, code, max_radius, check_len):
    try:
        inverse = invert(code, max_radius, check_len)
    except DomainError as exc:
        return str(exc)
    return inverse and inverse.to_json()


@pytest.mark.parametrize("name", ["morse", "fib", "pd", "full_shift",
                                  "ternary"])
def test_invert_matches_the_oracle_on_every_small_rule(name, request):
    # every radius-0 rule, and every radius-1 rule where the system has
    # at most 8 blocks of width 3, endomorphisms or not: the same
    # inverse, None or DomainError message as the full compositions; the
    # short test words miss blocks that the inversion then checks
    system = request.getfixturevalue(name)
    codes = every_rule(system, 0)
    if len(system.language(3)) <= 8:
        codes += every_rule(system, 1)
    outcomes = []
    for code in codes:
        for max_radius in range(5):
            for check_len in (64, 512):
                got = inverted_or_error(invert, code, max_radius, check_len)
                assert got == inverted_or_error(naive_invert, code,
                                                max_radius, check_len)
                outcomes.append(type(got))
    # some rules invert and some do not; on Fibonacci and period-doubling
    # some compositions also leave the left rule's domain
    assert {dict, type(None)} <= set(outcomes)
    assert (str in outcomes) == (name in ("fib", "pd"))


@pytest.mark.parametrize("max_radius", [1, 2, 3])
def test_invert_raises_where_a_block_also_fails_the_identity(morse,
                                                            max_radius):
    # this radius-2 Morse rule is no endomorphism; on the 16-symbol test
    # word its candidate inverse fails the identity at a block missing
    # from the word and leaves its domain at another; the full
    # composition raises there, in whichever order it reads the two
    outs = "010100110001"
    code = SlidingBlockCode(morse, 2, dict(zip(sorted(morse.language(5)),
                                               outs)))
    want = "composition hits block '000' outside the left rule's domain"
    assert inverted_or_error(naive_invert, code, max_radius, 16) == want
    assert inverted_or_error(invert, code, max_radius, 16) == want


def test_invert_every_morse_code(morse):
    for code in enumerate_endomorphisms(morse, 2):
        k, eps = code.normal_form
        inverse = invert(code, max_radius=4)
        assert (inverse.radius, inverse.normal_form) == (abs(k), (-k, eps))


@pytest.mark.parametrize("name", ["morse", "fibonacci", "period-doubling"])
def test_cold_enumeration_certifies_images_by_occurrence(name):
    # shifted images occur in the cached fixed point, Morse flip images'
    # preimages too, so no parse reaches the language levels 33..64
    system = fresh_system(name)
    assert len(enumerate_endomorphisms(system, 3)) == \
        (14 if name == "morse" else 7)
    assert max(system._lang) <= 32
    assert len(system._prefix[system.seed]) == 4096


@pytest.mark.parametrize("name,radius,check_len", [
    ("morse", 1, 8), ("morse", 2, 16), ("fibonacci", 2, 12),
    ("period-doubling", 1, 8), ("period-doubling", 2, 16)])
def test_short_words_missing_from_the_test_word(name, radius, check_len,
                                                 monkeypatch):
    # the test word misses words of length 2r+8, which are applied one by
    # one; without them these enumerations would keep more codes
    system = fresh_system(name)
    short_len = 2 * radius + 8
    missing = set(system.language(short_len)) - \
        set(first_windows(system.test_word(check_len), short_len))
    assert missing
    got = enumerate_endomorphisms(system, radius, check_len)

    def per_word(code, words):
        out_lang = system.language(short_len - 2 * radius)
        return all(code.apply(w) in out_lang
                   for w in system.language(short_len))

    def occurring_only(code, words):
        # the short words that occur in the test word are covered by the
        # admissibility of its image; this check reads none of the others
        return True

    monkeypatch.setattr("minflow.codes._maps_short_words", per_word)
    want = enumerate_endomorphisms(fresh_system(name), radius, check_len)
    assert [c.to_json() for c in got] == [c.to_json() for c in want]
    monkeypatch.setattr("minflow.codes._maps_short_words", occurring_only)
    assert len(enumerate_endomorphisms(fresh_system(name), radius,
                                       check_len)) > len(got)


def brute_force_endomorphisms(system, radius, check_len):
    """Every rule on the admissible blocks that passes
    verify_endomorphism, in the enumeration's order."""
    width = 2 * radius + 1
    blocks = sorted(system.language(width))
    missing = set(blocks) - set(first_windows(system.test_word(check_len),
                                              width))
    if missing:
        raise DomainError("test word of length %d misses %d admissible "
                          "blocks" % (check_len, len(missing)))
    rules = (dict(zip(blocks, outs)) for outs in
             itertools.product(sorted(system.alphabet), repeat=len(blocks)))
    return [code for code in (SlidingBlockCode(system, radius, rule)
                              for rule in rules)
            if verify_endomorphism(code, check_len)]


def codes_or_error(search, system, radius, check_len):
    try:
        return [c.to_json() for c in search(system, radius, check_len)]
    except DomainError as exc:
        return str(exc)


def brute_force_radii(rule):
    """The radii up to 5 at which the rules on the admissible blocks
    number at most 4096 (a periodic system has few blocks at any)."""
    system = SubshiftSystem("random", Substitution(rule), "0")
    return itertools.takewhile(
        lambda r: len(rule) ** len(system.language(2 * r + 1)) <= 4096,
        range(6))


BRUTE_FORCE_CASES = [(rule, radius)
                     for rule in random_primitive_rules(random.Random(14), 12)
                     for radius in brute_force_radii(rule)]


@pytest.mark.parametrize("rule,radius", BRUTE_FORCE_CASES, ids=repr)
@pytest.mark.parametrize("check_len", [16, 64, 512])
def test_enumeration_matches_a_brute_force_search(rule, radius, check_len):
    system = SubshiftSystem("random", Substitution(rule), "0")
    assert codes_or_error(enumerate_endomorphisms, system, radius,
                          check_len) == \
        codes_or_error(brute_force_endomorphisms, system, radius, check_len)


def rotation_equivariant_rules(rng, count):
    """`count` primitive rules sigma(c) = w + c mod k on k = 2 or 3
    letters, w a random word that starts with 0.  Each commutes with the
    rotations of the alphabet, so every rotation preserves its language."""
    rules = []
    while len(rules) < count:
        k = rng.choice((2, 3))
        w = [0] + [rng.randrange(k) for _ in range(rng.randint(1, 3))]
        rule = {str(c): "".join(str((x + c) % k) for x in w)
                for c in range(k)}
        if rule not in rules and Substitution(rule).is_primitive:
            rules.append(rule)
    return rules


def symmetric_system(spec):
    if type(spec) is dict:
        return SubshiftSystem("random", Substitution(spec), "0")
    return FullShiftSystem(spec) if spec in ("01", "012") else \
        fresh_system(spec)


# a system whose language(3) the flip preserves but not its language(4)
PRUNE_LEVEL_ONLY = {"0": "001", "1": "011"}

# systems with a rotation of the alphabet that commutes with σ (on a
# full shift, any rotation), where the search takes one first output per
# rotation orbit and relabels its leaves; the ternary full shift is
# searched below a check length of 16 + 2r, since its language(16)
# exceeds the cap.  Last, PRUNE_LEVEL_ONLY, searched in full although
# the flip preserves its prune level at check length 3.
SYMMETRIC_CASES = [
    (spec, radius, check_len)
    for spec, radius in [("morse", 0), ("morse", 1), ("ternary", 0),
                         ("01", 0), ("01", 1)] + [
        (rule, radius)
        for rule in rotation_equivariant_rules(random.Random(3), 8)
        for radius in brute_force_radii(rule)]
    for check_len in (16, 64, 512)] + [("012", 0, 5), ("012", 0, 8)] + [
    (PRUNE_LEVEL_ONLY, 0, 3), (PRUNE_LEVEL_ONLY, 0, 4)]


@pytest.mark.parametrize("spec,radius,check_len", SYMMETRIC_CASES, ids=repr)
def test_orbit_search_matches_a_brute_force_search(spec, radius, check_len):
    assert codes_or_error(enumerate_endomorphisms, symmetric_system(spec),
                          radius, check_len) == \
        codes_or_error(brute_force_endomorphisms, symmetric_system(spec),
                       radius, check_len)


@pytest.mark.parametrize("name,radius,searched", [("morse", 3, 7),
                                                  ("ternary", 2, 5)])
def test_only_searched_leaves_parse_their_test_image(name, radius, searched,
                                                    monkeypatch):
    # one admissibility check of a full test image per searched leaf;
    # each leaf that passes adds its relabellings by the rotations that
    # commute with σ, whose images pass with it
    system = fresh_system(name)
    checked = []
    is_admissible = system.is_admissible

    def spy(word):
        if len(word) == CHECK_LEN - 2 * radius:
            checked.append(word)
        return is_admissible(word)

    monkeypatch.setattr(system, "is_admissible", spy)
    codes = enumerate_endomorphisms(system, radius)
    assert len(checked) == searched
    assert len(codes) == searched * len(system.alphabet)
    assert set(checked) <= {c.test_image(CHECK_LEN) for c in codes}


@pytest.mark.parametrize("name,radius", [("morse", 3), ("ternary", 2)])
def test_each_relabelled_leaf_is_a_letter_automorphism_after_its_leaf(
        name, radius):
    system = fresh_system(name)
    codes = enumerate_endomorphisms(system, radius)
    a = system.alphabet
    first = system.test_word(2 * radius + 1)
    searched = [c for c in codes if c.rule[first] == a[0]]
    twins = []
    for t in range(1, len(a)):
        g = str.maketrans(a, a[t:] + a[:t])
        g_code = SlidingBlockCode(system, 0, {c: c.translate(g) for c in a})
        for code in searched:
            twin = next(c for c in codes if c == compose(g_code, code))
            assert twin.test_images[CHECK_LEN] == \
                code.test_images[CHECK_LEN].translate(g) == \
                twin.apply(system.test_word(CHECK_LEN))
            twins.append(twin)
    assert len(searched) + len(twins) == len(codes)


def test_enumeration_pins_hold_with_no_letter_automorphism(monkeypatch):
    # with no map accepted, every first output is searched in full
    for cls in (SubshiftSystem, FullShiftSystem):
        monkeypatch.setattr(cls, "is_letter_automorphism",
                            lambda self, table: False)
    for (name, radius), pin in sorted(ENUMERATION_PINS.items()):
        codes = enumerate_endomorphisms(fresh_system(name), radius)
        assert (len(codes), codes_digest(codes)) == pin


def test_a_rotation_that_preserves_only_short_levels_is_not_used():
    # the case SYMMETRIC_CASES searches at check lengths 3 and 4: its
    # prune level, language(3) and then language(4), is flip-invariant
    # only at 3, and the flip does not commute with σ
    system = symmetric_system(PRUNE_LEVEL_ONLY)
    assert {flip_word(w) for w in system.language(3)} == system.language(3)
    assert {flip_word(w) for w in system.language(4)} != system.language(4)
    assert not system.is_letter_automorphism(FLIP)
