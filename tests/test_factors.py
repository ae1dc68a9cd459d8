import random
import re
import time
from fractions import Fraction

import pytest
from conftest import random_primitive_rules

from minflow import factors, points
from minflow.errors import (AmbiguityError, DomainError, IntegrityError,
                            NoParseError, ResourceError)
from minflow.factors import (FiberCensus, OdometerAddress, address,
                             census_address, desubstitute, fiber_census,
                             point_address, recognizability_length,
                             sample_censuses, word_frequencies)
from minflow.points import fixed_point, point_from_address, seam_points
from minflow.words import FLIP, Substitution, SubshiftSystem, flip_word


def test_odometer_address_arithmetic():
    a = OdometerAddress((1, 1, 1))
    assert a.to_int() == 7
    assert a.plus(1).digits == (0, 0, 0)
    assert a.plus(2).digits == (1, 0, 0)
    assert OdometerAddress.from_int(5, 4).digits == (1, 0, 1, 0)
    assert a.truncate(2).digits == (1, 1)
    assert str(OdometerAddress((0, 1, 0))) == "010"
    with pytest.raises(DomainError):
        OdometerAddress((0, 2))


def test_recognizability_lengths(morse, pd):
    assert recognizability_length(morse) == 4
    assert recognizability_length(pd) == 3


def test_desubstitute_examples(morse, pd):
    assert desubstitute(morse, "01101001") == ("0110", 0)
    assert desubstitute(pd, "01000101") == ("0100", 0)


def test_desubstitute_odd_alignment(morse):
    mu = fixed_point(morse)
    word = mu.window(1, 12)
    preimage, offset = desubstitute(morse, word)
    assert offset == 1
    # full blocks cover coordinates 2..11, which desubstitute to the
    # fixed point's coordinates 1..5
    assert preimage == mu.window(1, 5)


def test_desubstitute_errors(morse):
    with pytest.raises(AmbiguityError):
        desubstitute(morse, "01")
    with pytest.raises(NoParseError):
        desubstitute(morse, "0000")
    with pytest.raises(DomainError):
        from minflow.words import get_system
        desubstitute(get_system("fibonacci"), "0100")
    with pytest.raises(DomainError, match="empty word"):
        desubstitute(morse, "")
    # a command-line byte that is not UTF-8 arrives as a lone surrogate
    with pytest.raises(NoParseError):
        desubstitute(morse, "01\udcff1")


def test_address_examples(morse):
    mu = fixed_point(morse)
    for k in (1, 4, 10):
        assert address(morse, mu, k).digits == (0,) * k
    assert address(morse, mu.shift(1), 3).digits == (1, 0, 0)
    assert address(morse, mu.shift(5), 4).digits == (1, 0, 1, 0)
    assert address(morse, mu, 0).digits == ()


def test_address_equivariance_sampled(morse):
    mu = fixed_point(morse)
    rng = random.Random(11)
    base = {k: address(morse, mu, k) for k in range(1, 11)}
    for _ in range(300):
        k = rng.randint(1, 10)
        m = rng.randint(-4096, 4096)
        assert address(morse, mu.shift(m), k).digits == base[k].plus(m).digits


def test_address_truncation_coherence(morse):
    p = fixed_point(morse).shift(1337)
    a8 = address(morse, p, 8)
    for j in (1, 3, 5, 8):
        assert address(morse, p, j).digits == a8.truncate(j).digits


def test_address_of_address_point_round_trips(morse):
    digits = tuple(j % 2 for j in range(14))
    p = point_from_address(morse, digits, "0")
    assert address(morse, p, 10).digits == digits[:10]
    assert point_address(p, 14).digits == digits
    assert point_address(p.shift(3), 14).digits == \
        OdometerAddress(digits).plus(3).digits
    assert point_address(p.flip(), 14).digits == digits


def test_the_flip_shortcut_of_point_address_matches_the_window_parse(morse):
    # point_address reads a flipped address point's digits off its
    # construction, as the flip commutes with σ; the window parse of the
    # flipped point must agree at every level its windows determine
    rng = random.Random(31)
    top = 10
    base = deep_point(morse, [rng.randrange(2) for _ in range(top)])
    points = [base.shift(rng.randint(-2 ** top, 2 ** top))
              for _ in range(6)]
    points += [q.shift(rng.randint(-4096, 4096))
               for q in seam_points(morse).values()]
    for p in points:
        for k in range(top + 1):
            assert point_address(p.flip(), k) == \
                address(morse, p.flip(), k) == point_address(p, k), k


def test_ternary_recognizability_length(ternary):
    assert ternary.constant_length == 3
    assert recognizability_length(ternary) == 6


def test_ternary_desubstitute_offsets(ternary):
    fixed = ternary.test_word(200)
    for i in range(60):
        # coordinate i sits at offset i % 3 of its block; the full blocks
        # of fixed[i:i + 20] are the images of fixed[ceil(i / 3):(i + 20) // 3]
        assert desubstitute(ternary, fixed[i:i + 20]) == \
            (fixed[-(-i // 3):(i + 20) // 3], i % 3), i
    with pytest.raises(AmbiguityError):
        desubstitute(ternary, "0")


# constant length 4: the word also lies inside one block, where no full
# block starts within it, so only the phases that start past its end
# find the first offset; R is as before
@pytest.mark.parametrize("rule,word,offsets,r", [
    ({"0": "0201", "1": "0111", "2": "2100"}, "10", [1, 3], 3),
    ({"0": "0011", "1": "2021", "2": "1202"}, "02", [1, 2], 10)])
def test_desubstitute_short_word_inside_one_block(rule, word, offsets, r):
    system = SubshiftSystem("ell-4", Substitution(rule), "0")
    with pytest.raises(AmbiguityError,
                       match=re.escape("offsets %s;" % offsets)):
        desubstitute(system, word)
    assert recognizability_length(system) == r


def test_periodic_rule_has_no_recognizability_length():
    # primitive, with fixed point (012)^inf: p(1) = p(2) = 3 proves the
    # system periodic, so no window length parses uniquely
    system = SubshiftSystem("p", Substitution(
        {"0": "01", "1": "20", "2": "12"}), "0")
    for call in (recognizability_length,
                 lambda s: desubstitute(s, "0120"),
                 lambda s: address(s, fixed_point(s), 2)):
        with pytest.raises(DomainError, match="^'p' is periodic: its "
                           "complexity is 3 at lengths 1 and 2, so it has "
                           "no recognizability length$"):
            call(system)


def test_recognizability_search_stops_at_its_cap(monkeypatch):
    # Morse's R is 4 and its complexity grows at every length, so the
    # search over lengths <= 3 hits a cap, not a periodic system
    monkeypatch.setattr("minflow.words.RECOG_CAP", 3)
    system = SubshiftSystem("morse", Substitution({"0": "01", "1": "10"}),
                            "0")
    with pytest.raises(ResourceError, match="^no recognizability length "
                       "<= 3 for 'morse'$"):
        recognizability_length(system)


# the top digit 1 puts coordinate 0 in the middle third of its level-12
# block, 3^11 symbols from either end
TERNARY_DIGITS = tuple(random.Random(12).randrange(3)
                       for _ in range(11)) + (1,)


def test_ternary_address_equivariance(ternary):
    top = OdometerAddress(TERNARY_DIGITS, 3)
    rng = random.Random(13)
    for sheet in ternary.alphabet:
        p = point_from_address(ternary, TERNARY_DIGITS, sheet)
        for _ in range(40):
            k = rng.randint(1, 8)
            m = rng.randint(-729, 729)
            assert address(ternary, p.shift(m), k) == \
                top.plus(m).truncate(k), (sheet, k, m)


def test_ternary_address_point_round_trips(ternary):
    top = OdometerAddress(TERNARY_DIGITS, 3)
    p = point_from_address(ternary, TERNARY_DIGITS, "2")
    assert address(ternary, p, 8) == top.truncate(8)
    assert point_address(p, 12) == top
    assert point_address(p.shift(-5), 12) == top.plus(-5)
    assert point_address(p.shift(5), 9) == top.plus(5).truncate(9)


def test_fiber_census_values(morse, pd):
    seam = fiber_census(morse, OdometerAddress((0,) * 12), 16)
    assert seam.cardinality == 4 and seam.quotient_cardinality == 2
    assert seam.stabilized
    alt = fiber_census(morse, OdometerAddress(tuple(j % 2 for j in range(12))), 16)
    assert alt.cardinality == 2 and alt.quotient_cardinality == 1
    assert alt.stabilized
    rng = random.Random(3)
    generic = fiber_census(
        pd, OdometerAddress(tuple(rng.randint(0, 1) for _ in range(14))), 16)
    assert generic.cardinality == 1
    assert generic.quotient_cardinality is None


def applied_census(system, addr, L):
    """fiber_census with each level's images substituted symbol by symbol
    through `Substitution.apply`."""
    ell = system.constant_length
    images = {a: a for a in system.alphabet}
    levels = []
    for j in range(1, addr.level + 1):
        images = {a: system.substitution.apply(w) for a, w in images.items()}
        rj = addr.truncate(j).to_int()
        t0 = (rj - L) // ell ** j
        t1 = (rj + L) // ell ** j
        cut = rj - L - t0 * ell ** j
        levels.append(frozenset(
            "".join(images[c] for c in v)[cut:cut + 2 * L + 1]
            for v in system.language(t1 - t0 + 1)))
    final = levels[-1]
    quotient = None
    if system.is_letter_automorphism(FLIP):
        quotient = len({frozenset((w, flip_word(w))) for w in final})
    return FiberCensus(addr, addr.level, L, tuple(sorted(final)), len(final),
                       quotient, len(levels) >= 2 and levels[-1] == levels[-2])


# constant tails of 0 and of 1, and two non-constant ones
CENSUS_DIGITS = [(1, 0, 1, 1) + (0,) * 12, (0, 1, 1) + (1,) * 13,
                 tuple(j % 2 for j in range(16)),
                 tuple(random.Random(8).randint(0, 1) for _ in range(16))]


@pytest.mark.parametrize("name", ["morse", "pd"])
@pytest.mark.parametrize("L", [1, 8, 16])
def test_fiber_census_matches_applied_images(name, L, request):
    system = request.getfixturevalue(name)
    for digits in CENSUS_DIGITS:
        for k in range(1, 17):
            addr = OdometerAddress(digits[:k])
            assert fiber_census(system, addr, L) == \
                applied_census(system, addr, L), (digits, k)


@pytest.mark.parametrize("name", ["morse", "pd"])
def test_address_point_windows_match_applied_images(name, request):
    system = request.getfixturevalue(name)
    digits = tuple(random.Random(20).randint(0, 1) for _ in range(20))
    images = {a: a for a in system.alphabet}
    for k in range(21):
        for sheet in system.alphabet:
            p = point_from_address(system, digits[:k], sheet)
            lo, hi = p.determined_range()
            assert p.window(lo, hi) == images[sheet], (k, sheet)
            assert p.window(0, 0) == images[sheet][-lo], (k, sheet)
        images = {a: system.substitution.apply(w) for a, w in images.items()}


def test_fiber_census_refuses_a_negative_resolution(morse):
    with pytest.raises(DomainError, match="^resolution must be >= 0, got "
                                          "-1$"):
        fiber_census(morse, OdometerAddress((0, 1, 1, 0)), -1)


def test_census_block_cap(morse, monkeypatch):
    # a level-22 Morse census (blocks of 2^22 symbols) runs, a level-23
    # one is refused before any block is built
    digits = tuple(j % 2 for j in range(23))
    census = fiber_census(morse, OdometerAddress(digits[:22]), 16)
    assert (census.cardinality, census.stabilized) == (2, True)
    for name in ("powers", "apply"):
        monkeypatch.setattr(Substitution, name,
                            lambda *args: pytest.fail("image built"))
    with pytest.raises(ResourceError, match="^level-23 blocks exceed cap$"):
        fiber_census(morse, OdometerAddress(digits), 16)


def test_fiber_census_refuses_an_address_in_another_base(ternary, fib):
    digits = (0, 1, 1, 0, 1, 1)
    with pytest.raises(DomainError, match="base 2.*has base 3"):
        fiber_census(ternary, OdometerAddress(digits), 8)
    census = fiber_census(ternary, census_address(ternary, digits), 8)
    assert census.address == OdometerAddress(digits, 3)
    assert census.windows[0] == "01012201012120012"
    with pytest.raises(DomainError, match="constant-length"):
        census_address(fib, digits)


def binary_sample(system, count, levels, resolution, seed):
    """The census sampler as it was when its digits were binary: a copy
    of its loop, kept as the oracle at ℓ = 2."""
    rng = random.Random(seed)
    censuses = []
    for _ in range(count):
        digits = tuple(rng.randint(0, 1) for _ in range(levels))
        censuses.append(fiber_census(system, OdometerAddress(digits),
                                     resolution))
    return censuses


@pytest.mark.parametrize("name", ["morse", "pd"])
@pytest.mark.parametrize("seed", [0, 7, 20190609])
def test_sample_censuses_keep_the_binary_stream(name, seed, request):
    system = request.getfixturevalue(name)
    for count, levels, resolution in ((5, 14, 16), (3, 9, 4)):
        assert sample_censuses(system, count, levels, resolution, seed) == \
            binary_sample(system, count, levels, resolution, seed)


def test_sample_censuses_draw_digits_below_the_base(ternary, fib):
    censuses = sample_censuses(ternary, 4, 6, 4, 0)
    assert {c.address.base for c in censuses} == {3}
    assert {d for c in censuses for d in c.address.digits} == {0, 1, 2}
    with pytest.raises(DomainError, match="constant-length"):
        sample_censuses(fib, 2, 6, 4, 0)


@pytest.mark.parametrize("what,refused", [
    ("desubstitutions", lambda fib: desubstitute(fib, "0100101")),
    ("addresses", lambda fib: address(fib, fixed_point(fib), 4)),
    ("address points", lambda fib: point_from_address(fib, (0, 1), "0")),
    ("fiber censuses", lambda fib: census_address(fib, (0, 1))),
    ("fiber censuses",
     lambda fib: fiber_census(fib, OdometerAddress((0, 1)), 4)),
    ("fiber censuses", lambda fib: sample_censuses(fib, 2, 6, 4, 0))])
def test_block_structures_share_one_refusal(fib, what, refused):
    with pytest.raises(DomainError, match="^%s need a constant-length "
                       "system, 'fibonacci' is not$" % what):
        refused(fib)


def test_address_horizon_cap(morse):
    # Morse (R = 4, h = 2) reads 3 << (k - 1) symbols minus one to the
    # left: level 19 reads 786,431 of them, level 20 would read more than
    # HORIZON_CAP and is refused before any symbol is built
    assert points.HORIZON_CAP == 1 << 20
    mu = seam_points(morse)["mu"]
    with pytest.raises(ResourceError, match="horizon cap"):
        mu.window(-(points.HORIZON_CAP + 1), 0)
    t0 = time.monotonic()
    with pytest.raises(ResourceError, match="horizon cap"):
        address(morse, mu, 20)
    assert time.monotonic() - t0 < 0.5
    assert address(morse, mu, 19).to_int() == 0


def test_caps_refuse_before_they_work(morse, monkeypatch):
    # no refusal builds ℓ^k, the sampler draws no digit and the image
    # cache builds no level, even on a system that has built none yet; a
    # sampler that drew its digits first would take seconds at 10^7 and
    # fill gigabytes at 10^9, so its level stays at 10^7
    mu = seam_points(morse)["mu"]
    t0 = time.monotonic()
    with pytest.raises(ResourceError,
                       match="^window exceeds horizon cap 1048576$"):
        address(morse, mu, 10 ** 9)
    assert time.monotonic() - t0 < 0.5
    t0 = time.monotonic()
    with pytest.raises(ResourceError,
                       match="^level-10000000 blocks exceed cap$"):
        sample_censuses(morse, 3, 10 ** 7, 16, 0)
    assert time.monotonic() - t0 < 0.5
    built = []
    powers = Substitution.powers

    def counted(sub):
        for images in powers(sub):
            built.append(len(next(iter(images.values()))))
            yield images
    monkeypatch.setattr(Substitution, "powers", counted)
    system = SubshiftSystem("morse", Substitution({"0": "01", "1": "10"}),
                            "0")
    before = len(built)
    t0 = time.monotonic()
    with pytest.raises(ResourceError,
                       match="^level-10000000 blocks exceed cap$"):
        system.level_images(10 ** 7)
    assert time.monotonic() - t0 < 0.5
    assert len(built) == before
    assert [len(images["0"]) for images in system.level_images(3)] == \
        [1, 2, 4, 8]
    assert built[before:] == [1, 2, 4, 8]


class WindowSpy(points.Point):
    """`base`, recording each window read from it."""

    def __init__(self, base):
        self.base = base
        self.system = base.system
        self.reads = []

    def determined_range(self):
        return self.base.determined_range()

    def _eval(self, lo, hi):
        self.reads.append((lo, hi))
        return self.base.window(lo, hi)


def window_systems():
    """Morse, period-doubling, ternary Thue-Morse and the block-parse
    rules among 40 random primitive ones (ℓ = 2, 3, 4 and R = 3..19)."""
    yield pytest.param(lambda request: request.getfixturevalue("morse"),
                       id="morse")
    yield pytest.param(lambda request: request.getfixturevalue("pd"),
                       id="pd")
    yield pytest.param(lambda request: request.getfixturevalue("ternary"),
                       id="ternary")
    for i, rule in enumerate(random_primitive_rules(random.Random(13), 40)):
        if Substitution(rule).constant_length and \
                len(set(rule.values())) == len(rule):
            yield pytest.param(
                lambda request, rule=rule: SubshiftSystem(
                    "random", Substitution(rule), "0"), id="random-%d" % i)


@pytest.mark.parametrize("make", window_systems())
def test_address_reads_exactly_the_window_its_parses_read(make, request):
    # coordinate 0 at every offset of a level-k block, for each k with
    # ℓ^k·R <= 4096: the digits are the construction digits, read off
    # the one window [-((h+1)·ℓ^(k-1) - 1), (R-h)·ℓ^(k-1) - 1]
    system = make(request)
    ell = system.constant_length
    r = recognizability_length(system)
    h = r // 2
    top = max(k for k in range(1, 20) if ell ** k * r <= 4096)
    # the level-`top` block of coordinate 0 sits in the middle of a block
    # at least 2(R+1) times as long, which covers every window below
    m = next(m for m in range(1, 20) if ell ** m >= 2 * (r + 1))
    digits = (0,) * top + OdometerAddress.from_int(ell ** m // 2, m,
                                                   ell).digits
    base = point_from_address(system, digits, "0")
    for k in range(1, top + 1):
        block = ell ** (k - 1)
        for a in range(ell ** k):
            spy = WindowSpy(base.shift(a))
            assert address(system, spy, k) == \
                OdometerAddress.from_int(a, k, ell), (k, a)
            assert spy.reads == [(-((h + 1) * block - 1),
                                  (r - h) * block - 1)], (k, a)


def deep_point(system, digits):
    """The address point with low digits `digits` and sheet 0 whose
    level-len(digits) block sits in the middle of a block at least
    2(R+2) times as long, so that every window of an address up to that
    level, and of its shifts by up to one such block, is determined."""
    ell = system.constant_length
    r = recognizability_length(system)
    m = next(m for m in range(1, 20) if ell ** m >= 2 * (r + 2))
    return point_from_address(system, tuple(digits) + OdometerAddress.from_int(
        ell ** m // 2, m, ell).digits, "0")


class AddressOracle:
    """`address` as it stood when every level below the top was decoded
    whole by `system.decode`: a copy of its loop, kept as the oracle
    that reading only the parsed blocks dropped no check.  A block that
    is no image escapes as the kernel's ValueError."""

    def __init__(self, system):
        self.system = system

    def address(self, point, k):
        system = self.system
        ell = system.constant_length
        if k == 0:
            return OdometerAddress((), ell)
        r, phases = system.recognizability()
        h = r // 2
        block = ell ** min(k - 1, points.HORIZON_CAP.bit_length())
        origin = (h + 1) * block - 1
        word = point.window(-origin, (r - h) * block - 1).encode()
        digits = []
        for j in range(k):
            lo = origin - h
            if lo < 0 or lo + r > len(word):
                raise AmbiguityError(
                    "window too short to determine digit at level %d" % j,
                    level=j)
            start = phases.get(word[lo:lo + r].decode())
            if start is None:
                raise IntegrityError("point window has no parse at level %d"
                                     % j)
            digit = (h - start) % ell
            digits.append(digit)
            if j + 1 < k:
                start = (origin - digit) % ell
                word = system.decode(word, start)
                origin = (origin - digit - start) // ell
        return OdometerAddress(tuple(digits), ell)


@pytest.mark.parametrize("make", window_systems())
def test_address_matches_the_level_by_level_decode(make, request):
    # address points at random depths and offsets, and for the binary
    # systems the seam splice too, at every level up to ℓ^k·R <= 4096
    system = make(request)
    oracle = AddressOracle(system)
    ell = system.constant_length
    r = recognizability_length(system)
    top = max(k for k in range(1, 20) if ell ** k * r <= 4096)
    rng = random.Random(28)
    bases = [deep_point(system, (rng.randrange(ell) for _ in range(top)))]
    if system.is_letter_automorphism(FLIP):
        bases.append(fixed_point(system))
    for base in bases:
        for _ in range(12):
            p = base.shift(rng.randint(-ell ** top, ell ** top))
            for k in range(top + 1):
                assert address(system, p, k) == oracle.address(p, k), k


def test_address_makes_no_decode_call(morse, monkeypatch):
    # the recognizability table, and the splice's check of its own
    # windows, decode by the phase parse, so both are warmed first; the
    # address itself only matches blocks
    p = fixed_point(morse).shift(12345)
    address(morse, p, 16)
    for name in ("decode", "_block_decode_table"):
        monkeypatch.setattr(SubshiftSystem, name,
                            lambda *args: pytest.fail("decoded"))
    monkeypatch.setattr("minflow.kernels.decode_blocks",
                        lambda *args: pytest.fail("decoded"))
    for k in (1, 9, 16):
        assert address(morse, p, k) == OdometerAddress.from_int(12345, k)


class CorruptedPoint(points.Point):
    """`base` with the symbol at coordinate `at` replaced by `symbol`."""

    def __init__(self, base, at, symbol):
        self.base = base
        self.system = base.system
        self.at = at
        self.symbol = symbol

    def determined_range(self):
        return self.base.determined_range()

    def _eval(self, lo, hi):
        word = self.base.window(lo, hi)
        i = self.at - lo
        if 0 <= i < len(word):
            word = word[:i] + self.symbol + word[i + 1:]
        return word


def refusal(read):
    """The class of the error that `read()` raises, or None and its
    value."""
    try:
        return None, read()
    except (IntegrityError, ValueError) as exc:
        return type(exc), None


@pytest.mark.parametrize("name", ["morse", "pd", "ternary"])
def test_a_corrupted_window_is_refused_as_the_decode_refuses_it(name,
                                                                request):
    # every single-symbol corruption of the window of levels 1..6, at
    # three offsets of coordinate 0: the address refuses it, always with
    # IntegrityError, exactly when the level-by-level decode refuses it
    system = request.getfixturevalue(name)
    oracle = AddressOracle(system)
    ell = system.constant_length
    r = recognizability_length(system)
    h = r // 2
    rng = random.Random(6)
    base = deep_point(system, (rng.randrange(ell) for _ in range(6)))
    refused = kept = 0
    for shift in (0, 5, -77):
        p = base.shift(shift)
        for k in range(1, 7):
            block = ell ** (k - 1)
            for at in range(-((h + 1) * block - 1), (r - h) * block):
                for symbol in system.alphabet.replace(p.window(at, at), ""):
                    bad = CorruptedPoint(p, at, symbol)
                    got = refusal(lambda: address(system, bad, k))
                    want = refusal(lambda: oracle.address(bad, k))
                    assert got[0] in (None, IntegrityError)
                    assert (got[0] is None) == (want[0] is None), \
                        (shift, k, at, symbol, want[0])
                    assert got[1] == want[1]
                    refused += got[0] is not None
                    kept += got[0] is None
    # most corruptions are refused, yet some are read past unchanged
    assert refused > kept > 0


def test_a_block_that_is_no_image_names_its_level_and_coordinate(morse):
    # the seam point's level-j blocks start at the multiples of 2^j.  The
    # parses of levels 0..3 read [-16, 15], so the flipped symbol at 21
    # is first read by the parse of level 4, in its block [16, 31]; the
    # decode found it at level 0, and raised the kernel's ValueError
    mu = fixed_point(morse)
    bad = CorruptedPoint(mu, 21, "1" if mu.window(21, 21) == "0" else "0")
    with pytest.raises(ValueError):
        AddressOracle(morse).address(bad, 6)
    with pytest.raises(IntegrityError, match="^point window has a level-4 "
                       "block at coordinate 16 that is no letter's image$"):
        address(morse, bad, 6)


def test_seam_census_windows_are_the_splice_windows(morse):
    census = fiber_census(morse, OdometerAddress((0,) * 12), 16)
    expected = {p.window(-16, 16) for p in seam_points(morse).values()}
    assert set(census.windows) == expected


def test_census_cardinality_monotone_in_level(morse):
    addr = OdometerAddress(tuple(j % 2 for j in range(14)))
    cards = [fiber_census(morse, addr.truncate(j), 8).cardinality
             for j in (4, 8, 12, 14)]
    assert cards == sorted(cards, reverse=True)


def test_census_flip_symmetry_at_seam(morse):
    census = fiber_census(morse, OdometerAddress((0,) * 10), 8)
    wins = set(census.windows)
    assert {flip_word(w) for w in wins} == wins


def test_word_frequencies_morse(morse):
    table = word_frequencies(morse, 1, 1024)
    assert table.frequency("0") == Fraction(1, 2)
    assert table.frequency("1") == Fraction(1, 2)
    table = word_frequencies(morse, 2, 1 << 12)
    counts = dict(table.counts)
    assert sum(counts.values()) == 1 << 12
    for w, c in counts.items():
        assert abs(c - counts[flip_word(w)]) <= 2


def test_word_frequencies_rejects_short_test_word(morse):
    class ShortWords:
        name = "short"

        def test_word(self, length):
            return morse.test_word(length - 1)

    with pytest.raises(IntegrityError, match="length 101, not 102"):
        word_frequencies(ShortWords(), 2, 100)


def test_word_frequencies_fibonacci(fib):
    table = word_frequencies(fib, 1, 10 ** 5)
    golden = (1 + 5 ** 0.5) / 2
    assert abs(table.frequency("0") - 1 / golden) < 0.01


def test_frequency_invariance_under_automorphisms(morse):
    # the pushforward of the unique invariant measure is itself, so the
    # image orbit must reproduce the frequency table within 2(r+1)/steps
    from minflow.codes import enumerate_endomorphisms
    n, steps = 2, 1 << 14
    base = dict(word_frequencies(morse, n, steps).counts)
    prefix = morse.test_word(steps + n + 4)
    for radius in (0, 1):
        for code in enumerate_endomorphisms(morse, radius):
            image = code.apply(prefix)
            counts = {}
            for i in range(steps):
                w = image[i:i + n]
                counts[w] = counts.get(w, 0) + 1
            for w in set(base) | set(counts):
                delta = abs(counts.get(w, 0) - base.get(w, 0))
                assert delta <= 2 * (radius + 1)


def test_split_point_dichotomy(morse):
    # eventually-constant addresses (the integer orbit of the seam) have
    # flip-quotient 2; others have quotient 1
    seven = OdometerAddress.from_int(7, 12)
    census = fiber_census(morse, seven, 16)
    assert census.quotient_cardinality == 2 and census.cardinality == 4
    minus_two = OdometerAddress.from_int(-2, 12)  # constant-1 tail
    census = fiber_census(morse, minus_two, 16)
    assert census.quotient_cardinality == 2
    generic = OdometerAddress(tuple(int(c) for c in "011010011001"))
    assert fiber_census(morse, generic, 16).quotient_cardinality == 1


def test_frequency_table_formats(morse):
    table = word_frequencies(morse, 2, 256)
    tsv = table.to_tsv()
    lines = tsv.strip().split("\n")
    assert [l.split("\t")[0] for l in lines] == sorted(dict(table.counts))
    word, count, freq = lines[0].split("\t")
    assert int(count) == dict(table.counts)[word]
    assert len(freq.split(".")[1]) == 6
    obj = table.to_json()
    assert obj["words"][0]["total"] == 256
