import gc
import itertools
import random
import statistics
import time

import pytest
from conftest import random_primitive_rules
from hypothesis import given, settings, strategies as st

from minflow import factors, kernels, points, words
from minflow.errors import (ConstructionError, DomainError, IntegrityError,
                            ResourceError)
from minflow.words import (BLOCK_CAP, FLIP, PREFIX_MIN, REGISTRY,
                           SHORT_WORD_LEN, FullShiftSystem, Substitution,
                           SubshiftSystem, first_windows, fixed_point_prefix,
                           flip_word, get_system, pack_pair)

TM = {"0": "01", "1": "10"}
PD = {"0": "01", "1": "00"}
FIB = {"0": "01", "1": "0"}
TERNARY = {"0": "012", "1": "120", "2": "201"}
THREE_LETTER = {"0": "012", "1": "02", "2": "0"}
# a primitive substitution that recurs slowly: a 4096-symbol prefix of
# its fixed point misses admissible words of length 12 and 64
WITNESS = {"0": "0002012120021", "1": "10211", "2": "21120112210"}


def oracle_prefix(rule, seed, n):
    s = seed
    while len(s) < n:
        s = "".join(rule[c] for c in s)
    return s[:n]


def oracle_factors(rule, seed, n, plen):
    s = oracle_prefix(rule, seed, plen)
    return {s[i:i + n] for i in range(len(s) - n + 1)}


def naive_first_windows(word, width):
    first = {}
    for n in range(len(word) - width + 1):
        first.setdefault(word[n:n + width], n)
    return first


def assert_first_windows(word, widths):
    for width in widths:
        assert list(first_windows(word, width).items()) == \
            list(naive_first_windows(word, width).items()), (word, width)


ALPHABETS = ["0", "01", "012", "0123456789"]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ALPHABETS).flatmap(
    lambda a: st.text(alphabet=a, max_size=120)), st.data())
def test_first_windows_matches_naive(word, data):
    width = data.draw(st.integers(0, len(word) + 1))
    assert_first_windows(word, [width])
    assert_first_windows(word.encode(), [width])


@pytest.mark.parametrize("alphabet", ALPHABETS)
def test_first_windows_random_words(alphabet):
    rng = random.Random(len(alphabet))
    for size in (0, 1, 2, 7, 64, 300):
        word = "".join(rng.choice(alphabet) for _ in range(size))
        assert_first_windows(word, range(1, size + 2))
    word = "".join(rng.choice(alphabet) for _ in range(1 << 12))
    assert_first_windows(word, [1, 2, 3, 8, 20, 65, 4095, 4096, 4097])


def test_first_windows_periodic_words():
    for period in ("0", "01", "001", "0110", "0123456789", "0010010001"):
        word = period * (300 // len(period)) + period[:len(period) // 2]
        assert_first_windows(word, range(1, len(word) + 2))


@pytest.mark.parametrize("period", [64, 128])
def test_first_windows_long_repeats(period):
    # a random block repeated: each repeat extends far past the window,
    # to the word's end, at lengths around a power of two and at lengths
    # where the extension from the first repeat ends exactly on a gallop
    # step s(2^t - 1) past width + 8 (s the largest power of two <= width)
    rng = random.Random(period)
    block = "".join(rng.choice("0123") for _ in range(period))
    widths = [1, 2, 63, 64, 65, 127, 128, 129]
    sizes = {n + d for n in (512, 1024, 2048) for d in (-1, 0, 1)}
    for w in widths:
        s = 1 << (w.bit_length() - 1)
        sizes.update(period + w + 8 + s * ((1 << t) - 1) + d
                     for t in range(1, 5) for d in (-1, 0, 1))
    for size in sorted(sizes):
        word = (block * (size // period + 1))[:size]
        assert_first_windows(word, widths)
        # a single change ends one run of repeats and starts another
        mid = size // 2
        assert_first_windows(word[:mid] + "4" + word[mid + 1:], widths)


@pytest.mark.parametrize("rule", [TM, FIB, PD])
def test_first_windows_substitutive_prefixes(rule):
    word = oracle_prefix(rule, "0", 2000)
    assert_first_windows(word, range(1, 130))
    assert_first_windows(word, [255, 256, 1024, 1999, 2000, 2001])
    assert_first_windows(word[:300], range(1, 302))


def test_first_windows_edge_widths():
    assert first_windows("", 1) == {}
    assert first_windows("", 0) == {"": 0}
    assert first_windows("0110", 4) == {"0110": 0}
    assert first_windows("0110", 5) == {}
    assert list(first_windows("0110100110", 3).items()) == \
        [("011", 0), ("110", 1), ("101", 2), ("010", 3), ("100", 4),
         ("001", 5)]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10).flatmap(
    lambda k: st.integers(0, 300).flatmap(lambda n: st.tuples(
        *[st.text(alphabet="0123456789"[:k], min_size=n, max_size=n)] * 2))),
    st.data())
def test_first_windows_of_a_packed_pair_are_the_pairs_first_starts(pair,
                                                                    data):
    a, b = pair
    width = data.draw(st.integers(0, len(a) + 1))
    want = {}
    for i in range(len(a) - width + 1):
        want.setdefault((a[i:i + width], b[i:i + width]), i)
    assert list(first_windows(pack_pair(a, b), width).values()) == \
        list(want.values())


def test_pack_pair_of_empty_words():
    assert pack_pair("", "") == ""


def _best_scan_times(word, widths, cost):
    # best of 5, the widths taken in turn so that a busy moment of the
    # machine falls on one time of many widths, not on every time of one
    gc.disable()
    try:
        for _ in range(5):
            for w in widths:
                t0 = time.perf_counter()
                first_windows(word, w)
                cost[w] = min(cost[w], time.perf_counter() - t0)
    finally:
        gc.enable()


def _over_neighbours(cost):
    return [w for w in cost
            if cost[w] > 3 * statistics.median(
                cost[v] for v in range(w - 2, w + 3) if v != w and v in cost)]


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_first_windows_costs_about_what_neighbouring_widths_cost(name):
    # a width whose repeats are not extended from the right earlier
    # start falls back to one slice per position; a width over the bound
    # is timed again before the assertion
    word = REGISTRY[name]().test_word(4096)
    cost = dict.fromkeys(range(1, 65), float("inf"))
    _best_scan_times(word, cost, cost)
    _best_scan_times(word, _over_neighbours(cost), cost)
    assert _over_neighbours(cost) == []


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_language_is_the_naive_factor_set(name):
    system = REGISTRY[name]()                  # cold caches
    for n in [*range(1, 81), 128, 256]:
        prefix = system.test_word(max(4096, 8 * n))
        naive = {prefix[i:i + n] for i in range(len(prefix) - n + 1)}
        assert system.language(n) == naive, (name, n)


def test_substitute_examples(morse):
    sub = morse.substitution
    assert sub.apply("0") == "01"
    assert sub.apply("") == ""
    assert sub.apply("01") == "0110"


def test_substitute_rejects_foreign_symbols(morse):
    with pytest.raises(DomainError):
        morse.substitution.apply("02")


def test_fixed_point_prefixes():
    assert fixed_point_prefix(Substitution(TM), "0", 8) == "01101001"
    assert fixed_point_prefix(Substitution(PD), "0", 8) == "01000101"
    assert fixed_point_prefix(Substitution(FIB), "0", 8) == "01001010"


def test_fixed_point_prefix_is_prefix_stable(morse):
    sub = morse.substitution
    long = fixed_point_prefix(sub, "0", 512)
    assert sub.apply(long).startswith(long[:512])


def test_fixed_point_prefix_over_the_cap_builds_nothing(monkeypatch):
    monkeypatch.setattr(Substitution, "powers",
                        lambda self: pytest.fail("image built"))
    with pytest.raises(ResourceError, match="^fixed-point prefix of %d "
                       "symbols, over the cap %d$" % (BLOCK_CAP + 1,
                                                      BLOCK_CAP)):
        fixed_point_prefix(Substitution(TM), "0", BLOCK_CAP + 1)


def test_cached_prefix_doubles_up_to_the_cap():
    # doubling 3/4 of the cap would pass it; the cache stops at the cap,
    # so every legal request is served
    system = SubshiftSystem("morse", Substitution(TM), "0")
    system.fixed_prefix("0", 3 << 20)
    assert len(system.fixed_prefix("0", (3 << 20) + 1)) == (3 << 20) + 1
    assert len(system._prefix["0"]) == BLOCK_CAP
    assert system.fixed_prefix("0", BLOCK_CAP) == \
        fixed_point_prefix(system.substitution, "0", BLOCK_CAP)


def test_full_shift_builds_its_de_bruijn_sequence_once_per_order():
    words._de_bruijn.cache_clear()
    system = FullShiftSystem("01")
    assert [len(system.test_word(4096)) for _ in range(3)] == [4096] * 3
    assert words._de_bruijn.cache_info().misses == 1


def test_non_prolongable_seed(fib):
    with pytest.raises(ConstructionError):
        fixed_point_prefix(fib.substitution, "1", 8)


def test_morse_language_small(morse):
    assert morse.language(2) == {"00", "01", "10", "11"}
    assert morse.language(3) == {"001", "010", "011", "100", "101", "110"}


def test_fibonacci_language_small(fib):
    assert fib.language(3) == {"001", "010", "100", "101"}


def test_complexity_tables(morse, fib, pd):
    # oracle: brute enumeration of factors of a long generated prefix
    assert [morse.complexity(n) for n in range(1, 9)] == \
        [2, 4, 6, 10, 12, 16, 20, 22]
    assert [pd.complexity(n) for n in range(1, 9)] == [2, 3, 5, 6, 8, 10, 11, 12]
    assert all(fib.complexity(n) == n + 1 for n in range(1, 31))


@pytest.mark.parametrize("rule,seed", [(TM, "0"), (PD, "0"), (FIB, "0")])
@pytest.mark.parametrize("n", [2, 5, 9])
def test_language_matches_oracle(rule, seed, n):
    system = SubshiftSystem("t", Substitution(rule), seed)
    assert system.language(n) == oracle_factors(rule, seed, n, 40000)


def test_complexity_monotone(morse, fib, pd):
    for system in (morse, fib, pd):
        values = [system.complexity(n) for n in range(1, 25)]
        assert values == sorted(values)


def test_is_admissible_examples(morse):
    assert not morse.is_admissible("000")
    assert morse.is_admissible("0110")
    assert morse.is_admissible("")
    assert not morse.is_admissible("0x1")


def test_long_word_certificate_matches_oracle(morse):
    # certificate kicks in above the cache bound (64); oracle is the
    # factor set of a much longer prefix
    n = 80
    oracle = oracle_factors(TM, "0", n, 64 * n)
    prefix = morse.test_word(4000)
    rng = random.Random(5)
    for _ in range(20):
        i = rng.randrange(len(prefix) - n)
        w = prefix[i:i + n]
        assert w in oracle and morse.is_admissible(w)
    for _ in range(20):
        w = "".join(rng.choice("01") for _ in range(n))
        assert morse.is_admissible(w) == (w in oracle)


def test_long_word_certificate_fibonacci(fib):
    n = 100
    oracle = oracle_factors(FIB, "0", n, 64 * n)
    word = fib.test_word(1000)[33:33 + n]
    assert fib.is_admissible(word) and word in oracle
    corrupted = word[:50] + "11" + word[52:]
    assert not fib.is_admissible(corrupted)


def test_morse_language_flip_and_reversal_closed(morse):
    for n in range(1, 13):
        lang = morse.language(n)
        assert {flip_word(w) for w in lang} == lang
        assert {w[::-1] for w in lang} == lang


def test_substitute_preserves_admissibility(morse, fib, pd):
    for system in (morse, fib, pd):
        for w in sorted(system.language(7)):
            assert system.is_admissible(system.substitution.apply(w))


def test_flags():
    assert Substitution(TM).is_primitive
    assert Substitution(TM).constant_length == 2
    assert Substitution(FIB).is_primitive
    assert Substitution(FIB).constant_length is None
    assert Substitution(PD).constant_length == 2
    assert not Substitution({"0": "01", "1": "11"}).is_primitive


def test_non_primitive_substitution_rejected():
    with pytest.raises(ConstructionError):
        SubshiftSystem("bad", Substitution({"0": "01", "1": "11"}), "0")


def test_substitution_validation():
    with pytest.raises(DomainError):
        Substitution({"0": ""})
    with pytest.raises(DomainError):
        Substitution({"a": "aa"})
    with pytest.raises(DomainError):
        Substitution({"0": "02"})


# the kernels read symbol c as the digit ord(c) - 48, so both kinds of
# system take only the digits 0..k-1; a rule's letters are dict keys, so
# only the full shift can be given a repeated symbol
@pytest.mark.parametrize("alphabet", ["13", "02", "011", "0123456789a", ""])
def test_full_shift_rejects_other_alphabets(alphabet):
    with pytest.raises(DomainError, match="digits 0..k-1"):
        FullShiftSystem(alphabet)


@pytest.mark.parametrize("rule", [{"1": "13", "3": "31"},
                                  {"0": "02", "2": "20"}])
def test_subshift_rejects_other_alphabets(rule):
    assert Substitution(rule).is_primitive
    with pytest.raises(DomainError, match="digits 0..k-1"):
        SubshiftSystem("gap", Substitution(rule), min(rule))


def test_language_cap(morse):
    with pytest.raises(ResourceError):
        morse.language(morse.language_cap + 1)
    with pytest.raises(DomainError):
        morse.language(0)


def cyclic_system(letters, ell):
    """a -> a, a + 1, ..., a + ell - 1 (mod letters), of constant length
    ell."""
    rule = {str(a): "".join(str((a + i) % letters) for i in range(ell))
            for a in range(letters)}
    return SubshiftSystem("cyclic", Substitution(rule), "0")


@pytest.mark.parametrize("call", [
    factors.recognizability_length,
    lambda system: system.is_admissible("0" * 100),
], ids=["recognizability_length", "is_admissible"])
def test_block_decoding_table_refuses_over_the_cap(call):
    system = cyclic_system(10, 8)              # a table of 10^8 entries
    t0 = time.monotonic()
    with pytest.raises(ResourceError, match="'cyclic' needs a block decoding "
                       "table of 10\\^8 entries, over the cap 16777216"):
        call(system)
    assert time.monotonic() - t0 < 1


def test_registry():
    assert get_system("morse") is get_system("morse")
    with pytest.raises(DomainError):
        get_system("sturmian")


def test_flip_closures(morse, fib, pd):
    assert morse.is_letter_automorphism(FLIP)
    assert not fib.is_letter_automorphism(FLIP)
    assert not pd.is_letter_automorphism(FLIP)


def letter_automorphisms(system):
    """The images of the alphabet, in order, under each permutation of it
    that the system accepts as a letter automorphism."""
    a = system.alphabet
    return {"".join(g) for g in itertools.permutations(a)
            if system.is_letter_automorphism(str.maketrans(a, "".join(g)))}


def language_preserving_permutations(system, n):
    a = system.alphabet
    lang = system.language(n)
    return {"".join(g) for g in itertools.permutations(a)
            if {w.translate(str.maketrans(a, "".join(g)))
                for w in lang} == lang}


def test_letter_automorphism_groups(morse, fib, pd, ternary):
    assert letter_automorphisms(morse) == {"01", "10"}
    assert letter_automorphisms(fib) == {"01"}
    assert letter_automorphisms(pd) == {"01"}
    assert letter_automorphisms(ternary) == {"012", "120", "201"}


def test_a_letter_map_must_permute_the_alphabet(morse, ternary):
    # on ternary the flip (2 fixed) permutes the alphabet but does not
    # commute with σ; a map that merges letters, maps one to a word or
    # leaves the alphabet permutes nothing
    assert not ternary.is_letter_automorphism(FLIP)
    assert not morse.is_letter_automorphism(str.maketrans("01", "00"))
    assert not morse.is_letter_automorphism({ord("0"): "10", ord("1"): ""})
    assert not FullShiftSystem("0").is_letter_automorphism(FLIP)
    assert FullShiftSystem("012").is_letter_automorphism(FLIP)
    assert FullShiftSystem("012").is_letter_automorphism(
        str.maketrans("012", "201"))


LETTER_MAP_SYSTEMS = [SubshiftSystem("random", Substitution(rule), "0")
                      for rule in random_primitive_rules(random.Random(5),
                                                         400)]


def test_accepted_letter_maps_preserve_the_language():
    accepted = 0
    for system in LETTER_MAP_SYSTEMS:
        found = letter_automorphisms(system)
        assert found <= language_preserving_permutations(system, 16)
        accepted += len(found) - 1
    assert accepted == 7


def test_accepted_letter_maps_are_the_language_preserving_ones():
    # measured, not proven: commuting with σ is sufficient but not
    # necessary.  The periodic systems are left out (Morse-Hedlund:
    # p(n) = p(n + 1) for some n): 0 -> 01, 1 -> 01 commutes with the
    # identity alone, and the flip preserves every level of it.
    aperiodic = [system for system in LETTER_MAP_SYSTEMS
                 if all(system.complexity(n) < system.complexity(n + 1)
                        for n in range(1, 16))]
    assert len(aperiodic) == 388
    for system in aperiodic:
        assert letter_automorphisms(system) == \
            language_preserving_permutations(system, 16), \
            system.substitution


@pytest.mark.parametrize("name", ["morse", "full-shift"])
def test_test_word_of_a_negative_length_is_empty(name):
    # a cached prefix is not sliced from its end
    system = FullShiftSystem("01") if name == "full-shift" \
        else REGISTRY[name]()
    system.test_word(100)
    assert [system.test_word(n) for n in (0, -1, -5)] == ["", "", ""]


def test_full_shift(full_shift):
    assert len(full_shift.language(5)) == 32
    assert full_shift.is_admissible("00110" * 40)
    word = full_shift.test_word(512)
    assert len(word) == 512
    blocks = {word[i:i + 3] for i in range(len(word) - 2)}
    assert blocks == full_shift.language(3)


# the caps of the parse that ParseOracle copies
_PARSE_DEPTH_CAP = 64
_PARSE_BRANCH_CAP = 64


class ParseOracle(SubshiftSystem):
    """Admissibility by the desubstitution parse alone, with no occurrence
    certificate: the methods below are the parse as it stood before
    occurrences in the fixed point were taken as certificates."""

    def is_admissible(self, word: str) -> bool:
        """True iff `word` is a factor of the subshift's language."""
        if word == "":
            return True
        if any(c not in self.alphabet for c in word):
            return False
        if len(word) <= min(SHORT_WORD_LEN, self.language_cap):
            return word in self.language(len(word))
        return self._admissible_by_parse(word, 0)

    def _admissible_by_parse(self, word, depth):
        if depth > _PARSE_DEPTH_CAP:
            raise IntegrityError("parse recursion too deep")
        if len(word) <= min(SHORT_WORD_LEN, self.language_cap):
            return word in self.language(len(word))
        ell = self.constant_length
        if ell is not None:
            preimages = self._cl_decompositions(word, ell)
        else:
            preimages = self._decompositions(word)
        for preimage in preimages:
            if self._admissible_by_parse(preimage, depth + 1):
                return True
        return False

    def _cl_decompositions(self, word, ell):
        """Constant-length decompositions, decoded by the kernel."""
        rule = self.substitution.rule
        table = self._block_decode_table()
        base = len(self.alphabet)
        raw = word.encode()
        n = len(word)
        out = []
        for start in range(ell):
            try:
                core = kernels.decode_blocks(raw, start, ell, table,
                                             base).decode()
            except ValueError:
                continue
            lefts = [""]
            if start:
                lefts = [a for a in self.alphabet
                         if rule[a].endswith(word[:start])]
            tail = n - (n - start) % ell
            rights = [""]
            if tail < n:
                rights = [a for a in self.alphabet
                          if rule[a].startswith(word[tail:])]
            out.extend(l + core + r for l in lefts for r in rights)
        return out

    def _decompositions(self, word):
        """Preimage candidates: word = (image suffix) + images + (image prefix)."""
        rule = self.substitution.rule
        n = len(word)
        starts = [(0, "")]
        for a, img in rule.items():
            for p in range(1, len(img)):
                if word[:p] == img[-p:]:
                    starts.append((p, a))
        out = []
        for p0, left in starts:
            # full-block chains from p0; branching is tiny for
            # recognizable substitutions but handled generally
            stack = [(p0, "")]
            while stack:
                pos, letters = stack.pop()
                if pos == n:
                    out.append(left + letters)
                    continue
                for a, img in rule.items():
                    k = len(img)
                    if pos + k <= n:
                        if word[pos:pos + k] == img:
                            stack.append((pos + k, letters + a))
                    elif img.startswith(word[pos:]):
                        out.append(left + letters + a)
                if len(out) > _PARSE_BRANCH_CAP:
                    raise ResourceError("decomposition branch cap exceeded")
        return out


class PhaseOracle(ParseOracle):
    """The valid phases as they stood when every phase's preimages were
    listed first and then tested one by one, over ParseOracle's
    admissibility."""

    def parses(self, word):
        """The phases of `word` whose full blocks decode, as (start, core,
        preimages); DomainError unless the images have one length ℓ and
        are pairwise distinct.

        The first full block begins at `start`, so position 0 of `word`
        sits at offset (-start) mod ℓ of its block.  `core` decodes the
        full blocks, by one kernel call; `preimages` are `core` with each
        completion of the cut edge blocks.  Every start below ℓ is
        tried: past the end of `word`, it puts all of `word` inside one
        block at offset ℓ - start, and the preimages are the letters
        whose image holds it there.
        """
        self._refuse_unless_block_parse()
        ell = self.constant_length
        rule = self.substitution.rule
        raw = word.encode()
        n = len(word)
        out = []
        for start in range(ell):
            if start > n:
                out.append((start, "", [
                    a for a in self.alphabet
                    if rule[a][ell - start:ell - start + n] == word]))
                continue
            try:
                core = self.decode(raw, start).decode()
            except ValueError:
                continue
            lefts = [""]
            if start:
                lefts = [a for a in self.alphabet
                         if rule[a].endswith(word[:start])]
            tail = n - (n - start) % ell
            rights = [""]
            if tail < n:
                rights = [a for a in self.alphabet
                          if rule[a].startswith(word[tail:])]
            out.append((start, core,
                        [l + core + r for l in lefts for r in rights]))
        return out

    def valid_phases(self, word):
        """(start, core) of each phase of `word` in `parses` that has an
        admissible preimage; none if a symbol lies outside the alphabet."""
        self._refuse_unless_block_parse()
        if not words._over_alphabet(word, self.alphabet):
            return []
        return [(start, core) for start, core, preimages in self.parses(word)
                if any(map(self.is_admissible, preimages))]


def phase_cases(system):
    """The admissible words of length 12 or less, each of their one-symbol
    mutants, and every nonempty word shorter than ℓ."""
    alphabet = system.alphabet
    cases = set()
    for n in range(1, 13):
        for w in system.language(n):
            cases.add(w)
            cases.update(w[:i] + c + w[i + 1:] for i in range(n)
                         for c in alphabet if c != w[i])
    for n in range(1, system.constant_length):
        cases.update(map("".join, itertools.product(alphabet, repeat=n)))
    return sorted(cases, key=lambda w: (len(w), w))


# with ℓ = 4, a word shorter than ℓ - 1 has phases that start past its
# end, and not every letter sits at every offset of an image
PHASE_RULES = {"morse": TM, "period-doubling": PD, "ternary-morse": TERNARY,
               "ell-4": {"0": "0201", "1": "0111", "2": "2100"}}


@pytest.mark.parametrize("name", sorted(PHASE_RULES))
def test_valid_phases_match_the_listed_preimages(name):
    system = SubshiftSystem(name, Substitution(PHASE_RULES[name]), "0")
    oracle = PhaseOracle(system.name, system.substitution, system.seed)
    cases = phase_cases(system)
    got = [system.valid_phases(w) for w in cases]
    assert got == [oracle.valid_phases(w) for w in cases]
    # the cases hold admissible words, with one phase or several, and
    # words with none
    assert {min(len(v), 2) for v in got} == {0, 1, 2}
    with pytest.raises(DomainError, match="the empty word has no phase"):
        system.valid_phases("")


def test_admissibility_stops_at_the_first_valid_phase(monkeypatch):
    # a factor beyond the cached prefix: each level of the parse decodes
    # phase 0, and phase 1 only where phase 0 is not valid
    word = REGISTRY["morse"]().fixed_prefix("0", 1 << 20)[300001:365537]
    morse = REGISTRY["morse"]()
    morse.language(64)
    morse.test_word(4096)
    starts = []
    decode = kernels.decode_blocks

    def spy(raw, start, *rest):
        starts.append(start)
        return decode(raw, start, *rest)

    monkeypatch.setattr("minflow.kernels.decode_blocks", spy)
    assert morse.is_admissible(word)
    assert starts == [0, 1, 0, 0, 0, 0, 0, 1]


def oracle_cases(system, rng):
    """Words for the admissibility oracle: factors of length 65-2000 of a
    2^16 prefix and their flips, seam splice buffers, factors that lie
    beyond the PREFIX_MIN symbols a fresh system caches, and one-symbol
    mutations of all of these."""
    fixed = fixed_point_prefix(system.substitution, system.seed, 1 << 16)
    cases = []
    for _ in range(10):
        n = rng.randint(65, 2000)
        i = rng.randrange(len(fixed) - n)
        cases += [fixed[i:i + n], flip_word(fixed[i:i + n])]
    halves = (fixed, flip_word(fixed))
    for n in (64, 1000):
        cases += [a[:n][::-1] + b[:n + 1] for a in halves for b in halves]
    cached = fixed[:words.PREFIX_MIN]
    beyond = []
    while len(beyond) < 5:
        n = rng.randint(65, 2000)
        i = rng.randrange(words.PREFIX_MIN, len(fixed) - n)
        if fixed[i:i + n] not in cached:
            beyond.append(fixed[i:i + n])
    cases += beyond
    mutants = []
    for w in cases:
        i = rng.randrange(len(w))
        mutants.append(w[:i] + flip_word(w[i]) + w[i + 1:])
    return cases + mutants


# the built-in systems, and one of constant length 3
ORACLE_SYSTEMS = dict(REGISTRY, **{"ternary-morse": lambda: SubshiftSystem(
    "ternary-morse", Substitution(TERNARY), "0")})


def oracle_systems():
    """ORACLE_SYSTEMS, then systems whose images differ in length, which
    read the covers: the WITNESS rule, a three-letter rule and the seeded
    random rules with pairwise distinct images.  That leaves out
    0 -> 02, 1 -> 02, 2 -> 1110, on which the oracle's own cap fires."""
    for name in sorted(ORACLE_SYSTEMS):
        yield pytest.param(ORACLE_SYSTEMS[name], id=name)
    rules = [("witness", WITNESS), ("three-letter", THREE_LETTER)] + [
        (repr(rule), rule)
        for rule in random_primitive_rules(random.Random(13), 40)
        if Substitution(rule).constant_length is None
        and len(set(rule.values())) == len(rule)]
    for name, rule in rules:
        yield pytest.param(lambda name=name, rule=rule: SubshiftSystem(
            name, Substitution(rule), "0"), id=name)


@pytest.mark.parametrize("make", oracle_systems())
def test_admissibility_matches_the_parse_oracle(make):
    system = make()                            # cold caches
    oracle = ParseOracle(system.name, system.substitution, system.seed)
    cases = oracle_cases(system, random.Random(system.name))
    cached = system.test_word(words.PREFIX_MIN)
    assert len(system._prefix[system.seed]) == words.PREFIX_MIN
    beyond = [w for w in cases if w not in cached]
    assert len(beyond) > len(cases) // 2       # the parse runs on these
    verdicts = [system.is_admissible(w) for w in cases]
    assert verdicts == [oracle.is_admissible(w) for w in cases]
    assert any(verdicts) and not all(verdicts)
    # the occurrence certificate never grows the prefix
    assert len(system._prefix[system.seed]) == words.PREFIX_MIN


def mutant(word, alphabet):
    """`word` with its middle symbol replaced by the next letter of
    `alphabet`, cyclically."""
    i = len(word) // 2
    letter = alphabet[(alphabet.index(word[i]) + 1) % len(alphabet)]
    return word[:i] + letter + word[i + 1:]


# The two tests below are named for the branch cap of the general
# decomposition parse, which these Fibonacci factors from beyond the cached
# prefix once reached.  That parse is gone: they are decided from the
# covers, with no cap, and ParseOracle agrees.

def check_fibonacci_factor(fib, word):
    oracle = ParseOracle("fibonacci", fib.substitution, "0")
    assert word not in fib.test_word(words.PREFIX_MIN)
    t0 = time.monotonic()
    assert fib.is_admissible(word)
    bad = mutant(word, "01")
    assert not fib.is_admissible(bad)
    assert time.monotonic() - t0 < 5
    assert oracle.is_admissible(word) and not oracle.is_admissible(bad)


def test_parse_branch_cap_raises_quickly():
    fib = REGISTRY["fibonacci"]()
    # ends in a 0 that may begin the image 01, so a parse has a partial
    # last block
    word = fixed_point_prefix(fib.substitution, "0", 1 << 14)[8000:11001]
    assert word.endswith("10")
    check_fibonacci_factor(fib, word)


def test_parse_branch_cap_counts_candidates_on_block_boundaries():
    fib = REGISTRY["fibonacci"]()
    # ends on a block boundary, so its one decomposition comes from the
    # path that ends the word
    word = fixed_point_prefix(fib.substitution, "0", 1 << 14)[8000:11000]
    oracle = ParseOracle("fibonacci", fib.substitution, "0")
    assert len(oracle._decompositions(word)) == 1
    check_fibonacci_factor(fib, word)


def test_a_long_fibonacci_word_is_decided_quickly():
    fib = REGISTRY["fibonacci"]()
    fixed = fixed_point_prefix(fib.substitution, "0", 1 << 20)
    word = fixed[300000:300000 + (1 << 18)]
    t0 = time.monotonic()
    assert fib.is_admissible(word)
    assert time.monotonic() - t0 < 0.5
    assert not fib.is_admissible(mutant(word, "01"))


# constant length, but two letters share an image, so no block names its
# letter; the last is rule 25 of random_primitive_rules(Random(13), 40)
SHARED_IMAGES = [{"0": "0012", "1": "0012", "2": "2220"},
                 {"0": "002", "1": "110", "2": "110"},
                 {"0": "01", "1": "20", "2": "01"}]


@pytest.mark.parametrize("rule", SHARED_IMAGES, ids=repr)
def test_shared_images_read_the_covers_and_refuse_the_parse(rule):
    system = SubshiftSystem("shared", Substitution(rule), "0")
    fixed = fixed_point_prefix(system.substitution, "0", 1 << 15)
    rng = random.Random(repr(rule))
    for _ in range(200):
        n = rng.randint(70, 600)
        i = rng.randrange(5000, len(fixed) - n)
        assert system.is_admissible(fixed[i:i + n]), (i, n)
    for call in (factors.recognizability_length,
                 lambda s: factors.desubstitute(s, fixed[:100]),
                 lambda s: factors.address(s, points.fixed_point(s), 2)):
        with pytest.raises(DomainError, match="no block parse"):
            call(system)


def test_shared_images_of_different_lengths_are_decided_quickly():
    # 0 -> 02 and 1 -> 02: a parse over image chains branches two ways at
    # each block 02
    system = SubshiftSystem("shared", Substitution(
        {"0": "02", "1": "02", "2": "1110"}), "0")
    fixed = fixed_point_prefix(system.substitution, "0", 1 << 16)
    rng = random.Random(22)
    for _ in range(3):
        n = rng.randint(300, 400)
        i = rng.randrange(words.PREFIX_MIN, len(fixed) - n)
        word = fixed[i:i + n]
        assert system.is_admissible(word)
        t0 = time.monotonic()
        assert not system.is_admissible(mutant(word, "012"))
        assert time.monotonic() - t0 < 1


# images of different lengths: 0 -> 012, 1 -> 02, 2 -> 0
POWER_RULES = {"morse": TM, "fibonacci": FIB, "period-doubling": PD,
               "three-letter": THREE_LETTER}
LONGEST = 1 << 14


def applied_powers(sub):
    """{a: σ^j(a)} for j = 0, 1, ..., each level by `Substitution.apply`,
    up to the first level whose every image is longer than LONGEST + 1."""
    images = {a: a for a in sub.alphabet}
    out = [images]
    while min(map(len, images.values())) <= LONGEST + 1:
        images = {a: sub.apply(w) for a, w in images.items()}
        out.append(images)
    return out


@pytest.mark.parametrize("name", sorted(POWER_RULES))
def test_powers_match_iterated_apply(name):
    sub = Substitution(POWER_RULES[name])
    expected = applied_powers(sub)
    assert len(expected) > 14                  # levels 0..14 at least
    powers = sub.powers()
    assert [next(powers) for _ in expected] == expected
    # a fresh generator starts again at level 0
    assert next(sub.powers()) == {a: a for a in sub.alphabet}


@pytest.mark.parametrize("rule", [TM, PD, TERNARY])
def test_level_images_match_iterated_apply(rule):
    # asked for out of order, the cache keeps one walk of the levels
    system = SubshiftSystem("s", Substitution(rule), "0")
    expected = applied_powers(system.substitution)
    top = len(expected) - 1
    assert system.level_images(3) == expected[:4]
    assert system.level_images(top) == expected
    assert system.level_images(1) == expected[:2]


def test_level_images_need_one_image_length(fib):
    with pytest.raises(DomainError, match="^level images need a "
                       "constant-length system, 'fibonacci' is not$"):
        fib.level_images(2)


@pytest.mark.parametrize("rule", [TM, PD, TERNARY])
def test_parse_images_key_each_table_word_by_its_blocks(rule):
    system = SubshiftSystem("s", Substitution(rule), "0")
    r, phases = system.recognizability()
    keyed = system.parse_images()
    ell = system.constant_length
    assert r * ell ** (len(keyed) - 1) <= words.PARSE_KEY_CAP < \
        r * ell ** len(keyed)
    assert keyed[0] == phases
    for table, images in zip(keyed, applied_powers(system.substitution)):
        assert table == {"".join(images[a] for a in w): start
                         for w, start in phases.items()}


@pytest.mark.parametrize("name", sorted(POWER_RULES))
def test_fixed_point_prefix_matches_iterated_apply(name):
    sub = Substitution(POWER_RULES[name])
    levels = applied_powers(sub)
    seeds = [a for a in sub.alphabet
             if sub.rule[a][0] == a and len(sub.rule[a]) > 1]
    assert seeds
    for seed in seeds:
        blocks = [images[seed] for images in levels]
        # length 1 and each level boundary +-1, up to LONGEST
        lengths = {1} | {len(b) + d for b in blocks if len(b) <= LONGEST
                         for d in (-1, 0, 1) if len(b) + d >= 1}
        for n in sorted(lengths):
            expected = next(b for b in blocks if len(b) >= n)[:n]
            assert fixed_point_prefix(sub, seed, n) == expected, (seed, n)


def scanned_level(system, m):
    """language(m) as the m-windows of its own prefix, scanned alone."""
    return frozenset(first_windows(system.test_word(max(PREFIX_MIN, 8 * m)),
                                   m))


def counting_scans(monkeypatch):
    """Patch words.first_windows to record the width of every scan."""
    widths = []

    def scan(word, width):
        widths.append(width)
        return first_windows(word, width)

    monkeypatch.setattr("minflow.words.first_windows", scan)
    return widths


def derived_level_cases():
    for order in ("ascending", "descending", "random"):
        for name in sorted(POWER_RULES):
            levels = list(range(1, 65))
            if order == "descending":
                levels.reverse()
            elif order == "random":
                random.Random(10).shuffle(levels)
            yield pytest.param(name, 64, levels, id="%s-%s" % (name, order))
    # a long derivation: every level below 520 comes from its one scan
    yield pytest.param("fibonacci", 600, [520], id="fibonacci-520")


@pytest.mark.parametrize("name,cap,levels", derived_level_cases())
def test_derived_levels_equal_the_per_level_scan(name, cap, levels,
                                                 monkeypatch):
    system = SubshiftSystem(name, Substitution(POWER_RULES[name]), "0")
    system.language_cap = cap
    widths = counting_scans(monkeypatch)
    for m in levels:
        system.language(m)
    # only a level requested above the built ones is scanned (once per
    # admissible 2-word); one below is the truncation of the nearest
    # built level above it, with no scan
    expected = [m for i, m in enumerate(levels) if m > max(levels[:i] or [0])]
    assert [m for m, _ in itertools.groupby(widths)] == expected
    monkeypatch.undo()
    for m in range(1, max(levels) + 1):
        assert system.language(m) == scanned_level(system, m), (name, m)


def test_language_is_exact_where_a_prefix_misses_words():
    system = SubshiftSystem("slow", Substitution(WITNESS), "0")
    assert len(system.language(12)) == 115
    assert len(system.language(64)) == 715
    assert system.is_admissible("110211102110")
    fixed = fixed_point_prefix(system.substitution, "0", 1 << 20)
    assert system.language(12) == frozenset(first_windows(fixed, 12))


@pytest.mark.parametrize("rule", random_primitive_rules(random.Random(13),
                                                        40), ids=repr)
def test_language_matches_a_long_prefix(rule):
    system = SubshiftSystem("random", Substitution(rule), "0")
    fixed = fixed_point_prefix(system.substitution, "0", 1 << 20)
    # one scan: each n-window of `fixed` begins a 32-window or lies in its
    # last 31 symbols (first_windows is slow on these words at small
    # widths)
    top = first_windows(fixed, 32)
    for n in (32, 20, 12, 8, 5, 3, 2, 1):
        windows = {w[:n] for w in top} | set(first_windows(fixed[-31:], n))
        assert system.language(n) == windows, n


def test_language_reads_no_fixed_point_prefix():
    for name in sorted(ORACLE_SYSTEMS):
        system = ORACLE_SYSTEMS[name]()
        system.language(64)
        assert system._prefix == {}, name


def invariant_cases():
    for name in sorted(ORACLE_SYSTEMS):
        yield pytest.param(ORACLE_SYSTEMS[name], id=name)
    yield pytest.param(lambda: SubshiftSystem(
        "slow", Substitution(WITNESS), "0"), id="witness")
    for rule in random_primitive_rules(random.Random(13), 40):
        yield pytest.param(lambda rule=rule: SubshiftSystem(
            "random", Substitution(rule), "0"), id=repr(rule))


@pytest.mark.parametrize("make", invariant_cases())
def test_language_levels_are_closed_extendable_and_monotone(make):
    # each level is scanned cold on its own system, so no level compared
    # here is the truncation of another
    levels = [make().language(m) for m in range(1, 65)]
    for shorter, longer in zip(levels, levels[1:]):
        # factor closure and extendability, on both sides
        assert {w[:-1] for w in longer} == shorter
        assert {w[1:] for w in longer} == shorter
        assert len(longer) >= len(shorter)


@pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
def test_a_cold_level_is_built_alone(name):
    system = ORACLE_SYSTEMS[name]()
    system.language(256)
    assert list(system._lang) == [256]
    assert system.language(3) == ORACLE_SYSTEMS[name]().language(3)
