"""Alphabets, finite words, substitutions and factor languages.

Words are plain Python strings over an alphabet of ASCII digits.  A
subshift is presented by a primitive substitution σ iterated from a
prolongable seed.  Its language is exact and reads no prefix of the
fixed point: level n is the set of n-windows of σ^k(a)σ^k(b) over the
admissible 2-words ab, once every σ^k(c) has n - 1 symbols or more
(Queffelec, Substitution Dynamical Systems, LNM 1294).  `first_windows`
collects them, jumping over stretches that repeat an earlier one.  Only
the level requested is built: from a level above it already built, by
truncation, and otherwise by that scan.

Iterated images come from `Substitution.powers`, which builds each level
σ^(j+1)(a) by joining the level-j images of the letters of σ(a), so no
Python loop runs once per symbol.  A system makes one such walk, its
tower of levels {a: σ^j(a)}, built only as far as a reader asks and kept
for its lifetime; every reader of iterated images reads it.

Admissibility of words longer than SHORT_WORD_LEN is decided exactly.
First occurrence: a word found in σ^j(seed) at the first level with
PREFIX_MIN symbols is a factor of the fixed point, so admissible.  Then,
when the images have one length ℓ and are pairwise distinct, the
desubstitution certificate: a word is admissible iff some phase of it is
valid, that is, it decomposes as (suffix of an image) + image of an
admissible word + (prefix of an image); the first valid phase ends the
search.  `valid_phases` lists them all for desubstitution and the
recognizability table that addresses read.  The block decoding table and
the block-id tables come from `dense_table`.  Every other system
reads the covers that build its language: an n-word is admissible iff it
occurs in σ^k(a) + σ^k(b)[:n - 1] for an admissible 2-word ab.

A system is one of two sibling classes; other modules read only this
protocol of either: `name`, `alphabet` (the digits 0..k-1, since the
kernels read symbol c as the digit ord(c) - 48; both constructors check
it), `language_cap`, `language(n)`, `is_admissible(word)`,
`test_word(length)`, `block_ids(radius, length)` (the test word's
windows as indices among the sorted admissible blocks, one byte each,
cached), `first_starts(width, length)` (the first starts of the test
word's distinct windows, cached), `is_letter_automorphism(table)` (the
one test of a letter map), `constant_length` (None unless all images
have one length ℓ) and `almost_automorphic`.
`SubshiftSystem` adds `substitution`, `seed`, `fixed_prefix` and
`complexity`; when the images have one length, `level_images` (the
tower's σ^j images up to a level); and, when they are also pairwise
distinct, `decode` (the full ℓ-blocks of a byte word, by one kernel
call), `valid_phases`, `recognizability` and `parse_images`; these raise
DomainError on any other system.
`FullShiftSystem`, the full shift, has the protocol alone.  Every layer
refuses a flip and a block structure by two helpers that read
`is_letter_automorphism` and `constant_length`: `refuse_unless_flip_commutes`
and `block_length`.
"""

import functools
import itertools

from . import kernels
from .errors import ConstructionError, DomainError, ResourceError

MAX_ALPHABET = 10
LANGUAGE_CAP = 256        # longest n the language cache will enumerate
SHORT_WORD_LEN = 64       # direct membership below, certificates above
PREFIX_MIN = 4096         # shortest seed image the occurrence check reads
RECOG_CAP = 64            # longest recognizability length searched for
BLOCK_CAP = 1 << 22       # symbols of a fixed-point prefix or level-k block
TABLE_CAP = 1 << 24       # entries (base ** width) of a dense kernel table
# longest R·ℓ^j of a level parse looked up whole: hashing the span costs
# about what matching its R blocks does near 4096-8192 symbols on Morse
# and period-doubling (BENCH_28), and more above
PARSE_KEY_CAP = 1 << 12
_PROBE = 8                # first_windows: symbols past a repeat worth a skip
_PROBE_GAP_CAP = 64       # first_windows: longest wait after a failed probe

FLIP = str.maketrans("01", "10")


def flip_word(word: str) -> str:
    return word.translate(FLIP)


def refuse_unless_flip_commutes(system):
    """DomainError unless the system's `is_letter_automorphism` proves
    the symbol flip an automorphism: the one raise site for a flip.  A
    flip that fails may still preserve the language, so the message says
    only what is proven."""
    if not system.is_letter_automorphism(FLIP):
        raise DomainError("%r: the symbol flip does not commute with its "
                          "substitution" % system.name)


def block_length(system, what):
    """The image length ℓ of a constant-length system; DomainError
    naming `what` (a plural) on any other."""
    if system.constant_length is None:
        raise DomainError("%s need a constant-length system, %r is not"
                          % (what, system.name))
    return system.constant_length


def pack_pair(a: str, b: str) -> str:
    """One character a[i] + 256*b[i] for each position of two equal-length
    words, so that the windows of the pair (a, b) are the windows of one
    string.

    The two words' ASCII bytes are interleaved into one buffer and read
    as UTF-16-LE: digit bytes lie below 0x80, so no unit is a surrogate.
    """
    buf = bytearray(2 * len(a))
    buf[0::2] = a.encode()
    buf[1::2] = b.encode()
    return buf.decode("utf-16-le")


def _over_alphabet(word: str, alphabet: str) -> bool:
    """Whether every symbol of `word` lies in `alphabet`."""
    return not word.translate(_deletion_table(alphabet))


@functools.lru_cache(maxsize=16)
def _deletion_table(alphabet):
    """The str.translate table that deletes the symbols of `alphabet`."""
    return dict.fromkeys(map(ord, alphabet))


def first_windows(word, width) -> dict:
    """Each distinct width-`width` window of `word` -> its first start.

    Keys come in order of first start; `word` may be a str or bytes.
    Repeats are skipped Lempel-Ziv style.  At a window n that already
    began at j < n, the probe compares the _PROBE symbols after both.
    When that fails, the probe span (the window and those symbols) is
    looked up among the spans of earlier failed probes, and a span that
    began at j < n is the source instead; otherwise n files its own.
    From a source j the longest common extension m of j and n is found
    by galloping and then halving on slice equality.  Every window
    inside that match equals one that starts earlier, so the walk jumps
    to n + m - width + 1.  Substitutive words repeat long stretches, so
    only a few positions per distinct window are sliced.  A failed probe
    delays the next one by a gap that doubles up to _PROBE_GAP_CAP, so
    that text with few long repeats (random words) costs little more
    than one slice per position.  Only a probe that succeeds from the
    first start resets the gap: a jump from a filed span follows a
    failed probe from the first start, so the next one is no likelier
    to succeed.

    The gallop's first step is the largest power of two s <= width (1
    for width 0), since the match already holds width + _PROBE symbols.
    It tries s, 2s, 4s, ... up to the first failing step S, and the
    halving then tries S/2, ..., 1, which settles every length below S;
    so m is exact whatever s is.
    """
    first = {}
    spans = {}
    last = len(word) - width
    n = probe_at = 0
    gap = 1
    while n <= last:
        for n in range(n, last + 1):
            window = word[n:n + width]
            if window not in first:
                first[window] = n
            elif n >= probe_at:
                j = first[window]
                tail = word[n + width:n + width + _PROBE]
                if word[j + width:j + width + _PROBE] == tail:
                    gap = 1
                    break
                # a span cut short by the end matches no earlier span,
                # which is longer
                j = spans.setdefault(window + tail, n)
                if j < n:
                    break
                probe_at = n + gap
                gap = min(2 * gap, _PROBE_GAP_CAP)
        else:
            break
        # a slice running past the end is short, so it never compares equal
        m, step = width + _PROBE, 1 << max(width.bit_length() - 1, 0)
        while word[j + m:j + m + step] == word[n + m:n + m + step]:
            m += step
            step *= 2
        while step > 1:
            step //= 2
            if word[j + m:j + m + step] == word[n + m:n + m + step]:
                m += step
        n += m - width + 1
    return first


class Substitution:
    """A map from symbols to nonempty words over a digit alphabet."""

    def __init__(self, rule: dict):
        alphabet = "".join(sorted(rule))
        if not alphabet:
            raise DomainError("empty alphabet")
        if len(alphabet) > MAX_ALPHABET:
            raise DomainError("alphabet capped at %d symbols" % MAX_ALPHABET)
        for sym, image in rule.items():
            if len(sym) != 1 or sym not in "0123456789":
                raise DomainError("symbols must be single ASCII digits, got %r" % sym)
            if not image:
                raise DomainError("empty image for symbol %r" % sym)
            for c in image:
                if c not in rule:
                    raise DomainError("image symbol %r outside alphabet" % c)
        self.alphabet = alphabet
        self.rule = dict(rule)

    def apply(self, word: str) -> str:
        rule = self.rule
        try:
            return "".join(rule[c] for c in word)
        except KeyError as exc:
            raise DomainError("symbol %s outside alphabet" % exc) from None

    def powers(self):
        """Yield {a: σ^j(a)} for j = 0, 1, 2, ..., without end.

        Each level is built by concatenation: σ^(j+1)(a) is the join of
        σ^j(b) over the letters b of σ(a), so a level costs one join per
        letter of the rule, whatever the image lengths.
        """
        images = {a: a for a in self.alphabet}
        while True:
            yield images
            images = {a: "".join([images[b] for b in img])
                      for a, img in self.rule.items()}

    @property
    def constant_length(self):
        """The common image length, or None if images vary."""
        lens = {len(v) for v in self.rule.values()}
        return lens.pop() if len(lens) == 1 else None

    @property
    def is_primitive(self) -> bool:
        # some power of the incidence relation is strictly positive;
        # Wielandt: index <= (n-1)^2 + 1 suffices
        syms = self.alphabet
        reach = {a: frozenset(self.rule[a]) for a in syms}
        full = frozenset(syms)
        for _ in range((len(syms) - 1) ** 2 + 1):
            if all(reach[a] == full for a in syms):
                return True
            reach = {a: frozenset().union(*(reach[b] for b in reach[a]))
                     for a in syms}
        return all(reach[a] == full for a in syms)

    def __repr__(self):
        body = ",".join("%s->%s" % kv for kv in sorted(self.rule.items()))
        return "Substitution(%s)" % body


def _digit_alphabet(alphabet):
    """`alphabet` if it is the digits 0..k-1 in order, else DomainError."""
    if not alphabet or alphabet != "0123456789"[:len(alphabet)]:
        raise DomainError("alphabet must be the digits 0..k-1 for some "
                          "k <= %d, got %r" % (MAX_ALPHABET, alphabet))
    return alphabet


def block_code(block, base):
    """The index of a block in a dense table: its base-`base` value."""
    code = 0
    for c in block:
        code = code * base + (ord(c) - 48)
    return code


def dense_table(entries, base, width, what):
    """A kernel table of the width-`width` blocks, 0xFF but for ord(out)
    at each (block, out) of `entries`; ResourceError over TABLE_CAP."""
    size = base ** width
    if size > TABLE_CAP:
        raise ResourceError("%s of %d^%d entries, over the cap %d"
                            % (what, base, width, TABLE_CAP))
    table = bytearray(b"\xff" * size)
    for block, out in entries:
        table[block_code(block, base)] = ord(out)
    return table


def fixed_point_prefix(sub: Substitution, seed: str, n: int) -> str:
    """`SubshiftSystem.fixed_prefix` from a walk of its own: its reference."""
    _refuse_prefix(sub, seed, n)
    for images in sub.powers():
        if len(images[seed]) >= n:
            return images[seed][:n]


def _refuse_prefix(sub, seed, n):
    """Refuse a fixed-point prefix of n symbols unless 1 <= n <= BLOCK_CAP
    and rule(seed) begins with seed and is longer (prolongable)."""
    if n < 1:
        raise DomainError("prefix length must be >= 1")
    if n > BLOCK_CAP:
        raise ResourceError("fixed-point prefix of %d symbols, over the cap "
                            "%d" % (n, BLOCK_CAP))
    image = sub.rule.get(seed)
    if image is None:
        raise DomainError("seed %r outside alphabet" % seed)
    if image[0] != seed or len(image) < 2:
        raise ConstructionError("seed %r is not prolongable" % seed)


def refuse_over_block_cap(ell, k):
    """ResourceError when a level-k block, ℓ^k symbols, exceeds BLOCK_CAP.

    Past the cap's bit length, ℓ^k > BLOCK_CAP for every ℓ >= 2, so the
    capped power decides without building ℓ^k."""
    if ell ** min(k, BLOCK_CAP.bit_length()) > BLOCK_CAP:
        raise ResourceError("level-%d blocks exceed cap" % k)


def id_blocks(system, radius):
    """The admissible (2r+1)-blocks of `system`, sorted: the blocks that
    one-byte ids name.  A byte names at most 255 blocks (0xFF is the
    kernels' unset entry), so more raise ResourceError."""
    width = 2 * radius + 1
    blocks = sorted(system.language(width))
    if len(blocks) > kernels.UNSET:
        raise ResourceError("%d admissible %d-blocks, over the %d that "
                            "one-byte block ids name"
                            % (len(blocks), width, kernels.UNSET), partial=[])
    return blocks


class _System:
    """What the two system classes share: the block ids of their test
    words and the first starts of their windows."""

    def first_starts(self, width, length):
        """The first start of each distinct width-window of
        `test_word(length)`, in increasing order: one `first_windows`
        scan, made on first request and cached."""
        got = self._starts.get((width, length))
        if got is None:
            got = self._starts[width, length] = tuple(
                first_windows(self.test_word(length), width).values())
        return got

    def block_ids(self, radius, length):
        """(blocks, ids): the admissible (2r+1)-blocks, sorted, and one
        byte per window of `test_word(length)`, the index of its block
        among them.

        Built by one kernel call on first request and cached.  Over 255
        blocks raise ResourceError (`id_blocks`); a test word shorter
        than the window raises DomainError.
        """
        got = self._ids.get((radius, length))
        if got is None:
            width = 2 * radius + 1
            blocks = id_blocks(self, radius)
            word = self.test_word(length)
            if len(word) < width:
                raise DomainError("word shorter than the code window")
            table = dense_table(((b, chr(i)) for i, b in enumerate(blocks)),
                                len(self.alphabet), width,
                                "a radius-%d code needs a rule table"
                                % radius)
            got = self._ids[radius, length] = (blocks, kernels.apply_rule(
                word.encode(), radius, bytes(table), len(self.alphabet)))
        return got


class SubshiftSystem(_System):
    """A named substitution subshift with a cached factor language.

    Each language level is built once, on first request, and then
    shared read-only.
    """

    def __init__(self, name, substitution, seed, almost_automorphic=False):
        self.alphabet = _digit_alphabet(substitution.alphabet)
        if not substitution.is_primitive:
            raise ConstructionError("substitution %r is not primitive" % substitution)
        self.name = name
        self.substitution = substitution
        self.constant_length = substitution.constant_length
        # the block parse needs images of one length that name their letter
        rule = substitution.rule
        self._block_parse = (self.constant_length is not None
                             and len(set(rule.values())) == len(rule))
        # the admissible 2-words, which the covers read: the 2-factors of
        # the images, closed under ab -> the 2-factors of σ(a)σ(b)
        self._two, todo = set(), list(rule.values())
        while todo:
            word = todo.pop()
            found = {word[i:i + 2] for i in range(len(word) - 1)} - self._two
            self._two |= found
            todo += [rule[a] + rule[b] for a, b in found]
        self.seed = seed
        self.language_cap = LANGUAGE_CAP
        self.almost_automorphic = almost_automorphic
        self._lang = {}
        self._ids = {}
        self._starts = {}
        self._recog = None
        self._decode = None
        self._walk = substitution.powers()
        self._levels = []
        self._seed_image = None
        self._parse_images = None
        _refuse_prefix(substitution, seed, 2)  # validate prolongable now

    # -- the tower of iterated images --------------------------------

    def _level(self, j):
        """{a: σ^j(a)}: level j of the tower, built only as far as asked."""
        levels = self._levels
        while len(levels) <= j:
            levels.append(next(self._walk))
        return levels[j]

    def _first_level(self, n, letters):
        """The first level where σ^j(a) has n symbols or more, a in letters."""
        for images in map(self._level, itertools.count()):
            if all(len(images[a]) >= n for a in letters):
                return images

    def fixed_prefix(self, seed: str, n: int) -> str:
        """First n symbols of the fixed point grown from `seed`, refused as
        `_refuse_prefix` says: σ^j(seed) cut to n, at the top level if long
        enough (σ^j(seed) begins σ^(j+1)(seed)), else the first that is."""
        _refuse_prefix(self.substitution, seed, n)
        top = self._levels[-1][seed] if self._levels else ""
        return (top if len(top) >= n else self._first_level(n, seed)[seed])[:n]

    def test_word(self, length: int) -> str:
        """A generated admissible word of the given length (orbit prefix);
        empty for a length below 1, as on the full shift."""
        return self.fixed_prefix(self.seed, length) if length > 0 else ""

    def language(self, n: int) -> frozenset:
        """Exactly the admissible words of length n, as a frozenset.

        Only level n is built and stored, on first request: as the
        prefixes of the nearest level above it already built, or else
        read off the images of the admissible 2-words."""
        if n < 1:
            raise DomainError("language length must be >= 1")
        if n > self.language_cap:
            raise ResourceError("language(%d) exceeds cap %d"
                                % (n, self.language_cap))
        got = self._lang.get(n)
        if got is None:
            got = self._lang[n] = self._build_language(n)
        return got

    def _build_language(self, n):
        # every word extends to the right, so a level is the set of
        # prefixes of any level above it
        above = [m for m in self._lang if m > n]
        if above:
            return frozenset({w[:n] for w in self._lang[min(above)]})
        top = set()
        for cover in self._covers(n):
            top.update(first_windows(cover, n))
        return frozenset(top)

    def _covers(self, n):
        """σ^k(a) + σ^k(b)[:n - 1] for each admissible 2-word ab, at the
        first k where every σ^k(c) has n - 1 symbols or more: each
        admissible n-word starts inside σ^k(a) in one of them."""
        images = self._first_level(n - 1, self.alphabet)
        return (images[a] + images[b][:n - 1] for a, b in self._two)

    def level_images(self, top):
        """[{a: σ^j(a)} for j = 0..top]: the tower's level-j blocks of a
        constant-length system, at most 2·|A|·ℓ^top symbols (16 MB for
        Morse at level 22).  ResourceError before any level is built when
        level-top blocks exceed BLOCK_CAP symbols; DomainError on others."""
        ell = block_length(self, "level images")
        if len(self._levels) <= top:
            refuse_over_block_cap(ell, top)
            self._level(top)
        return self._levels[:top + 1]

    def parse_images(self):
        """({σ^j(w): start} for j = 0, 1, ...): each word w of the
        recognizability table, keyed by its level-j blocks, to the start
        of its one valid phase.  A key has R·ℓ^j symbols, so the levels
        run while that is at most PARSE_KEY_CAP.  Built at first use."""
        if self._parse_images is None:
            r, phases = self.recognizability()
            self._parse_images = tuple(
                {"".join([images[a] for a in w]): start
                 for w, start in phases.items()}
                for images in itertools.takewhile(
                    lambda images: r * len(images[self.seed]) <= PARSE_KEY_CAP,
                    map(self._level, itertools.count())))
        return self._parse_images

    def complexity(self, n: int) -> int:
        return len(self.language(n))

    # -- admissibility -----------------------------------------------

    def is_admissible(self, word: str) -> bool:
        """True iff `word` is a factor of the subshift's language."""
        if word == "":
            return True
        if not _over_alphabet(word, self.alphabet):
            return False
        return self._admissible_by_parse(word)

    def _admissible_by_parse(self, word):
        if len(word) <= min(SHORT_WORD_LEN, self.language_cap):
            return word in self.language(len(word))
        if word in self._seed_prefix():
            return True
        if not self._block_parse:
            return any(word in cover for cover in self._covers(len(word)))
        # the constructor makes ℓ >= 2, so a preimage of an n-word has at
        # most n/2 + 2 symbols and the recursion is about log2 n deep
        return next(self._phases(word), None) is not None

    def _seed_prefix(self):
        """σ^j(seed) at the first level with PREFIX_MIN symbols, found
        once: the occurrence check runs at every level of every parse."""
        if self._seed_image is None:
            self._seed_image = self._first_level(
                PREFIX_MIN, self.seed)[self.seed]
        return self._seed_image

    def _refuse_unless_block_parse(self):
        if not self._block_parse:
            raise DomainError("%r has no block parse: its images are not "
                              "of one length and pairwise distinct"
                              % self.name)

    def _block_decode_table(self):
        """image block -> letter, as a dense kernel table."""
        if self._decode is None:
            self._refuse_unless_block_parse()
            self._decode = bytes(dense_table(
                ((img, a) for a, img in self.substitution.rule.items()),
                len(self.alphabet), self.constant_length,
                "%r needs a block decoding table" % self.name))
        return self._decode

    def decode(self, raw: bytes, start: int) -> bytes:
        """The letters of the full ℓ-blocks of the byte word `raw` from
        `start` on, by one kernel call; ValueError, naming no block, when
        one of them is not an image."""
        return kernels.decode_blocks(raw, start, self.constant_length,
                                     self._block_decode_table(),
                                     len(self.alphabet))

    def valid_phases(self, word):
        """(start, core) of each valid phase of `word`, none if a symbol
        lies outside the alphabet; DomainError for the empty word, and
        unless the images have one length ℓ and are pairwise distinct."""
        self._refuse_unless_block_parse()
        if not word:
            raise DomainError("the empty word has no phase to desubstitute")
        if not _over_alphabet(word, self.alphabet):
            return []
        return list(self._phases(word))

    def _phases(self, word):
        """Yield (start, core), in order of start, for each phase of the
        nonempty word `word` over the alphabet whose full blocks decode
        and whose cut edge blocks complete to an admissible preimage.

        The first full block begins at `start`, so position 0 of `word`
        sits at offset (-start) mod ℓ of its block, and `core` decodes the
        full blocks by one kernel call.  A start past the end of `word`
        puts all of it inside one block at offset ℓ - start.
        """
        ell = self.constant_length
        rule = self.substitution.rule
        raw = word.encode()
        n = len(word)
        for start in range(ell):
            if start > n:
                # every letter is admissible, as σ is primitive
                if any(rule[a][ell - start:ell - start + n] == word
                       for a in self.alphabet):
                    yield start, ""
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
            if any(self._admissible_by_parse(l + core + r)
                   for l in lefts for r in rights):
                yield start, core

    def recognizability(self):
        """(R, phases): the recognizability length R, and the start of the
        one valid phase of each admissible word of length R.

        R is the least n at which every admissible n-word has exactly one
        valid phase, over the exact language.  Found at first use and
        cached.  With no R <= RECOG_CAP: DomainError when the complexity
        p(n) = p(n + 1) for some n < RECOG_CAP, which proves the system
        periodic (Morse-Hedlund), so that no R exists; else ResourceError.
        """
        if self._recog is None:
            for n in range(1, RECOG_CAP + 1):
                phases = {}
                for w in self.language(n):
                    valid = self.valid_phases(w)
                    if len(valid) != 1:
                        break
                    phases[w] = valid[0][0]
                else:
                    self._recog = (n, phases)
                    break
            else:
                for n in range(1, RECOG_CAP):
                    if self.complexity(n) == self.complexity(n + 1):
                        raise DomainError(
                            "%r is periodic: its complexity is %d at "
                            "lengths %d and %d, so it has no "
                            "recognizability length"
                            % (self.name, self.complexity(n), n, n + 1))
                raise ResourceError("no recognizability length <= %d for %r"
                                    % (RECOG_CAP, self.name))
        return self._recog

    def is_letter_automorphism(self, table) -> bool:
        """Whether the letter map g of the str.translate `table` permutes
        the alphabet and commutes with σ: g(σ(a)) = σ(g(a)) for each a.

        Then g maps σ^n(a) to σ^n(g(a)) for every n, by induction, so it
        maps each admissible word (a factor of some σ^n(a)) to one, and
        each finite language level one-to-one onto itself: g is a
        radius-0 automorphism (Coven, Quas and Yassawi 2016; Lemańczyk
        and Mentzen 1988).  O(Σ|σ(a)|), reading no language.  False says
        only that g does not commute: commuting suffices for an
        automorphism, but is not necessary.
        """
        images = [a.translate(table) for a in self.alphabet]
        rule = self.substitution.rule
        return sorted(images) == list(self.alphabet) and all(
            rule[a].translate(table) == rule[b]
            for a, b in zip(self.alphabet, images))

    def __repr__(self):
        return "SubshiftSystem(%r)" % self.name


class FullShiftSystem(_System):
    """The full shift over a digit alphabet (synthetic test system).

    Not substitutive; every word is admissible.  Used as a foil for
    coalescence checks (it has non-invertible endomorphisms).
    """

    def __init__(self, alphabet="01"):
        self.name = "full-shift-%s" % alphabet
        self.alphabet = _digit_alphabet("".join(sorted(alphabet)))
        self.language_cap = 24
        self.constant_length = None
        self.almost_automorphic = False
        self._lang = {}
        self._ids = {}
        self._starts = {}

    def language(self, n):
        if n < 1:
            raise DomainError("language length must be >= 1")
        if n > self.language_cap or len(self.alphabet) ** n > 1 << 22:
            raise ResourceError("language(%d) exceeds cap" % n)
        got = self._lang.get(n)
        if got is None:
            got = frozenset("".join(t) for t in
                            itertools.product(self.alphabet, repeat=n))
            self._lang[n] = got
        return got

    def is_admissible(self, word):
        return _over_alphabet(word, self.alphabet)

    def is_letter_automorphism(self, table):
        """Whether `table` permutes the alphabet: every permutation maps
        the full shift's language onto itself."""
        return sorted(a.translate(table) for a in self.alphabet) == \
            list(self.alphabet)

    def test_word(self, length):
        # a de Bruijn cycle of order ~log covers every short block
        k = len(self.alphabet)
        order = 1
        while k ** order < length:
            order += 1
        order = min(order + 1, 16)
        seq = _de_bruijn(self.alphabet, order)
        reps = length // len(seq) + 2
        return (seq * reps)[:max(length, 0)]


@functools.lru_cache(maxsize=16)
def _de_bruijn(alphabet, order):
    """Standard de Bruijn sequence B(k, order) as a string, built once
    per alphabet and order."""
    k = len(alphabet)
    a = [0] * k * order
    seq = []

    def db(t, p):
        if t > order:
            if order % p == 0:
                seq.extend(a[1:p + 1])
        else:
            a[t] = a[t - p]
            db(t + 1, p)
            for j in range(a[t - p] + 1, k):
                a[t] = j
                db(t + 1, t)

    db(1, 1)
    s = "".join(alphabet[i] for i in seq)
    return s + s[:order - 1]


# -- registry ---------------------------------------------------------

def thue_morse():
    return SubshiftSystem("morse", Substitution({"0": "01", "1": "10"}), "0")


def fibonacci():
    return SubshiftSystem("fibonacci", Substitution({"0": "01", "1": "0"}), "0",
                          almost_automorphic=True)


def period_doubling():
    return SubshiftSystem("period-doubling",
                          Substitution({"0": "01", "1": "00"}), "0",
                          almost_automorphic=True)


REGISTRY = {
    "morse": thue_morse,
    "fibonacci": fibonacci,
    "period-doubling": period_doubling,
}

_instances = {}


def get_system(name: str) -> SubshiftSystem:
    """Shared instance of a built-in system (language caches are reused)."""
    if name not in REGISTRY:
        raise DomainError("unknown system %r (known: %s)"
                          % (name, ", ".join(sorted(REGISTRY))))
    if name not in _instances:
        _instances[name] = REGISTRY[name]()
    return _instances[name]
