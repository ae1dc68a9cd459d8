"""Factor structure over the ℓ-adic odometer.

Desubstitution parses a window of a constant-length-ℓ subshift uniquely
into substitution blocks once the window reaches the system's
recognizability length; iterating the parse assigns every point a string
of ℓ-adic digits (the odometer address, least significant first), which
realizes the maximal equicontinuous factor map; each level's phase is
looked up in the system's recognizability table.  A level-k address
fetches exactly the window its k parses read, (R+1)·ℓ^(k-1) - 1
symbols around coordinate 0 for recognizability length R, and matches
of each level only the R blocks its parse reads, and the few at the
window's ends, against the system's cached level images; every other
block is checked by the level above it.  The caps on windows and blocks
refuse a level before ℓ^k is built.  The fiber census reconstructs
which centered windows are compatible with a given address, and word
frequencies realize the invariant-measure checks.
"""

from typing import NamedTuple

from .errors import (AmbiguityError, DomainError, IntegrityError,
                     NoParseError, ResourceError)
from .points import HORIZON_CAP, AddressPoint, ShiftedPoint
from .words import FLIP, block_length, flip_word, refuse_over_block_cap

# most censuses one sample draws: each keeps its record until the end
SAMPLE_CAP = 10_000


class _AddressFields(NamedTuple):
    digits: tuple
    base: int


class OdometerAddress(_AddressFields):
    """Level-k digit string of the base-ℓ odometer, lsb first."""

    __slots__ = ()

    def __new__(cls, digits, base=2):
        if any(d < 0 or d >= base for d in digits):
            raise DomainError("digits out of range for base %d" % base)
        return super().__new__(cls, digits, base)

    @property
    def level(self):
        return len(self.digits)

    def to_int(self) -> int:
        return sum(d * self.base ** j for j, d in enumerate(self.digits))

    @classmethod
    def from_int(cls, value, level, base=2):
        value %= base ** level
        digits = []
        for _ in range(level):
            digits.append(value % base)
            value //= base
        return cls(tuple(digits), base)

    def plus(self, m: int) -> "OdometerAddress":
        """Add-one iterated: (self + m) mod base^level."""
        return self.from_int(self.to_int() + m, self.level, self.base)

    def truncate(self, j: int) -> "OdometerAddress":
        if j > self.level:
            raise DomainError("cannot truncate level %d to %d" % (self.level, j))
        return OdometerAddress(self.digits[:j], self.base)

    def digit_string(self) -> str:
        return "".join(str(d) for d in self.digits)

    def __str__(self):
        return self.digit_string()


# -- desubstitution ----------------------------------------------------

def recognizability_length(system) -> int:
    """Smallest n such that every admissible length-n word parses uniquely.

    Exact, since it is read off the exact language; found at first use
    and cached by the system (see `SubshiftSystem.recognizability`).
    """
    return system.recognizability()[0]


def desubstitute(system, word: str):
    """Unique parse of `word` into substitution ℓ-blocks.

    Returns (preimage of the full blocks, d), where position 0 of `word`
    sits at offset d of its block.
    """
    ell = block_length(system, "desubstitutions")
    valid = [(-start % ell, core) for start, core in system.valid_phases(word)]
    if not valid:
        raise NoParseError("%r has no substitution parse" % word)
    if len(valid) > 1:
        raise AmbiguityError(
            "%r parses at offsets %s; window below recognizability length %d"
            % (word, sorted(d for d, _ in valid),
               recognizability_length(system)))
    offset, core = valid[0]
    return core, offset


# -- addresses ---------------------------------------------------------

def address(system, point, k: int) -> OdometerAddress:
    """Level-k odometer address of `point`, read off its windows.

    digit j is the phase offset of coordinate 0 at desubstitution level
    j, read off the one valid phase of the recognizability-length word
    of level-j letters that starts h letters to its left; shifting the
    point by one advances the address by one with carry.

    The window fetched is exactly what the k parses read.  Let R be the
    recognizability length, h = R // 2 and B = ℓ^(k-1).  Level j parses
    R level-j blocks: the one that holds coordinate 0, which starts
    between -(ℓ^j - 1) and 0, the h blocks left of it and the R - h - 1
    right of it.  Level-j blocks tile each level-(k-1) block, so every
    level reads inside the R level-(k-1) blocks that level k-1 reads,
    and the window [-((h+1)·B - 1), (R-h)·B - 1] of (R+1)·B - 1 symbols
    holds them at every offset of coordinate 0.  Its left end is read
    when the level-(k-1) block of coordinate 0 starts at -(B - 1), its
    right end when that block starts at 0, so no narrower window serves
    every point.  A symbol past these bounds would be checked and never
    read, so the window has no floor.

    No level is decoded whole.  The level-j blocks are the full
    ℓ^j-blocks of the window from s_j, where s_0 = 0 and s_(j+1) is the
    start of the level-(j+1) block of coordinate 0 (the level-j one less
    digit j blocks), taken mod ℓ^(j+1): arithmetic on the digits.  The
    parse of level j reads only its R blocks.  While R·ℓ^j <=
    PARSE_KEY_CAP, where hashing the span is cheaper than matching its
    blocks one by one, their span is looked up whole among the level-j
    images of the recognizability table's words
    (`SubshiftSystem.parse_images`); otherwise, or to name the fault
    when that lookup misses, the letter of the block at p is the a with
    `word.startswith(σ^j(a), p)`, one memcmp against the cached image
    (`SubshiftSystem.level_images`).
    Yet every level-j block, for 1 <= j <= k-1, is still checked to be
    the image of a letter, as a level-by-level decode checks it:
    - at level k-1 the R parsed blocks are that level's whole word,
      since the window holds exactly R full level-(k-1) blocks;
    - at each level 1 <= j <= k-2, the leading level-j blocks before
      s_(j+1) and the trailing ones after the last full level-(j+1)
      block are matched directly;
    - every other level-j block lies inside a level-(j+1) block that is
      checked, by induction down from level k-1.  Its image σ^(j+1)(a)
      is the concatenation of σ^j(b) over the letters b of σ(a), and σ^j
      is injective on words of one length (its images have one length
      and are pairwise distinct), so the level-j blocks inside it are
      the images of those letters, and their letters are the ones a
      decode would give.  The same injectivity makes a span found whole
      the images of the R letters of its word.
    Level-0 blocks are symbols, which only the parses read.
    A block that is not an image raises IntegrityError naming its level
    and coordinate.
    """
    ell = block_length(system, "addresses")
    if k < 0:
        raise DomainError("levels must be >= 0")
    if k == 0:
        return OdometerAddress((), ell)
    r, phases = system.recognizability()
    h = r // 2
    # past the cap's bit length, ℓ^(k-1) alone puts the window beyond
    # HORIZON_CAP, so `point.window` refuses the capped power just as it
    # would refuse the full one, and ℓ^(k-1) is never built
    block = ell ** min(k - 1, HORIZON_CAP.bit_length())
    zero = here = (h + 1) * block - 1
    word = point.window(-here, (r - h) * block - 1)
    first, end = 0, len(word)
    levels = system.level_images(k - 1) if k > 1 else ()
    keyed = system.parse_images()
    digits = []
    # at level j: blocks of `size` = ℓ^j symbols, the full ones spanning
    # [first, end) of the window, the one of coordinate 0 at `here`
    size = 1
    for j in range(k):
        at = here - h * size
        if at < 0 or at + r * size > len(word):
            raise AmbiguityError(
                "window too short to determine digit at level %d" % j,
                level=j)
        # keyed[0] is the recognizability table itself
        start = None
        if j < len(keyed):
            start = keyed[j].get(word[at:at + r * size])
        if start is None and j:
            start = phases.get(_letters(
                word, range(at, at + r * size, size), levels[j], j, zero))
        if start is None:
            raise IntegrityError("point window has no parse at level %d" % j)
        digit = (h - start) % ell
        digits.append(digit)
        if j + 1 == k:
            break
        here -= digit * size
        below, size = size, size * ell
        nfirst = here % size
        nend = len(word) - (len(word) - nfirst) % size
        if j and (nfirst > first or nend < end):
            # the blocks before the next level's first full block and
            # after its last one
            _letters(word, (*range(first, nfirst, below),
                            *range(nend, end, below)), levels[j], j, zero)
        first, end = nfirst, nend
    return OdometerAddress(tuple(digits), ell)


def _letters(word, positions, images, level, zero):
    """The letters of the level-`level` blocks of `word` at `positions`:
    for each, the a with `word.startswith(σ^level(a), p)`, `images`
    being the level's {a: σ^level(a)}.  IntegrityError at a block that
    is no image, naming its coordinate (`word` holds coordinate 0 at
    position `zero`)."""
    starts = word.startswith
    out = []
    for p in positions:
        for a, image in images.items():
            if starts(image, p):
                out.append(a)
                break
        else:
            raise IntegrityError(
                "point window has a level-%d block at coordinate %d that "
                "is no letter's image" % (level, p - zero))
    return "".join(out)


def point_address(point, k: int) -> OdometerAddress:
    """Address of a point: an address point's digits, or a shift of
    one's, at the levels it determines, else the window parse.  A flipped
    point is a point of its own kind (an address point's flip keeps its
    digits), and shifts collapse, so one shift at most wraps the base."""
    shift, base = ((point.k, point.base) if isinstance(point, ShiftedPoint)
                   else (0, point))
    if isinstance(base, AddressPoint) and base.level >= k:
        return OdometerAddress.from_int(base.offset + shift, k,
                                        base.system.constant_length)
    return address(point.system, point, k)


# -- fiber census ------------------------------------------------------

class FiberCensus(NamedTuple):
    address: OdometerAddress
    level: int
    resolution: int
    windows: tuple
    cardinality: int
    quotient_cardinality: object   # None when flip is not a system map
    stabilized: bool

    def to_json(self):
        return {
            "address": self.address.digit_string(),
            "level": self.level,
            "resolution": self.resolution,
            "windows": list(self.windows),
            "cardinality": self.cardinality,
            "quotient_cardinality": self.quotient_cardinality,
            "stabilized": self.stabilized,
        }


def census_address(system, digits) -> OdometerAddress:
    """`digits` as an address of the system's odometer, in its base ℓ."""
    return OdometerAddress(tuple(digits),
                           block_length(system, "fiber censuses"))


def fiber_census(system, addr: OdometerAddress, resolution: int) -> FiberCensus:
    """Stabilized set of centered (2L+1)-windows compatible with `addr`.

    At level j the window is cut from the image of an admissible word
    spanning the level-j blocks that cover [-L, L] around the addressed
    position; the census is the set of distinct cuts.  Each cut joins
    only what it keeps: the tail of the first block's image from the
    cut, the middle images whole and the head of the last one.
    Cardinality is nonincreasing in the level; `stabilized` records that
    the last two levels agree.
    """
    ell = block_length(system, "fiber censuses")
    if addr.base != ell:
        raise DomainError("address in base %d, the odometer of %r has base "
                          "%d" % (addr.base, system.name, ell))
    k = addr.level
    if k < 1:
        raise DomainError("census needs at least one digit")
    if resolution < 0:
        raise DomainError("resolution must be >= 0, got %r" % (resolution,))
    L = resolution
    levels = []
    for j, images in enumerate(system.level_images(k)[1:], 1):
        block = ell ** j
        rj = addr.truncate(j).to_int()
        t0 = (rj - L) // block
        t1 = (rj + L) // block
        span = t1 - t0 + 1
        cut = rj - L - t0 * block
        stop = rj + L + 1 - t1 * block   # symbols kept of the last image
        if span == 1:
            wins = frozenset(images[c][cut:stop]
                             for c in system.language(1))
        else:
            wins = frozenset(
                images[v[0]][cut:] + "".join([images[c] for c in v[1:-1]])
                + images[v[-1]][:stop] for v in system.language(span))
        if levels and len(wins) > len(levels[-1]):
            raise IntegrityError("census cardinality increased at level %d" % j)
        levels.append(wins)
    final = levels[-1]
    stabilized = len(levels) >= 2 and levels[-1] == levels[-2]
    if system.is_letter_automorphism(FLIP):
        quotient = len({frozenset((w, flip_word(w))) for w in final})
    else:
        quotient = None
    return FiberCensus(addr, k, L, tuple(sorted(final)), len(final),
                       quotient, stabilized)


def sample_censuses(system, count, levels, resolution, seed):
    """Fiber censuses of `count` addresses of `levels` digits, each digit
    drawn below ℓ by `random.Random(seed)`, in order; ResourceError over
    SAMPLE_CAP censuses."""
    import random
    rng = random.Random(seed)
    ell = block_length(system, "fiber censuses")
    # refused before any digit is drawn
    if count > SAMPLE_CAP:
        raise ResourceError("%d censuses exceed cap %d" % (count, SAMPLE_CAP))
    refuse_over_block_cap(ell, levels)
    return [fiber_census(system, census_address(
                system, (rng.randrange(ell) for _ in range(levels))),
                         resolution)
            for _ in range(count)]


# -- word frequencies --------------------------------------------------

class FrequencyTable(NamedTuple):
    system_name: str
    length: int
    steps: int
    counts: tuple   # ((word, count), ...) sorted lexicographically

    def frequency(self, word):
        from fractions import Fraction
        return Fraction(dict(self.counts).get(word, 0), self.steps)

    def to_tsv(self) -> str:
        lines = ["%s\t%d\t%.6f" % (w, c, c / self.steps)
                 for w, c in self.counts]
        return "\n".join(lines) + "\n"

    def to_json(self):
        return {
            "system": self.system_name,
            "length": self.length,
            "steps": self.steps,
            "words": [{"word": w, "count": c, "total": self.steps,
                       "frequency": "%.6f" % (c / self.steps)}
                      for w, c in self.counts],
        }


def word_frequencies(system, n: int, steps: int) -> FrequencyTable:
    """Empirical frequency of every admissible length-n word along a
    generated orbit prefix of length steps + n."""
    if n < 1 or steps < 1:
        raise DomainError("need n >= 1 and steps >= 1")
    prefix = system.test_word(steps + n)
    if len(prefix) != steps + n:
        # a short prefix would count truncated words near its end
        raise IntegrityError("test word has length %d, not %d"
                             % (len(prefix), steps + n))
    counts = {}
    for i in range(steps):
        w = prefix[i:i + n]
        counts[w] = counts.get(w, 0) + 1
    return FrequencyTable(system.name, n, steps, tuple(sorted(counts.items())))
