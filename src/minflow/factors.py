"""Factor structure over the ℓ-adic odometer.

Desubstitution parses a window of a constant-length-ℓ subshift uniquely
into substitution blocks once the window reaches the system's
recognizability length; iterating the parse assigns every point a string
of ℓ-adic digits (the odometer address, least significant first), which
realizes the maximal equicontinuous factor map; each level's phase is
looked up in the system's recognizability table.  A level-k address
fetches exactly the window its k parses read, (R+1)·ℓ^(k-1) - 1
symbols around coordinate 0 for recognizability length R.  The caps on
windows and blocks refuse a level before ℓ^k is built.  The fiber census
reconstructs which centered windows are compatible with a given address,
and word frequencies realize the invariant-measure checks.
"""

from typing import NamedTuple

from .errors import (AmbiguityError, DomainError, IntegrityError,
                     NoParseError, ResourceError)
from .points import HORIZON_CAP, AddressPoint, FlippedPoint, ShiftedPoint
from .words import BLOCK_CAP, block_length, flip_word

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
    j, read off the one valid phase of the recognizability-length window
    that starts h symbols to its left; shifting the point by one
    advances the address by one with carry.

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
    every point.  Each level keeps only the full blocks of the word
    below it.  The word of level k-1 is those R blocks alone, so it is
    not decoded further: no parse reads the result, and it may hold no
    full level-k block.  A symbol past these bounds would be decoded and
    never read, so the window has no floor.
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
            raise IntegrityError("point window has no parse at level %d" % j)
        digit = (h - start) % ell
        digits.append(digit)
        if j + 1 < k:
            start = (origin - digit) % ell
            word = system.decode(word, start)
            origin = (origin - digit - start) // ell
    return OdometerAddress(tuple(digits), ell)


def point_address(point, k: int) -> OdometerAddress:
    """Address of a point, using construction digits when the window
    parse cannot reach level k (partial address-constructed points)."""
    shift = 0
    base = point
    while True:
        if isinstance(base, ShiftedPoint):
            shift += base.k
            base = base.base
        elif isinstance(base, FlippedPoint):
            # a flip (of flip-closed systems only) keeps block boundaries
            base = base.base
        else:
            break
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


def _refuse_over_block_cap(ell, k):
    """ResourceError when a level-k block, ℓ^k symbols, exceeds BLOCK_CAP.

    Past the cap's bit length, ℓ^k > BLOCK_CAP for every ℓ >= 2, so the
    capped power decides without building ℓ^k."""
    if ell ** min(k, BLOCK_CAP.bit_length()) > BLOCK_CAP:
        raise ResourceError("level-%d blocks exceed cap" % k)


def census_address(system, digits) -> OdometerAddress:
    """`digits` as an address of the system's odometer, in its base ℓ."""
    return OdometerAddress(tuple(digits),
                           block_length(system, "fiber censuses"))


def fiber_census(system, addr: OdometerAddress, resolution: int) -> FiberCensus:
    """Stabilized set of centered (2L+1)-windows compatible with `addr`.

    At level j the window is cut from the image of an admissible word
    spanning the level-j blocks that cover [-L, L] around the addressed
    position; the census is the set of distinct cuts.  Cardinality is
    nonincreasing in the level; `stabilized` records that the last two
    levels agree.
    """
    ell = block_length(system, "fiber censuses")
    if addr.base != ell:
        raise DomainError("address in base %d, the odometer of %r has base "
                          "%d" % (addr.base, system.name, ell))
    k = addr.level
    if k < 1:
        raise DomainError("census needs at least one digit")
    L = resolution
    _refuse_over_block_cap(ell, k)
    levels = []
    powers = system.substitution.powers()
    next(powers)
    for j, images in zip(range(1, k + 1), powers):
        block = ell ** j
        rj = addr.truncate(j).to_int()
        t0 = (rj - L) // block
        t1 = (rj + L) // block
        span = t1 - t0 + 1
        cut = rj - L - t0 * block
        wins = frozenset(
            "".join(images[c] for c in v)[cut:cut + 2 * L + 1]
            for v in system.language(span))
        if levels and len(wins) > len(levels[-1]):
            raise IntegrityError("census cardinality increased at level %d" % j)
        levels.append(wins)
    final = levels[-1]
    stabilized = len(levels) >= 2 and levels[-1] == levels[-2]
    if system.flip_closed:
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
    _refuse_over_block_cap(ell, levels)
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
