"""Factor structure over the ℓ-adic odometer.

Desubstitution parses a window of a constant-length-ℓ subshift uniquely
into substitution blocks once the window reaches the system's
recognizability length; iterating the parse assigns every point a string
of ℓ-adic digits (the odometer address, least significant first), which
realizes the maximal equicontinuous factor map; each level's phase is
looked up in the system's recognizability table.  The fiber census
reconstructs which centered windows are compatible with a given address,
and word frequencies realize the invariant-measure checks.
"""

from typing import NamedTuple

from .errors import (AmbiguityError, DomainError, IntegrityError,
                     NoParseError, ResourceError)
from .points import BLOCK_CAP, AddressPoint, FlippedPoint, ShiftedPoint
from .words import flip_word


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
    and cached by the system, asserted <= 64.
    """
    return system.recognizability()[0]


def desubstitute(system, word: str):
    """Unique parse of `word` into substitution ℓ-blocks.

    Returns (preimage of the full blocks, d), where position 0 of `word`
    sits at offset d of its block.
    """
    ell = system.constant_length
    if ell is None:
        raise DomainError("desubstitution needs a constant-length system, "
                          "%r is not" % system.name)
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
    """
    ell = system.constant_length
    if ell is None:
        raise DomainError("addresses need a constant-length system, "
                          "%r is not" % system.name)
    if k < 0:
        raise DomainError("levels must be >= 0")
    if k == 0:
        return OdometerAddress((), ell)
    r, phases = system.recognizability()
    h = r // 2
    half = max(64, (r + 4) * ell ** (k - 1))
    word = point.window(-half, half).encode()
    origin = half
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
        start = (origin - digit) % ell
        digits.append(digit)
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
        elif isinstance(base, FlippedPoint) and base.system.flip_closed:
            # flip commutes with the substitution for flip-closed systems,
            # so it does not move block boundaries
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


def _census_base(system) -> int:
    if system.constant_length is None:
        raise DomainError("fiber census needs a constant-length system")
    return system.constant_length


def census_address(system, digits) -> OdometerAddress:
    """`digits` as an address of the system's odometer, in its base ℓ."""
    return OdometerAddress(tuple(digits), _census_base(system))


def fiber_census(system, addr: OdometerAddress, resolution: int) -> FiberCensus:
    """Stabilized set of centered (2L+1)-windows compatible with `addr`.

    At level j the window is cut from the image of an admissible word
    spanning the level-j blocks that cover [-L, L] around the addressed
    position; the census is the set of distinct cuts.  Cardinality is
    nonincreasing in the level; `stabilized` records that the last two
    levels agree.
    """
    ell = _census_base(system)
    if addr.base != ell:
        raise DomainError("address in base %d, the odometer of %r has base "
                          "%d" % (addr.base, system.name, ell))
    k = addr.level
    if k < 1:
        raise DomainError("census needs at least one digit")
    L = resolution
    if ell ** k > BLOCK_CAP:
        raise ResourceError("level-%d blocks exceed cap" % k)
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
    drawn below ℓ by `random.Random(seed)`, in order."""
    import random
    rng = random.Random(seed)
    ell = _census_base(system)
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
