"""Bi-infinite points of a subshift as lazy window evaluators.

A point is a constructor tree: a splice of two one-sided fixed-point
specs, a shift or flip of another point, or a partial point pinned by an
odometer address.  A flip needs a system whose σ it commutes with
(`is_letter_automorphism`); a splice checks each window it builds
against the language, so a bad construction fails loudly with the
offending window instead of silently emitting junk.
"""

import re

from .errors import DomainError, ResourceError, UndeterminedError
from .words import (block_length, first_windows, flip_word,
                    refuse_over_block_cap, refuse_unless_flip_commutes)

HORIZON_CAP = 1 << 20
# an integer of the spec grammars: an optional sign, then ASCII digits
# (int() also takes '1_0' and ' 3', and str.isdigit() holds for '²' and
# '٣')
INTEGER = re.compile(r"[+-]?[0-9]+")
_DIGITS = re.compile(r"[0-9]+")


class OneSidedSpec:
    """A one-sided sequence: the system's fixed point from `seed`,
    optionally flipped; `reversed_` marks left-half orientation."""

    def __init__(self, system, seed=None, flipped=False, reversed_=False):
        self.system = system
        self.seed = system.seed if seed is None else seed
        if self.seed not in system.alphabet:
            raise DomainError("seed %r outside alphabet" % self.seed)
        if flipped:
            refuse_unless_flip_commutes(system)
        self.flipped = flipped
        self.reversed_ = reversed_

    def rev(self):
        return OneSidedSpec(self.system, self.seed, self.flipped,
                            not self.reversed_)

    def flip(self):
        return OneSidedSpec(self.system, self.seed, not self.flipped,
                            self.reversed_)

    def prefix(self, n: int) -> str:
        s = self.system.fixed_prefix(self.seed, n)
        return flip_word(s) if self.flipped else s

    def label(self):
        core = "fix(%s)" % self.seed
        if self.flipped:
            core = "flip(%s)" % core
        return "rev(%s)" % core if self.reversed_ else core


class Point:
    """Abstract window evaluator over a subshift system."""

    system = None

    def window(self, lo: int, hi: int) -> str:
        """Symbols at coordinates lo..hi inclusive."""
        if lo > hi:
            raise DomainError("window lo > hi")
        if max(abs(lo), abs(hi)) > HORIZON_CAP:
            raise ResourceError("window exceeds horizon cap %d" % HORIZON_CAP)
        dlo, dhi = self.determined_range()
        if lo < dlo or hi > dhi:
            raise UndeterminedError(
                "window [%d,%d] outside determined range [%d,%d]"
                % (lo, hi, dlo, dhi))
        return self._eval(lo, hi)

    def _eval(self, lo, hi):
        raise NotImplementedError

    def determined_range(self):
        return (-HORIZON_CAP, HORIZON_CAP)

    def shift(self, k: int):
        """The point n -> self(n + k)."""
        if k == 0:
            return self
        return ShiftedPoint(self, k)

    def flip(self):
        return FlippedPoint(self)

    def label(self):
        return repr(self)


def _find_violation(system, word, base_coord):
    """The leftmost shortest inadmissible window of `word` up to width 64,
    with its coordinate, from one scan at the top width: a shorter one
    lies inside an inadmissible top-window.  Else `word` itself."""
    top = min(len(word), 64)
    bad = set(first_windows(word, top)) - system.language(top)
    for m in range(2, top + 1):
        lang = system.language(m)
        found = {w[i:i + m] for w in bad for i in range(top - m + 1)} - lang
        if found:
            i = min(map(word.find, found))
            return word[i:i + m], base_coord + i
    return word, base_coord


class SplicePoint(Point):
    """p(n) = right(n) for n >= 0 and p(n) = left(-1-n) for n < 0.

    The left spec must carry the reversed orientation: the grammar writes
    the left half as rev(...) because it is read rightwards from the seam
    outwards.
    """

    def __init__(self, left: OneSidedSpec, right: OneSidedSpec):
        if not left.reversed_ or right.reversed_:
            raise DomainError("splice needs a rev(...) left half and a plain "
                              "right half")
        if left.system is not right.system:
            raise DomainError("splice halves live in different systems")
        self.system = left.system
        self.left = left
        self.right = right
        self._half = -1      # no buffer yet, so even window(0, 0) builds one
        self._buf = ""

    def _ensure(self, half):
        if half <= self._half:
            return
        target = 64
        while target < half:
            target *= 2
        buf = self.left.prefix(target)[::-1] + self.right.prefix(target + 1)
        if not self.system.is_admissible(buf):
            bad, at = _find_violation(self.system, buf, -target)
            raise DomainError(
                "splice %s produced inadmissible window %r at coordinate %d"
                % (self.label(), bad, at))
        # publish the buffer before the watermark so concurrent readers
        # never slice a stale buffer with a new half-width
        self._buf = buf
        self._half = target

    def _eval(self, lo, hi):
        self._ensure(max(abs(lo), abs(hi)))
        return self._buf[lo + self._half:hi + self._half + 1]

    def label(self):
        return "splice(%s,%s)" % (self.left.label(), self.right.label())


class ShiftedPoint(Point):
    """p(n) = base(n + k); nested shifts collapse to a single offset."""

    def __init__(self, base, k):
        self.base = base
        self.k = k
        self.system = base.system

    def _eval(self, lo, hi):
        return self.base.window(lo + self.k, hi + self.k)

    def determined_range(self):
        dlo, dhi = self.base.determined_range()
        return (dlo - self.k, dhi - self.k)

    def shift(self, k):
        if self.k + k == 0:
            return self.base
        return ShiftedPoint(self.base, self.k + k)

    def label(self):
        return "shift(%s,%d)" % (self.base.label(), self.k)


class FlippedPoint(Point):
    """Coordinatewise 0<->1 exchange of the base point; only a system
    whose σ the flip commutes with has one, so its windows need no check."""

    def __init__(self, base):
        refuse_unless_flip_commutes(base.system)
        self.base = base
        self.system = base.system

    def flip(self):
        return self.base

    def _eval(self, lo, hi):
        return flip_word(self.base.window(lo, hi))

    def determined_range(self):
        return self.base.determined_range()

    def label(self):
        return "flip(%s)" % self.base.label()


class AddressPoint(Point):
    """A partial point pinned by a level-k odometer address.

    digits d0..d_{k-1} (least significant first) place coordinate 0 at
    offset sum(d_j * l^j) inside a level-k substitution block, the image
    of `sheet`.  Coordinates inside that block are determined, queries
    beyond it raise UndeterminedError.
    """

    def __init__(self, system, digits, sheet):
        ell = block_length(system, "address points")
        digits = tuple(int(d) for d in digits)
        if any(d < 0 or d >= ell for d in digits):
            raise DomainError("digits must lie in 0..%d" % (ell - 1))
        if sheet not in system.alphabet:
            raise DomainError("sheet %r outside alphabet" % sheet)
        refuse_over_block_cap(ell, len(digits))
        self.system = system
        self.digits = digits
        self.sheet = sheet
        self.level = len(digits)
        self.offset = sum(d * ell ** j for j, d in enumerate(digits))

    def determined_range(self):
        size = self.system.constant_length ** self.level
        return (-self.offset, size - self.offset - 1)

    def _eval(self, lo, hi):
        # σ^k(sheet) = σ^m(σ^n(sheet)), n = k // 4, m = k - n: the window
        # joins the few level-m images under it, so the tower stops short of k
        n = self.level // 4
        images = self.system.level_images(self.level - n)
        size = len(images[-1][self.sheet])
        i, j = lo + self.offset, hi + self.offset + 1
        start = i - i % size
        under = images[n][self.sheet][i // size:(j - 1) // size + 1]
        return "".join([images[-1][c] for c in under])[i - start:j - start]

    def label(self):
        return "addr(%s,%s)" % ("".join(map(str, self.digits)), self.sheet)


# -- constructors -------------------------------------------------------

def point_from_address(system, digits, sheet) -> Point:
    return AddressPoint(system, digits, sheet)


def fixed_point(system, seed=None, flipped=False) -> Point:
    """The seam splice rev(fix seed) + fix seed (two-sided fixed point)."""
    spec = OneSidedSpec(system, seed, flipped=flipped)
    return SplicePoint(spec.rev(), spec)


def seam_points(system) -> dict:
    """The four seam splices over the all-zeros address.

    mu = rev(Q)+Q, mu_prime = rev(Q')+Q', nu = rev(Q')+Q and
    nu_prime = rev(Q)+Q', where Q is the one-sided fixed point and Q' its
    flip, which is refused unless the flip commutes with the substitution.
    """
    q = OneSidedSpec(system)
    qp = q.flip()
    return {
        "mu": SplicePoint(q.rev(), q),
        "mu_prime": SplicePoint(qp.rev(), qp),
        "nu": SplicePoint(qp.rev(), q),
        "nu_prime": SplicePoint(q.rev(), qp),
    }


# -- point-spec mini-grammar --------------------------------------------
#
#   point := fix(SYM) | fixSYM | splice(one, one) | shift(point, INT)
#          | flip(point) | addr(DIGITS, SYM)
#   one   := fix(SYM) | fixSYM | rev(one) | flip(one)
#
# A bare fix(s) point denotes the seam splice splice(rev(fix(s)), fix(s)).

def parse_point_spec(system, text: str) -> Point:
    parser = _SpecParser(system, text)
    point = parser.parse_point()
    parser.expect_end()
    return point


class _SpecParser:
    def __init__(self, system, text):
        self.system = system
        self.text = text.replace(" ", "")
        self.pos = 0

    def error(self, what):
        raise DomainError("bad point spec %r: %s (at %d)"
                          % (self.text, what, self.pos))

    def peek_name(self):
        i = self.pos
        while i < len(self.text) and self.text[i].isalpha():
            i += 1
        return self.text[self.pos:i]

    def take(self, tok):
        if not self.text.startswith(tok, self.pos):
            self.error("expected %r" % tok)
        self.pos += len(tok)

    def take_int(self):
        match = INTEGER.match(self.text, self.pos)
        if match is None:
            self.error("expected integer")
        self.pos = match.end()
        return int(match.group())

    def take_digits(self):
        match = _DIGITS.match(self.text, self.pos)
        if match is None:
            self.error("expected digit string")
        self.pos = match.end()
        return match.group()

    def expect_end(self):
        if self.pos != len(self.text):
            self.error("trailing input")

    def parse_point(self):
        name = self.peek_name()
        if name == "splice":
            self.take("splice(")
            left = self.parse_one()
            self.take(",")
            right = self.parse_one()
            self.take(")")
            return SplicePoint(left, right)
        if name == "shift":
            self.take("shift(")
            base = self.parse_point()
            self.take(",")
            k = self.take_int()
            self.take(")")
            return base.shift(k)
        if name == "flip":
            self.take("flip(")
            base = self.parse_point()
            self.take(")")
            return base.flip()
        if name == "addr":
            self.take("addr(")
            digits = self.take_digits()
            self.take(",")
            sheet = self.take_digits()
            self.take(")")
            if len(sheet) != 1:
                self.error("sheet must be a single symbol")
            return AddressPoint(self.system, digits, sheet)
        if name == "fix":
            spec = self.parse_fix()
            return SplicePoint(spec.rev(), spec)
        self.error("unknown constructor %r" % name)

    def parse_fix(self):
        self.take("fix")
        if self.text.startswith("(", self.pos):
            self.take("(")
            sym = self.take_digits()
            self.take(")")
        else:
            sym = self.take_digits()
        if len(sym) != 1:
            self.error("fix takes a single symbol")
        return OneSidedSpec(self.system, sym)

    def parse_one(self):
        name = self.peek_name()
        if name == "rev":
            self.take("rev(")
            spec = self.parse_one()
            self.take(")")
            return spec.rev()
        if name == "flip":
            self.take("flip(")
            spec = self.parse_one()
            self.take(")")
            return spec.flip()
        if name == "fix":
            return self.parse_fix()
        self.error("unknown one-sided constructor %r" % name)
