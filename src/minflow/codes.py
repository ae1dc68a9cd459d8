"""Endomorphisms and automorphisms of subshifts as sliding block codes.

A code is a total local rule on the admissible (2r+1)-blocks of its
system.  Enumeration searches the rule space depth-first in block
first-appearance order along a generated test word, pruning as soon as a
determined stretch of the image stops being admissible; survivors are
verified exactly against the full test corpus, so the published list is
certified up to the check length.  The test word does not change while
the rule does, so the search reads the id of the block under each of its
windows (its index among the sorted blocks, one byte) from the system's
cached `block_ids`, and assigns the blocks in the order of their ids'
first starts there.  Ids in a byte name at most 255 blocks (0xFF is the
kernels' unset entry), so a system with more blocks at the radius is
refused before the search.  A node translates only the slices of the ids
that it tests, and the search builds one language level to test them.

End(X) is closed under left composition with any automorphism, and a
letter permutation that commutes with σ is a radius-0 one (the system's
`is_letter_automorphism`).  A rotation of the alphabet that passes that
test maps the whole language onto itself, so it acts on the search tree,
whose pruning reads one language level: a node passes iff its
relabelling does.  So the search explores one first output per orbit of
those rotations (half the nodes on Thue-Morse, a third on its ternary
version).  A leaf that passes the exact leaf check adds its
relabellings, which pass it too, with no second check.

Evaluation: a code applies itself to a long word through the kernel, one
table lookup per window.  Its image of the system's test word of a given
length is made once (`test_image`), and with no kernel call of its own:
the system caches the block ids of that word (`block_ids`, one kernel
call per radius and length), and the image is their `bytes.translate`
through the code's outputs.  Only a code with more blocks than a byte
names applies itself to the word.  The enumeration hands each survivor
the image it already holds.  Short words are read window by window in
the rule dict instead: each block of a composition, each block an
inversion has to check, and each short word the test word misses.  The
windows of an admissible word are admissible, so the rule is total on
them.
"""

from bisect import bisect_left
from itertools import chain
from typing import NamedTuple

from . import defaults, kernels
from .errors import DomainError, ResourceError
from .words import (FLIP, dense_table, flip_word, id_blocks,
                    refuse_unless_flip_commutes)

_PRUNE_WINDOW = 16
_NODE_CAP = 2_000_000


class SlidingBlockCode:
    """A radius-r local rule on the admissible (2r+1)-blocks of a system."""

    def __init__(self, system, radius, rule):
        blocks = system.language(2 * radius + 1)
        if set(rule) != set(blocks):
            raise DomainError("rule must be total on the admissible "
                              "%d-blocks" % (2 * radius + 1))
        for out in rule.values():
            if len(out) != 1 or out not in system.alphabet:
                raise DomainError("rule output %r outside alphabet" % out)
        self.system = system
        self.radius = radius
        self.rule = dict(rule)
        self._table = None
        # length -> the image of the system's test word of that length
        self.test_images = {}

    # -- evaluation ----------------------------------------------------

    def _rule_table(self):
        if self._table is None:
            self._table = bytes(dense_table(
                self.rule.items(), len(self.system.alphabet),
                2 * self.radius + 1,
                "a radius-%d code needs a rule table" % self.radius))
        return self._table

    def apply(self, word: str) -> str:
        """Image word of length len(word) - 2r (Curtis-Hedlund-Lyndon).

        DomainError names the first window of `word` outside the rule: the
        kernel says only that one is, as the table maps exactly the rule's
        blocks."""
        width = 2 * self.radius + 1
        if len(word) < width:
            raise DomainError("word shorter than the code window")
        table = self._rule_table()
        try:
            return kernels.apply_rule(word.encode(), self.radius, table,
                                      len(self.system.alphabet)).decode()
        except ValueError:
            pass
        at = next(i for i in range(len(word) - width + 1)
                  if word[i:i + width] not in self.rule)
        raise DomainError("window %r at %d has no rule entry"
                          % (word[at:at + width], at))

    def test_image(self, length):
        """The image of the system's test word of the given length, made
        once per code and length: the system's block ids of that word
        translated through the rule, or applied when they do not fit a
        byte."""
        image = self.test_images.get(length)
        if image is None:
            system = self.system
            if len(self.rule) > kernels.UNSET:
                image = self.apply(system.test_word(length))
            else:
                blocks, ids = system.block_ids(self.radius, length)
                image = ids.translate(bytes(
                    [ord(self.rule[b]) for b in blocks]).ljust(256, b"\xff")
                ).decode()
            self.test_images[length] = image
        return image

    # -- structure -----------------------------------------------------

    def pad_to(self, radius):
        """The same map presented at a larger radius."""
        if radius < self.radius:
            raise DomainError("cannot pad to a smaller radius")
        if radius == self.radius:
            return self
        d = radius - self.radius
        rule = {b: self.rule[b[d:len(b) - d]]
                for b in self.system.language(2 * radius + 1)}
        return SlidingBlockCode(self.system, radius, rule)

    def __eq__(self, other):
        if not isinstance(other, SlidingBlockCode):
            return NotImplemented
        if self.system is not other.system:
            return False
        r = max(self.radius, other.radius)
        return self.pad_to(r).rule == other.pad_to(r).rule

    __hash__ = None

    @property
    def normal_form(self):
        """(k, eps) when the code equals shift^k . flip^eps, else None."""
        r = self.radius
        flips = (0, 1) if self.system.is_letter_automorphism(FLIP) else (0,)
        for k in range(-r, r + 1):
            for eps in flips:
                if all(self.rule[b] == (flip_word(b[r + k]) if eps
                                        else b[r + k])
                       for b in self.rule):
                    return (k, eps)
        return None

    def to_json(self):
        return {"radius": self.radius,
                "blocks": [[b, self.rule[b]] for b in sorted(self.rule)]}

    @classmethod
    def from_json(cls, system, obj):
        """The code `to_json` wrote; DomainError for any other shape."""
        try:
            radius, blocks = obj["radius"], obj["blocks"]
            rule = {block: out for block, out in blocks}
        except (KeyError, TypeError, ValueError):
            raise DomainError('a code object needs "radius" and "blocks": '
                              '[[block, symbol], ...]') from None
        if type(radius) is not int or radius < 0:
            raise DomainError("code radius must be an integer >= 0, got %r"
                              % (radius,))
        if not all(type(s) is str for kv in rule.items() for s in kv):
            raise DomainError("code blocks and symbols must be strings")
        return cls(system, radius, rule)

    def __repr__(self):
        nf = self.normal_form
        tag = " shift^%d.flip^%d" % nf if nf else ""
        return "<SlidingBlockCode r=%d%s>" % (self.radius, tag)


def _rule_image(code, word):
    """`code.apply(word)` read window by window in the rule dict, which
    beats a kernel call on short words; KeyError on a window outside the
    rule's domain."""
    rule, width = code.rule, 2 * code.radius + 1
    return "".join([rule[word[j:j + width]]
                    for j in range(len(word) - width + 1)])


# -- constructors -------------------------------------------------------

def identity_code(system, radius=0):
    return shift_code(system, 0, radius)


def shift_code(system, k, radius=None):
    """The shift-by-k map as a radius-|k| (or wider) code."""
    r = abs(k) if radius is None else radius
    if r < abs(k):
        raise DomainError("radius %d too small for shift %d" % (r, k))
    rule = {b: b[r + k] for b in system.language(2 * r + 1)}
    return SlidingBlockCode(system, r, rule)


def flip_code(system, radius=0):
    refuse_unless_flip_commutes(system)
    rule = {b: flip_word(b[radius]) for b in system.language(2 * radius + 1)}
    return SlidingBlockCode(system, radius, rule)


# -- operations ----------------------------------------------------------

def compose(c1: SlidingBlockCode, c2: SlidingBlockCode) -> SlidingBlockCode:
    """The code w -> c1(c2(w)), presented at radius r1 + r2."""
    if c1.system is not c2.system:
        raise DomainError("codes live in different systems")
    system = c1.system
    r = c1.radius + c2.radius
    # sorted, so that a DomainError names the same block on every hash seed
    return SlidingBlockCode(system, r, {
        b: _composite(c1, c2, b) for b in sorted(system.language(2 * r + 1))})


def _composite(c1, c2, block):
    """c1(c2(block)) for an admissible block of width 2(r1 + r2) + 1,
    read in the rule dicts; DomainError when c2 maps it outside c1's
    domain.  The windows of an admissible block are admissible, so c2's
    rule is total on them."""
    mid = _rule_image(c2, block)
    out = c1.rule.get(mid)
    if out is None:
        raise DomainError("composition hits block %r outside the left "
                          "rule's domain" % mid)
    return out


def verify_endomorphism(code: SlidingBlockCode,
                        check_len=defaults.CHECK_LEN) -> bool:
    """Exact corpus check: every admissible word of length 2r+8 maps to an
    admissible word, and so does a generated prefix of length check_len."""
    system = code.system
    master = system.test_word(check_len)
    image = code.test_image(check_len)
    return _maps_short_words(
        code, _missing_short_words(system, code.radius, master)) \
        and system.is_admissible(image)


def _short_len(system, radius):
    return min(2 * radius + 8, system.language_cap)


def _missing_short_words(system, radius, master):
    """The admissible words of length `_short_len` absent from `master`."""
    return [w for w in system.language(_short_len(system, radius))
            if w not in master]


def _maps_short_words(code, words):
    """Whether the code maps each of `words`, admissible words of length
    `_short_len`, to an admissible word, read in the rule dict.

    Callers pass the `_missing_short_words` of a test word and also
    require the code's image of that word to be admissible, which covers
    the short words that occur in it: their images are its factors.
    """
    system = code.system
    out_lang = system.language(_short_len(system, code.radius)
                               - 2 * code.radius)
    return all(_rule_image(code, w) in out_lang for w in words)


def enumerate_endomorphisms(system, radius, check_len=defaults.CHECK_LEN):
    """All radius-`radius` sliding block codes of the system into itself,
    certified up to `check_len`; canonically sorted.

    The search assigns outputs block-by-block in order of first
    appearance along the test word, so each depth determines one more
    range of the image, and a node whose image stops being admissible
    prunes its subtree.  A node tests the prefixes of the image shorter
    than the prune window w that end in its range, then the w-windows
    that end there.  Every admissible word extends to the right, so a
    shorter prefix is admissible iff it begins a word of language(w): the
    first word at or after it in sorted order.  A w-window of the image
    is a function of the test word's window 2r symbols wider at the same
    start, so only the first starts of those wider windows (the system's
    `first_starts`) are tested; every other w-window repeats one tested
    in the same range or by an ancestor under the same assignments.

    One branch per rotation orbit.  Let H be the rotations a -> a + t of
    the alphabet (in its order) that commute with σ
    (`is_letter_automorphism`), and d = |A|/|H|.  Each g in H maps the
    language onto itself, so a node passes iff its image under g
    passes, and the subtree under first output g(c) is the g-image of
    the subtree under c.  The first block therefore takes only the
    outputs alphabet[:d], one per H-orbit.  A leaf φ is decided by the
    exact check: the admissibility of its image of the test word T and
    of the images of the short words that T misses.  A word w is
    admissible iff g(w) is, so g∘φ passes iff φ does, and its image of
    T is g(φ(T)): a leaf that passes adds g∘φ for each g in H, with that
    image, and parses none of them again.  A rotation that preserves the
    prune level but does not commute with σ is not used, and the first
    outputs it would merge are searched in full.  Relabelled leaves are
    not counted as nodes against `_NODE_CAP`; they join the partial list
    with their leaf.  With H trivial the search is unchanged.
    """
    if radius < 0:
        raise DomainError("radius must be >= 0, got %r" % (radius,))
    if check_len < 1:
        raise DomainError("check_len must be >= 1, got %r" % (check_len,))
    width = 2 * radius + 1
    prune_w = max(min(_PRUNE_WINDOW, check_len - width + 1), 1)
    # the top level first, so that every level below it is its prefixes
    lang = frozenset(w.encode() for w in system.language(prune_w))
    top = sorted(lang)
    blocks = id_blocks(system, radius)
    master = system.test_word(check_len)
    # the id of the block under each window of master; the search sets
    # each id's output in by_id
    ids = system.block_ids(radius, check_len)[1] if check_len >= width \
        else b""
    first_pos = sorted(ids.find(k) for k in range(len(blocks)))
    if first_pos[0] < 0:
        raise DomainError("test word of length %d misses %d admissible "
                          "blocks" % (check_len, first_pos.count(-1)))
    order = [ids[i] for i in first_pos]
    first_pos.append(len(ids))
    # per depth, the lengths of the short prefixes and the starts of the
    # prune_w-windows that end in its range
    prefixes = [range(first_pos[j] + 1, min(first_pos[j + 1], prune_w - 1)
                      + 1) for j in range(len(order))]
    tests = [[] for _ in order]
    j = 0
    for i in system.first_starts(prune_w + 2 * radius, check_len):
        while i + prune_w > first_pos[j + 1]:
            j += 1
        tests[j].append(i)

    a, k = system.alphabet, len(system.alphabet)
    # the rotations that commute with σ form a subgroup H of Z/k: the
    # multiples of the least t > 0 among them, which is |A|/|H|
    step = next((t for t in range(1, k) if system.is_letter_automorphism(
        str.maketrans(a, a[t:] + a[:t]))), k)
    outs = a.encode()
    twins = [bytes.maketrans(outs, outs[t:] + outs[:t])
             for t in range(step, k, step)]
    by_id = bytearray(256)
    missing = _missing_short_words(system, radius, master)
    results = []
    nodes = 0

    def admissible_prefix(j):
        # every block up to the end of the range is assigned
        for n in prefixes[j]:
            word = ids[:n].translate(by_id)
            k = bisect_left(top, word)
            if k == len(top) or not top[k].startswith(word):
                return False
        for i in tests[j]:
            if ids[i:i + prune_w].translate(by_id) not in lang:
                return False
        return True

    def code_of(leaf, image):
        code = SlidingBlockCode(system, radius, {
            b: chr(leaf[i]) for i, b in enumerate(blocks)})
        code.test_images[check_len] = image.decode()
        return code

    def keep_if_endomorphism(leaf):
        image = ids.translate(leaf)
        code = code_of(leaf, image)
        if system.is_admissible(code.test_image(check_len)) and \
                _maps_short_words(code, missing):
            results.append(code)
            results.extend(code_of(leaf.translate(tab), image.translate(tab))
                           for tab in twins)

    def dfs(j):
        nonlocal nodes
        if j == len(order):
            keep_if_endomorphism(by_id)
            return
        for out in outs[:step] if j == 0 else outs:
            nodes += 1
            if nodes > _NODE_CAP:
                raise ResourceError("enumeration node cap exceeded",
                                    partial=_sorted_codes(results, blocks))
            by_id[order[j]] = out
            if admissible_prefix(j):
                dfs(j + 1)

    dfs(0)
    codes = _sorted_codes(results, blocks)
    for c in codes:
        c.certified_len = check_len
    return codes


def _sorted_codes(codes, blocks):
    return sorted(codes, key=lambda c: tuple(c.rule[b] for b in blocks))


def invert(code: SlidingBlockCode, max_radius,
           check_len=defaults.CHECK_LEN):
    """A two-sided inverse code of radius <= max_radius, or None.

    The candidate rule is read off the graph (image, preimage) along a
    test word; it must be total on the admissible blocks and compose to
    the identity with `code` in both orders (Curtis-Hedlund-Lyndon: the
    inverse of an invertible code is a code).

    The graph is read at the starts the system caches for its test word
    `master` (`first_starts`), with no scan per code.  Let top be the
    widest candidate radius.  The (2top+1)-window of u = code(master) at
    i, with the symbols master[i + r:i + r + 2top + 1] under it, is a
    function of master's (2top + 2r + 1)-window at i, over the same range
    of starts.  So the first starts of master's windows at that width
    reach every distinct pair of windows of the graph, and each pair
    first at its own first start; the mapping read there is the one read
    at every start, and conflicts exactly when that one does.

    Only the blocks that the graph did not read are checked.  Let r be
    the code's radius, rp the candidate's and R = r + rp, and let u be
    the code's image of the test word `master`.  The graph is read at
    every distinct window of u, so cand(u)[i] = master[i + R] at every
    i.  Then at a (2R+1)-window b of master at j, code(b) =
    u[j:j + 2rp + 1] and cand(code(b)) = master[j + R] = b[R].  At a
    (2R+1)-window b of u at j, cand(b) = master[j + R:j + R + 2r + 1],
    which is admissible, and code(cand(b)) = u[j + R] = b[R].  So
    cand . code is the identity on the (2R+1)-blocks that occur in
    master, and code . cand on those that occur in u; neither leaves its
    left rule's domain there.  The other admissible blocks are read in
    the rule dicts, in the order `compose` reads them, so a composition
    that leaves the left rule's domain raises the DomainError that
    `compose` would raise.
    """
    system = code.system
    r = code.radius
    master = system.test_word(check_len)
    u = code.test_image(check_len)
    n = len(u)
    top = min(max_radius, (n - 1) // 2)
    # starts that reach every distinct widest window of u beside the
    # symbols of master under it, a function of master's window 2r
    # symbols wider there; every narrower window is the centre of one of
    # these or lies within `top - rp` of an end
    widest = system.first_starts(2 * top + 2 * r + 1, check_len)
    for rp in range(top + 1):
        width = 2 * rp + 1
        d = top - rp
        mapping = {}
        for i in chain(range(d), (i + d for i in widest),
                       range(n - width - d + 1, n - width + 1)):
            b = u[i:i + width]
            t = master[i + rp + r]
            if mapping.setdefault(b, t) != t:
                break
        else:
            if set(mapping) != set(system.language(width)):
                continue
            cand = SlidingBlockCode(system, rp, mapping)
            if _identity_off(cand, code, master) and \
                    _identity_off(code, cand, u):
                return cand
    return None


def _identity_off(c1, c2, word):
    """Whether c1(c2(b)) is the centre symbol of every admissible block
    b of width 2(r1 + r2) + 1 that does not occur in `word`; each of them
    is read in sorted order, so DomainError comes from the same block as
    in `compose`.  Only these blocks are sorted, so the check costs what
    the blocks it reads cost."""
    r = c1.radius + c2.radius
    return all([_composite(c1, c2, b) == b[r]
                for b in sorted([b for b in c1.system.language(2 * r + 1)
                                 if b not in word])])


# -- group shape ---------------------------------------------------------

class GroupShapeReport(NamedTuple):
    shape: str
    forms: tuple            # sorted (k, eps) normal forms
    unrecognized: int
    count: int

    def to_json(self):
        return {"shape": self.shape, "count": self.count,
                "forms": [list(f) for f in self.forms],
                "unrecognized": self.unrecognized}


def classify_aut_group(codes, system) -> GroupShapeReport:
    """Assign normal forms shift^k . flip^eps and name the group shape."""
    forms = []
    unrecognized = 0
    for c in codes:
        nf = c.normal_form
        if nf is None:
            unrecognized += 1
        else:
            forms.append(nf)
    forms.sort()
    if unrecognized:
        shape = "unrecognized: %d extra codes" % unrecognized
    elif not forms or all(f == (0, 0) for f in forms):
        shape = "trivial"
    elif all(eps == 0 for _, eps in forms):
        shape = "Z"
    else:
        shape = "Z ⊕ Z/2"
    return GroupShapeReport(shape, tuple(forms), unrecognized, len(codes))
