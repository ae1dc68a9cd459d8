"""The hot loops of the package, in pure Python.

Words travel as ASCII digit bytes (symbols '0' .. '0' + base - 1), rule
tables as flat byte arrays indexed by the base-`base` value of a block
(most significant symbol first), with 0xFF marking entries outside the
admissible set.  `apply_rule` builds a system's block ids and backs
`SlidingBlockCode.apply`; `decode_blocks` serves the parse certificate;
`mismatch_ends`, `mismatch_map` and `window_counts` serve pair
classification, and `window_diffs` gives pair separation.

No kernel runs Python code once per symbol.  `apply_rule` asks one
question, which `_lookup` answers: the table entry of each width-`width`
window at start, start + step, ... (step 1 for a sliding rule, the block
length for a block decoding).  The codes of all windows come out of a
few big-integer shifts, products and sums (`_window_codes`); codes that
fit a byte are read in the table with `bytes.translate`, wider ones
through `array` and `map`.  `mismatch_ends` finds the first and last
positions where two words differ by comparing slices in place,
galloping from each end over slices that double in length, then halving
inside the first slice that differs; it never builds the byte map
`mismatch_map`.  `window_counts` subtracts prefix sums of such a map,
and `window_diffs` is the two together.

`decode_blocks` first tries a key column (`_key_column`): a block offset
whose symbol alone names the table entry, as offset 0 does for Morse and
offset 1 for period-doubling.  Chunk by chunk it translates that
column's strided slice to the entries and checks every other column
against the symbols the entries expect with one comparison.  Every table
without a key column goes to `_lookup`.

A kernel says only that a word fails, by a ValueError with no position;
a caller that shows the fault names it (`SlidingBlockCode.apply`).
"""

import functools
import itertools
import operator
import sys
from array import array

UNSET = 0xFF
# maps each byte of a ^ b to 1 where the symbols differ, 0 where they agree
_DIFFERS = bytes([0]) + bytes([1]) * 255
# windows looked up per pass; bounds the temporary buffers to a few times
# this many bytes whatever the word's length
CHUNK_BLOCKS = 1 << 14
# pads a table of the codes that fit a byte to all 256 of them
_PAD = bytes([UNSET]) * 256
# maps each table entry to 1 where it is mapped, 0 where it is UNSET
_MAPPED = bytes([1]) * 255 + bytes([0])
# array typecode of each slot size that wider codes travel in
_TYPECODES = {array(c).itemsize: c for c in "LIH"}
# bytes in the first slice that `mismatch_ends` compares from each end
_GALLOP = 64


def apply_rule(word: bytes, radius: int, table: bytes, base: int) -> bytes:
    """Slide a radius-`radius` local rule along `word`.

    Returns the image of length len(word) - 2*radius.  Raises ValueError
    on a symbol outside the alphabet or a block with no table entry.
    """
    if radius < 0:
        raise ValueError("bad radius")
    width = 2 * radius + 1
    n = len(word)
    if n < width:
        raise ValueError("word shorter than the rule window")
    out = _lookup(word, 0, n - width + 1, 1, width, table, base)
    if UNSET in out:
        raise ValueError("block with no rule entry")
    return out


def window_diffs(a: bytes, b: bytes, width: int) -> list:
    """Mismatch count of a vs b in every length-`width` window.

    Returns a list of len(a)-width+1 counts (a and b must have equal
    length >= width).
    """
    n = len(a)
    if len(b) != n:
        raise ValueError("length mismatch")
    if width < 1 or width > n:
        raise ValueError("bad window width")
    return window_counts(mismatch_map(a, b), width)


def window_counts(mismatches: bytes, width: int) -> list:
    """Sum of the 0/1 bytes of `mismatches` in every length-`width`
    window, len(mismatches) - width + 1 sums in all."""
    # window i's count is the difference of two prefix sums; tee keeps
    # only the `width` sums between them, not all n + 1
    hi, lo = itertools.tee(itertools.accumulate(mismatches, initial=0))
    return list(map(operator.sub, itertools.islice(hi, width, None), lo))


def mismatch_map(a: bytes, b: bytes) -> bytes:
    """Byte i is 1 where a[i] != b[i] and 0 where they agree."""
    x = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    return x.to_bytes(len(a), "big").translate(_DIFFERS)


def mismatch_ends(a: bytes, b: bytes) -> tuple:
    """(first, last) index where a and b (of equal length) differ, or
    (-1, -1) where they agree: `mismatch_map(a, b)`'s find(1) and
    rfind(1)."""
    n = len(a)
    # a.startswith(b[lo:hi], lo) compares a[lo:hi] with b[lo:hi] in
    # place; a slice of a memoryview copies nothing
    b = memoryview(b)
    # a and b agree before lo; each slice [lo, hi) that agrees is
    # followed by one twice as long, and the halving keeps a mismatch
    # in [lo, hi)
    lo, hi = 0, min(n, _GALLOP)
    while a.startswith(b[lo:hi], lo):
        if hi == n:
            return -1, -1
        lo, hi = hi, min(n, hi + 2 * (hi - lo))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if a.startswith(b[lo:mid], lo):
            lo = mid
        else:
            hi = mid
    first = lo
    # the same from the end, where a and b agree from hi on; no slice
    # reaches below first, so the gallop stops by the slice holding it
    lo, hi = max(first, n - _GALLOP), n
    while a.startswith(b[lo:hi], lo):
        lo, hi = max(first, lo - 2 * (hi - lo)), lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if a.startswith(b[mid:hi], mid):
            hi = mid
        else:
            lo = mid
    return first, lo


def decode_blocks(word: bytes, start: int, block_len: int, table: bytes,
                  base: int) -> bytes:
    """Decode the full `block_len`-blocks of `word` beginning at `start`.

    Trailing symbols that do not fill a block are ignored.  Raises
    ValueError on a symbol outside the alphabet or a block that is not a
    substitution image.
    """
    n = len(word)
    if start < 0 or start > n:
        raise ValueError("bad start")
    if block_len < 1:
        raise ValueError("bad block length")
    count = (n - start) // block_len
    key = _key_column(table, block_len, base)
    if key is None:
        out = _lookup(word, start, count, block_len, block_len, table, base)
        if UNSET in out:
            raise ValueError("block is not a substitution image")
        return out
    p, letters, expect = key
    parts = []
    for first in range(0, count, CHUNK_BLOCKS):
        lo = start + first * block_len
        end = lo + min(CHUNK_BLOCKS, count - first) * block_len
        column = word[lo + p:end:block_len]
        part = column.translate(letters)
        if UNSET in part or any(
                word[lo + j:end:block_len] != column.translate(symbols)
                for j, symbols in expect):
            raise ValueError("block is not a substitution image")
        parts.append(part)
    return b"".join(parts)


def _lookup(word, start, count, step, width, table, base):
    """Table entries of the `count` width-`width` windows of `word` at
    start, start + step, ...

    Raises ValueError on a symbol outside the alphabet.  The entries
    stop after the pass that met the first UNSET entry.
    """
    size = base ** width
    if len(table) < size:
        raise ValueError("rule table shorter than base ** width")
    digits = _digit_map(base)
    slot = 1 if size <= 1 << 8 else 2 if size <= 1 << 16 else 4
    if slot == 1:
        lookup = table[:size] + _PAD[size:]
    parts = []
    for first in range(0, count, CHUNK_BLOCKS):
        m = min(CHUNK_BLOCKS, count - first)
        lo = start + first * step
        body = word[lo:lo + (m - 1) * step + width].translate(digits)
        if UNSET in body:
            raise ValueError("symbol outside alphabet")
        codes = _window_codes(body, width, base, slot)
        if slot == 1:
            part = codes[:m * step:step].translate(lookup)
        else:
            codes = array(_TYPECODES[slot], codes)
            if sys.byteorder == "big":
                codes.byteswap()
            part = bytes(map(table.__getitem__, codes[:m * step:step]))
        parts.append(part)
        if UNSET in part:
            break
    return b"".join(parts)


@functools.lru_cache(maxsize=16)
def _key_column(table, block_len, base):
    """A column of the blocks whose symbol alone names the table entry.

    Returns (p, letters, expect) for the first offset p at which the
    mapped codes have distinct digits: `letters` translates a symbol at p
    to the entry of the one mapped code with that digit there (UNSET for
    any other byte), and `expect` pairs each other offset j with the
    translation of that symbol to the digit at j of the same code.
    Returns None when no offset qualifies or the table is short.
    """
    size = base ** block_len
    if len(table) < size or size - table.count(UNSET, 0, size) > base:
        return None
    marks = table[:size].translate(_MAPPED)
    mapped = []
    code = marks.find(1)
    while code >= 0:
        mapped.append(code)
        code = marks.find(1, code + 1)
    digits = [[code // base ** (block_len - 1 - j) % base
               for j in range(block_len)] for code in mapped]
    for p in range(block_len):
        if len({d[p] for d in digits}) == len(digits):
            break
    else:
        return None
    letters = bytearray(_PAD)
    for code, d in zip(mapped, digits):
        letters[48 + d[p]] = table[code]
    expect = []
    for j in range(block_len):
        if j != p:
            symbols = bytearray(_PAD)
            for d in digits:
                symbols[48 + d[p]] = 48 + d[j]
            expect.append((j, bytes(symbols)))
    return p, bytes(letters), tuple(expect)


def _window_codes(digits, width, base, slot):
    """The base-`base` code of the width-`width` window at every position
    of `digits`, each in a little-endian `slot`-byte slot.

    The slots of one big integer hold the codes of width k; doubling k
    (or adding one) shifts a copy down by k slots and adds it to the
    integer times base**k.  No slot carries, since every code is below
    base**width <= 256**slot.  The last width - 1 slots hold codes of
    windows cut short by the end.
    """
    if slot > 1:
        spread = bytearray(len(digits) * slot)
        spread[::slot] = digits
        digits = spread
    one = int.from_bytes(digits, "little")
    bits = 8 * slot
    codes, k = one, 1
    for bit in bin(width)[3:]:
        codes = codes * base ** k + (codes >> bits * k)
        k *= 2
        if bit == "1":
            codes = codes * base + (one >> bits * k)
            k += 1
    return codes.to_bytes(len(digits), "little")


@functools.lru_cache(maxsize=16)
def _digit_map(base):
    """Translate table from each alphabet symbol to its digit and every
    other byte to UNSET."""
    return bytes(c - 48 if 48 <= c < 48 + base else UNSET
                 for c in range(256))
