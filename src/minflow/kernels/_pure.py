"""Pure-Python kernels.

Reference implementations of the three hot loops; `_speedups.pyx` has
the same semantics.  Words travel as ASCII digit bytes, rule tables as
flat byte arrays indexed by the base-`base` value of a block (most
significant symbol first), with 0xFF marking entries outside the
admissible set.

`apply_rule` is a per-symbol loop, which the `.pyx` mirrors line by
line.  The other two run in C without a per-symbol Python loop.
`window_diffs` XORs the two words as big integers, maps every nonzero
byte to 1 with `bytes.translate`, and subtracts prefix sums of that
mismatch map.  `decode_blocks` is table-driven: whole columns of blocks
go through `bytes.translate` and big-integer sums; blocks whose code
does not fit a byte keep the loop.  Both return what the `.pyx` loops
return and raise ValueError in the same cases, with the same messages.
"""

import functools
import itertools
import operator

UNSET = 0xFF
# maps each byte of a ^ b to 1 where the symbols differ, 0 where they agree
_DIFFERS = bytes([0]) + bytes([1]) * 255
# blocks decode_blocks decodes per pass; bounds its temporary buffers to
# a few times this many bytes whatever the word's length
CHUNK_BLOCKS = 1 << 14


def apply_rule(word: bytes, radius: int, table: bytes, base: int) -> bytes:
    """Slide a radius-`radius` local rule along `word`.

    Returns the image of length len(word) - 2*radius.  Raises ValueError
    on a symbol outside the alphabet or a block with no table entry.
    """
    width = 2 * radius + 1
    n = len(word)
    if n < width:
        raise ValueError("word shorter than the rule window")
    high = base ** (width - 1)
    code = 0
    for j in range(width):
        d = word[j] - 48
        if d < 0 or d >= base:
            raise ValueError("symbol outside alphabet at %d" % j)
        code = code * base + d
    out = bytearray(n - width + 1)
    i = 0
    while True:
        t = table[code]
        if t == UNSET:
            raise ValueError("block with no rule entry at %d" % i)
        out[i] = t
        i += 1
        if i + width > n:
            break
        d = word[i + width - 1] - 48
        if d < 0 or d >= base:
            raise ValueError("symbol outside alphabet at %d" % (i + width - 1))
        code = (code % high) * base + d
    return bytes(out)


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
    x = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    mismatches = x.to_bytes(n, "big").translate(_DIFFERS)
    # window i's count is the difference of two prefix sums; tee keeps
    # only the `width` sums between them, not all n + 1
    hi, lo = itertools.tee(itertools.accumulate(mismatches, initial=0))
    return list(map(operator.sub, itertools.islice(hi, width, None), lo))


def decode_blocks(word: bytes, start: int, block_len: int, table: bytes,
                  base: int) -> bytes:
    """Decode the full `block_len`-blocks of `word` beginning at `start`.

    Trailing symbols that do not fill a block are ignored.  Raises
    ValueError on a symbol outside the alphabet (its position in `word`)
    or on a block that is not a substitution image (its index counted
    from `start`), whichever comes first.
    """
    n = len(word)
    if start < 0 or start > n:
        raise ValueError("bad start")
    if block_len < 1 or base < 1 or base ** block_len > min(len(table), 256):
        # a block code must fit one byte and index the table
        return _decode_loop(word, start, block_len, table, base)
    foreign, weights, lookup = _decode_tables(table, block_len, base)
    end = start + (n - start) // block_len * block_len
    step = CHUNK_BLOCKS * block_len
    parts = []
    for lo in range(start, end, step):
        body = word[lo:min(lo + step, end)]
        bad = body.translate(foreign).find(1)
        if bad >= 0:
            # decode the whole blocks before it, so that an earlier
            # unmapped block is reported first, as a block-by-block scan
            # would
            body = body[:bad - bad % block_len]
        # column j of the blocks carries digit * base**(block_len-1-j)
        # per byte; the columns' sum is the block codes, and no byte
        # carries because every code is below base**block_len <= 256
        codes = 0
        for j, weight in enumerate(weights):
            codes += int.from_bytes(body[j::block_len].translate(weight),
                                    "big")
        part = codes.to_bytes(len(body) // block_len, "big").translate(lookup)
        unmapped = part.find(UNSET)
        if unmapped >= 0:
            raise ValueError("block %d is not a substitution image"
                             % ((lo - start) // block_len + unmapped))
        if bad >= 0:
            raise ValueError("symbol outside alphabet at %d" % (lo + bad))
        parts.append(part)
    return b"".join(parts)


@functools.lru_cache(maxsize=32)
def _decode_tables(table: bytes, block_len: int, base: int):
    """Translate tables of decode_blocks for one rule table.

    Returns (foreign, weights, lookup): `foreign` maps each alphabet
    symbol to 0 and every other byte to 1; `weights[j]` maps symbol d to
    d * base**(block_len-1-j); `lookup` maps a block code to its table
    entry, UNSET beyond the codes.
    """
    digits = range(48, 48 + base)
    foreign = bytes(0 if c in digits else 1 for c in range(256))
    weights = []
    for j in range(block_len):
        place = base ** (block_len - 1 - j)
        weights.append(bytes((c - 48) * place if c in digits else 0
                             for c in range(256)))
    size = base ** block_len
    lookup = table[:size] + bytes([UNSET]) * (256 - size)
    return foreign, tuple(weights), lookup


def _decode_loop(word: bytes, start: int, block_len: int, table: bytes,
                 base: int) -> bytes:
    """decode_blocks one symbol at a time, for the blocks the tables
    cannot take: codes that do not fit a byte or lie beyond the table."""
    n = len(word)
    count = (n - start) // block_len
    out = bytearray(count)
    pos = start
    for i in range(count):
        code = 0
        for j in range(block_len):
            d = word[pos + j] - 48
            if d < 0 or d >= base:
                raise ValueError("symbol outside alphabet at %d" % (pos + j))
            code = code * base + d
        t = table[code]
        if t == UNSET:
            raise ValueError("block %d is not a substitution image" % i)
        out[i] = t
        pos += block_len
    return bytes(out)
