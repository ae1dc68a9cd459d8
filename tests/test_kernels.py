# The kernels against the per-symbol loops they replaced: the same
# output on every word, and a ValueError on exactly the words the loops
# refuse.  A kernel's message names no position; `SlidingBlockCode.apply`
# names the faulty window (tests/test_codes.py, tests/test_cli.py).

import random

import pytest

from minflow import kernels
from minflow.words import get_system

# bytes that int() reads as part of a number; the kernels must refuse
# them as symbols outside the alphabet
INT_TRAPS = b"_ +-"


def naive_apply(word, radius, table, base):
    """The per-symbol loop `apply_rule` replaced, verbatim."""
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
        if t == 0xFF:
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


def naive_diffs(a, b, width):
    return [sum(x != y for x, y in zip(a[i:i + width], b[i:i + width]))
            for i in range(len(a) - width + 1)]


def naive_decode(word, start, block_len, table, base):
    if not 0 <= start <= len(word):
        raise ValueError("bad start")
    out = []
    for i, pos in enumerate(range(start, len(word) - block_len + 1,
                                  block_len)):
        code = 0
        for j in range(pos, pos + block_len):
            d = word[j] - 48
            if not 0 <= d < base:
                raise ValueError("symbol outside alphabet at %d" % j)
            code = code * base + d
        if table[code] == 0xFF:
            raise ValueError("block %d is not a substitution image" % i)
        out.append(table[code])
    return bytes(out)


def outcome(fn, *args):
    """fn's result, or "ValueError" when it raises one."""
    try:
        return fn(*args)
    except ValueError:
        return "ValueError"


def test_apply_rule_matches_naive():
    rng = random.Random(0)
    for radius in (0, 1, 2):
        width = 2 * radius + 1
        table = bytes(rng.randrange(2) + 48 for _ in range(2 ** width))
        word = bytes(rng.randrange(2) + 48 for _ in range(200))
        assert kernels.apply_rule(word, radius, table, 2) == \
            naive_apply(word, radius, table, 2)


def random_table(rng, base, width, holes):
    """A rule table with random outputs and about a `holes` share of its
    entries unmapped, at least one mapped and one not when `holes`."""
    size = base ** width
    table = bytearray(48 + rng.randrange(base) for _ in range(size))
    if holes:
        unmapped = rng.sample(range(size), max(1, int(size * holes)))
        for code in unmapped[:size - 1]:
            table[code] = 0xFF
    return bytes(table)


def random_word(rng, base, n):
    return bytes(48 + rng.randrange(base) for _ in range(n))


# codes travel in 1-byte slots up to base**width = 256, then in 2-byte
# slots ((3, 3), (10, 1), (2, 4)) and 4-byte ones ((2, 8))
@pytest.mark.parametrize("base,radius", [(2, 0), (2, 1), (2, 2), (2, 3),
                                         (3, 0), (3, 1), (3, 2),
                                         (3, 3), (10, 1), (2, 4), (2, 8)])
def test_apply_rule_matches_loop(base, radius):
    rng = random.Random(100 * base + radius)
    width = 2 * radius + 1
    full = random_table(rng, base, width, 0)
    holes = random_table(rng, base, width, 0.02)
    traps = INT_TRAPS + bytes([47, 48 + base, 58, 0x80, 0xFF])
    for table in (full, holes):
        for n in (width - 1, width, width + 1, 50, 300):
            word = random_word(rng, base, n)
            assert outcome(kernels.apply_rule, word, radius, table, base) \
                == outcome(naive_apply, word, radius, table, base)
        word = random_word(rng, base, 300)
        # a foreign symbol inside the first window, at the last symbol,
        # and before, between and after unmapped windows
        for at in sorted({0, width // 2, width - 1, 299,
                          *range(width, 300, 7)}):
            bad = word[:at] + traps[at % len(traps):][:1] + word[at + 1:]
            assert outcome(kernels.apply_rule, bad, radius, table, base) \
                == outcome(naive_apply, bad, radius, table, base)
    for trap in traps:
        word = random_word(rng, base, width + 5)
        bad = word[:width + 2] + bytes([trap]) + word[width + 3:]
        assert outcome(kernels.apply_rule, bad, radius, full, base) == \
            "ValueError"


@pytest.mark.parametrize("base,radius", [(3, 1), (3, 3), (3, 5)])
def test_apply_rule_long_word(base, radius):
    # several passes of CHUNK_BLOCKS windows, faults in a late one.  The
    # word uses only 0 and 1, and every window with a 2 is unmapped.
    rng = random.Random(5)
    width = 2 * radius + 1
    table = bytearray(b"\xff" * base ** width)
    for code in range(2 ** width):
        table[int(format(code, "0%db" % width), base)] = \
            48 + rng.randrange(base)
    table = bytes(table)
    word = random_word(rng, 2, 1 << 17)
    assert kernels.apply_rule(word, radius, table, base) == \
        naive_apply(word, radius, table, base)
    for patches in [{100000: b"2"}, {100000: b"2", 100003: b"+"},
                    {100000: b"2", 99999: b"_"}, {131071: b"-"},
                    {131071: b"2"}]:
        bad = bytearray(word)
        for at, patch in patches.items():
            bad[at:at + 1] = patch
        bad = bytes(bad)
        assert outcome(kernels.apply_rule, bad, radius, table, base) == \
            outcome(naive_apply, bad, radius, table, base) == "ValueError"


def test_apply_rule_errors():
    with pytest.raises(ValueError):
        kernels.apply_rule(b"01", 1, bytes(8), 2)       # too short
    with pytest.raises(ValueError):
        kernels.apply_rule(b"0120", 0, b"00", 2)        # foreign symbol
    table = bytes([48, 0xFF])
    with pytest.raises(ValueError):
        kernels.apply_rule(b"001", 0, table, 2)         # unmapped block


def test_window_diffs_matches_naive():
    rng = random.Random(1)
    a = bytes(rng.randrange(2) + 48 for _ in range(300))
    b = bytes(rng.randrange(2) + 48 for _ in range(300))
    for width in (1, 7, 33):
        assert kernels.window_diffs(a, b, width) == naive_diffs(a, b, width)
    assert kernels.window_diffs(a, a, 9) == [0] * 292
    c = bytes(rng.randrange(3) + 48 for _ in range(300))
    d = bytes(rng.randrange(3) + 48 for _ in range(300))
    for width in (1, 7, 300):
        assert kernels.window_diffs(c, d, width) == naive_diffs(c, d, width)
    with pytest.raises(ValueError, match="length mismatch"):
        kernels.window_diffs(a, b[:-1], 3)
    with pytest.raises(ValueError, match="bad window width"):
        kernels.window_diffs(a, b, 0)
    with pytest.raises(ValueError, match="bad window width"):
        kernels.window_diffs(a, b, 301)
    a = bytes(rng.randrange(2) + 48 for _ in range(1 << 17))
    b = bytes(x ^ (rng.random() < 0.1) for x in a)
    assert kernels.window_diffs(a, b, 129) == naive_diffs(a, b, 129)


def test_decode_blocks():
    # Thue-Morse inverse table: 01 -> 0, 10 -> 1
    table = bytearray(b"\xff" * 4)
    table[0b01] = ord("0")
    table[0b10] = ord("1")
    table = bytes(table)
    assert kernels.decode_blocks(b"01101001", 0, 2, table, 2) == b"0110"
    assert kernels.decode_blocks(b"101101001", 1, 2, table, 2) == b"0110"
    assert kernels.decode_blocks(b"0110100", 0, 2, table, 2) == b"011"
    with pytest.raises(ValueError):
        kernels.decode_blocks(b"0110", 0, 2, b"\xff" * 4, 2)
    with pytest.raises(ValueError):
        kernels.decode_blocks(b"0011", 0, 2, table, 2)     # 00 not an image


def block(code, block_len, base):
    """The block whose base-`base` value is `code`."""
    return bytes(48 + code // base ** (block_len - 1 - j) % base
                 for j in range(block_len))


@pytest.mark.parametrize("block_len,base", [(2, 2), (3, 2), (2, 3), (3, 3),
                                            (9, 2), (6, 3)])
def test_decode_blocks_matches_naive(block_len, base):
    rng = random.Random(block_len * 10 + base)
    size = base ** block_len
    table = bytearray(b"\xff" * size)
    for code in rng.sample(range(size), max(2, size // 3)):
        table[code] = 48 + rng.randrange(base)
    table = bytes(table)
    mapped = [c for c in range(size) if table[c] != 0xFF]
    body = b"".join(block(rng.choice(mapped), block_len, base)
                    for _ in range(40))
    for lead in range(block_len):
        # a valid image at every phase, with a trailing partial block
        word = bytes(48 + rng.randrange(base) for _ in range(lead)) + body \
            + bytes(48 + rng.randrange(base) for _ in range(block_len - 1))
        for start in range(len(word) + 1):
            assert outcome(kernels.decode_blocks, word, start, block_len,
                           table, base) == \
                outcome(naive_decode, word, start, block_len, table, base)
        got = kernels.decode_blocks(word, lead, block_len, table, base)
        assert len(got) == 40 and got == \
            naive_decode(word, lead, block_len, table, base)
        assert kernels.decode_blocks(word, len(word), block_len, table,
                                  base) == b""
    # foreign symbols, unmapped blocks, and both in one word
    unmapped = block(table.index(0xFF), block_len, base)
    for word in [body[:5] + b"7" + body[6:], body[:5] + b"/" + body[6:],
                 *(body[:5] + bytes([c]) + body[6:] for c in INT_TRAPS),
                 body[:block_len] + b"_" + body,
                 body[:block_len] + unmapped + body,
                 body[:block_len] + unmapped + b"9" + body,
                 body[:block_len] + b"9" + unmapped + body]:
        for start in (0, 1):
            assert outcome(kernels.decode_blocks, word, start, block_len,
                           table, base) == \
                outcome(naive_decode, word, start, block_len, table, base)
        assert outcome(kernels.decode_blocks, word, 0, block_len, table,
                       base) == "ValueError"
    for start in (-1, len(body) + 1):
        with pytest.raises(ValueError, match="bad start"):
            kernels.decode_blocks(body, start, block_len, table, base)


def test_decode_blocks_long_word():
    # several passes of CHUNK_BLOCKS blocks, faults in a late one
    table = bytes([0xFF, 48, 49, 0xFF])
    rng = random.Random(3)
    body = b"".join(rng.choice((b"01", b"10")) for _ in range(1 << 17))
    word = b"1" + body + b"0"
    assert kernels.decode_blocks(word, 1, 2, table, 2) == \
        naive_decode(word, 1, 2, table, 2)
    for at, patch in [(200001, b"11"), (200002, b"2")]:
        bad = word[:at] + patch + word[at + len(patch):]
        assert outcome(kernels.decode_blocks, bad, 1, 2, table, 2) == \
            outcome(naive_decode, bad, 1, 2, table, 2) == "ValueError"


def decode_table(images, base):
    """The decoding table of a constant-length substitution given as
    {letter: image}, the letters and images as digit strings."""
    block_len = len(next(iter(images.values())))
    table = bytearray(b"\xff" * base ** block_len)
    for letter, image in images.items():
        table[int(image, base)] = ord(letter)
    return bytes(table)


# (images, base, key column or None); key_table_cases adds a table that
# maps two codes to one letter
KEY_TABLES = [({"0": "01", "1": "10"}, 2, 0),                 # Morse
              ({"0": "01", "1": "00"}, 2, 1),                 # period-doubling
              ({"0": "01", "1": "12", "2": "20"}, 3, 0),
              ({"0": "00", "1": "01", "2": "10"}, 3, None),
              ({"0": "011", "1": "101", "2": "110"}, 3, None),
              ({"0": "100", "1": "010", "2": "120"}, 3, 1),
              ({"0": "1", "2": "0"}, 3, 0)]


def key_table_cases():
    for images, base, key in KEY_TABLES:
        yield pytest.param(decode_table(images, base),
                           len(next(iter(images.values()))), base, key,
                           id="%s-base%d" % ("".join(images.values()), base))
    yield pytest.param(bytes([0xFF, 48, 48, 0xFF]), 2, 2, 0,
                       id="two-codes-one-letter")


@pytest.mark.parametrize("table,block_len,base,key", key_table_cases())
def test_decode_blocks_key_column(table, block_len, base, key):
    # the key column gives the same words as the per-block loop, and
    # refuses the same words, at every start and fault position
    found = kernels._key_column(table, block_len, base)
    assert (found[0] if found else None) == key
    rng = random.Random(block_len * 10 + base)
    mapped = [c for c in range(base ** block_len) if table[c] != 0xFF]
    unmapped = [c for c in range(base ** block_len) if table[c] == 0xFF]
    body = b"".join(block(rng.choice(mapped), block_len, base)
                    for _ in range(60))
    word = random_word(rng, base, block_len - 1) + body + \
        random_word(rng, base, block_len - 1)
    for start in range(len(word) + 1):
        assert outcome(kernels.decode_blocks, word, start, block_len, table,
                       base) == \
            outcome(naive_decode, word, start, block_len, table, base)
    traps = INT_TRAPS + bytes([47, 48 + base, 58, 0x80, 0xFF])
    for at in range(0, len(word), 5):
        # a whole block of 0xFF bytes matches the other columns' UNSET
        # expectations, so only the key column's entries reject it
        patches = [traps[at % len(traps):][:1],
                   block(rng.choice(unmapped), block_len, base),
                   b"\xff" * block_len]
        for patch in patches:
            bad = word[:at] + patch + word[at + len(patch):]
            for start in range(block_len):
                assert outcome(kernels.decode_blocks, bad, start, block_len,
                               table, base) == \
                    outcome(naive_decode, bad, start, block_len, table, base)


@pytest.mark.parametrize("table,block_len,base,key", key_table_cases())
def test_decode_blocks_key_column_long_word(table, block_len, base, key):
    # the first bad block or foreign symbol lies past the first
    # CHUNK_BLOCKS blocks
    rng = random.Random(base)
    mapped = [block(c, block_len, base) for c in range(base ** block_len)
              if table[c] != 0xFF]
    count = 3 * kernels.CHUNK_BLOCKS + 5
    word = b"0" + b"".join(rng.choice(mapped) for _ in range(count))
    assert kernels.decode_blocks(word, 1, block_len, table, base) == \
        naive_decode(word, 1, block_len, table, base)
    unmapped = block(table.index(0xFF), block_len, base)
    index = kernels.CHUNK_BLOCKS + 7
    late = 1 + index * block_len
    later = late + kernels.CHUNK_BLOCKS * block_len
    for patches in [{late: unmapped}, {late + block_len - 1: b"+"},
                    {late: unmapped, later: b"\xff"},
                    {late: b"\xff", later: unmapped}, {len(word) - 1: b"9"}]:
        bad = bytearray(word)
        for at, patch in patches.items():
            bad[at:at + len(patch)] = patch
        bad = bytes(bad)
        assert outcome(kernels.decode_blocks, bad, 1, block_len, table,
                       base) == \
            outcome(naive_decode, bad, 1, block_len, table, base) == \
            "ValueError"


def test_decode_blocks_key_column_skips_lookup(monkeypatch):
    # valid Morse and period-doubling words are decoded by their key
    # column alone, through several chunks and to the top of the tower
    def no_lookup(*args):
        raise AssertionError("_lookup reached")

    for name in ("morse", "period-doubling"):
        system = get_system(name)
        table = system._block_decode_table()
        word = system.test_word(1 << 17).encode()
        want = [naive_decode(word, 0, 2, table, 2)]
        while len(want[-1]) >= 2:
            want.append(naive_decode(want[-1], 0, 2, table, 2))
        with monkeypatch.context() as patched:
            patched.setattr(kernels, "_lookup", no_lookup)
            got = [kernels.decode_blocks(word, 0, 2, table, 2)]
            while len(got[-1]) >= 2:
                got.append(kernels.decode_blocks(got[-1], 0, 2, table, 2))
        assert got == want


@pytest.mark.parametrize("name", ["morse", "period-doubling"])
def test_a_failing_key_column_decode_makes_no_lookup(monkeypatch, name):
    # a chunk that fails ends the decode: _lookup is not asked where the
    # fault lies, in the first chunk or a later one
    calls = []
    lookup = kernels._lookup
    monkeypatch.setattr(kernels, "_lookup",
                        lambda *args: calls.append(args) or lookup(*args))
    system = get_system(name)
    table = system._block_decode_table()
    word = system.test_word(6 * kernels.CHUNK_BLOCKS).encode()
    unmapped = block(table.index(0xFF), 2, 2)
    for at in (0, 8, 4 * kernels.CHUNK_BLOCKS + 6, len(word) - 2):
        for patch in (unmapped, b"2", b"+", b"\xff"):
            bad = word[:at] + patch + word[at + len(patch):]
            assert outcome(kernels.decode_blocks, bad, 0, 2, table, 2) == \
                outcome(naive_decode, bad, 0, 2, table, 2) == "ValueError"
    assert calls == []
