import random

import pytest

from minflow import kernels


def naive_apply(word, radius, table, base):
    width = 2 * radius + 1
    out = []
    for i in range(len(word) - width + 1):
        code = 0
        for c in word[i:i + width]:
            code = code * base + (c - 48)
        t = table[code]
        if t == 0xFF:
            raise ValueError
        out.append(t)
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
    """fn's result, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return "ValueError: %s" % exc


def test_backend_selection():
    assert kernels.BACKEND in ("pure", "compiled")
    assert "pure" in kernels.backends()


@pytest.mark.parametrize("name", sorted(kernels.backends()))
def test_apply_rule_matches_naive(name):
    impl = kernels.backends()[name]
    rng = random.Random(0)
    for radius in (0, 1, 2):
        width = 2 * radius + 1
        table = bytes(rng.randrange(2) + 48 for _ in range(2 ** width))
        word = bytes(rng.randrange(2) + 48 for _ in range(200))
        assert impl.apply_rule(word, radius, table, 2) == \
            naive_apply(word, radius, table, 2)


@pytest.mark.parametrize("name", sorted(kernels.backends()))
def test_apply_rule_errors(name):
    impl = kernels.backends()[name]
    with pytest.raises(ValueError):
        impl.apply_rule(b"01", 1, bytes(8), 2)          # too short
    with pytest.raises(ValueError):
        impl.apply_rule(b"0120", 0, b"00", 2)           # foreign symbol
    table = bytes([48, 0xFF])
    with pytest.raises(ValueError):
        impl.apply_rule(b"001", 0, table, 2)            # unmapped block


@pytest.mark.parametrize("name", sorted(kernels.backends()))
def test_window_diffs_matches_naive(name):
    impl = kernels.backends()[name]
    rng = random.Random(1)
    a = bytes(rng.randrange(2) + 48 for _ in range(300))
    b = bytes(rng.randrange(2) + 48 for _ in range(300))
    for width in (1, 7, 33):
        assert impl.window_diffs(a, b, width) == naive_diffs(a, b, width)
    assert impl.window_diffs(a, a, 9) == [0] * 292
    c = bytes(rng.randrange(3) + 48 for _ in range(300))
    d = bytes(rng.randrange(3) + 48 for _ in range(300))
    for width in (1, 7, 300):
        assert impl.window_diffs(c, d, width) == naive_diffs(c, d, width)
    with pytest.raises(ValueError, match="length mismatch"):
        impl.window_diffs(a, b[:-1], 3)
    with pytest.raises(ValueError, match="bad window width"):
        impl.window_diffs(a, b, 0)
    with pytest.raises(ValueError, match="bad window width"):
        impl.window_diffs(a, b, 301)
    a = bytes(rng.randrange(2) + 48 for _ in range(1 << 17))
    b = bytes(x ^ (rng.random() < 0.1) for x in a)
    assert impl.window_diffs(a, b, 129) == naive_diffs(a, b, 129)


@pytest.mark.parametrize("name", sorted(kernels.backends()))
def test_decode_blocks(name):
    impl = kernels.backends()[name]
    # Thue-Morse inverse table: 01 -> 0, 10 -> 1
    table = bytearray(b"\xff" * 4)
    table[0b01] = ord("0")
    table[0b10] = ord("1")
    table = bytes(table)
    assert impl.decode_blocks(b"01101001", 0, 2, table, 2) == b"0110"
    assert impl.decode_blocks(b"101101001", 1, 2, table, 2) == b"0110"
    assert impl.decode_blocks(b"0110100", 0, 2, table, 2) == b"011"
    with pytest.raises(ValueError):
        impl.decode_blocks(b"0110", 0, 2, b"\xff" * 4, 2)
    with pytest.raises(ValueError):
        impl.decode_blocks(b"0011", 0, 2, table, 2)     # 00 not an image


def block(code, block_len, base):
    """The block whose base-`base` value is `code`."""
    return bytes(48 + code // base ** (block_len - 1 - j) % base
                 for j in range(block_len))


@pytest.mark.parametrize("name", sorted(kernels.backends()))
@pytest.mark.parametrize("block_len,base", [(2, 2), (3, 2), (2, 3), (3, 3),
                                            (9, 2), (6, 3)])
def test_decode_blocks_matches_naive(name, block_len, base):
    impl = kernels.backends()[name]
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
            assert outcome(impl.decode_blocks, word, start, block_len,
                           table, base) == \
                outcome(naive_decode, word, start, block_len, table, base)
        got = impl.decode_blocks(word, lead, block_len, table, base)
        assert len(got) == 40 and got == \
            naive_decode(word, lead, block_len, table, base)
        assert impl.decode_blocks(word, len(word), block_len, table,
                                  base) == b""
    # foreign symbols, unmapped blocks, and both in one word
    unmapped = block(table.index(0xFF), block_len, base)
    for word, message in [
            (body[:5] + b"7" + body[6:], "symbol outside alphabet at 5"),
            (body[:5] + b"/" + body[6:], "symbol outside alphabet at 5"),
            (body[:block_len] + unmapped + body,
             "block 1 is not a substitution image"),
            (body[:block_len] + unmapped + b"9" + body,
             "block 1 is not a substitution image"),
            (body[:block_len] + b"9" + unmapped + body,
             "symbol outside alphabet at %d" % block_len)]:
        for start in (0, 1):
            assert outcome(impl.decode_blocks, word, start, block_len,
                           table, base) == \
                outcome(naive_decode, word, start, block_len, table, base)
        assert outcome(impl.decode_blocks, word, 0, block_len, table,
                       base) == "ValueError: " + message
    for start in (-1, len(body) + 1):
        with pytest.raises(ValueError, match="bad start"):
            impl.decode_blocks(body, start, block_len, table, base)


@pytest.mark.parametrize("name", sorted(kernels.backends()))
def test_decode_blocks_long_word(name):
    # long enough that a pure backend may decode it in several passes;
    # error positions and block indices count over the whole word
    impl = kernels.backends()[name]
    table = bytes([0xFF, 48, 49, 0xFF])
    rng = random.Random(3)
    body = b"".join(rng.choice((b"01", b"10")) for _ in range(1 << 17))
    word = b"1" + body + b"0"
    assert impl.decode_blocks(word, 1, 2, table, 2) == \
        naive_decode(word, 1, 2, table, 2)
    for at, patch, message in [
            (200001, b"11", "block 100000 is not a substitution image"),
            (200002, b"2", "symbol outside alphabet at 200002")]:
        bad = word[:at] + patch + word[at + len(patch):]
        assert outcome(impl.decode_blocks, bad, 1, 2, table, 2) == \
            outcome(naive_decode, bad, 1, 2, table, 2) == \
            "ValueError: " + message


def test_backends_agree_on_random_workloads():
    impls = kernels.backends()
    if len(impls) < 2:
        pytest.skip("compiled backend unavailable")
    rng = random.Random(2)
    word = bytes(rng.randrange(2) + 48 for _ in range(5000))
    other = bytes(rng.randrange(2) + 48 for _ in range(5000))
    table = bytes(rng.randrange(2) + 48 for _ in range(32))
    results = set()
    for impl in impls.values():
        results.add((impl.apply_rule(word, 2, table, 2),
                     tuple(impl.window_diffs(word, other, 65))))
    assert len(results) == 1
