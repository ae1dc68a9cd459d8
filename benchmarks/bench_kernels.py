#!/usr/bin/env python3
"""Benchmark the kernels against the per-symbol loops they replaced.

Workloads mirror the package's hot paths: sliding local rules of radius
0..3 along a long Thue-Morse prefix (the block ids that code enumeration
and verification read), plus one radius-4 rule whose codes do not fit a
byte; mismatch profiles
and the first and last mismatch of two long windows (pair
classification at H = 2^16); and 2-block decoding (odometer addresses).
Each kernel is checked against its loop and timed beside it.  Whole
`classify_pair` calls on the three kinds of seam pair at the same H are
timed too.

The window scan `words.first_windows` is timed through its callers
(`joint_language` at L = 32, T = 2^16, and a cold `language(64)` of each
built-in system) and against the plain per-position loop on a random
binary word of 2^17 symbols, where long repeats are rare (its worst
case; no caller feeds it such a word).  A cold `language(16)`, the top
level an enumeration requests, is built with every level below it on
each fresh built-in system twice: by one request per level from 1 up
(each level read off the images) and by one request at 16 (that level
read off the images, the lower ones derived by truncation).  An
enumeration derives only the lower levels it reads (its blocks, its
short words and their images), so the full tower bounds its cost.

Iterated images sigma^20(a) of each Morse and Fibonacci letter are built
through `Substitution.powers` (one join per letter of the rule and level)
and beside them by the per-symbol loop it replaced.

Level towers decode a 2^19-symbol Morse and period-doubling fixed-point
prefix level by level to the top, through `decode_blocks` (its key
column), through the window lookup alone (the path that tables without a
key column take) and by the per-block loop.

Addresses of shifted Morse seam points at levels 12..16 are timed
through `factors.address`, which reads only each level's parsed blocks,
and through `AddressOracle` of `tests/test_factors.py`, the
level-by-level decode it replaced; both give the same digits first.
Where the tests do not import (no pytest), this case alone is skipped.

Usage: python benchmarks/bench_kernels.py [--repeat N] [--size N]
"""

import argparse
import itertools
import os
import random
import sys
import time

from minflow import kernels
from minflow.codes import shift_code
from minflow.factors import address
from minflow.joins import joint_language
from minflow.pairs import classify_pair
from minflow.points import point_from_address, seam_points
from minflow.words import REGISTRY, dense_table, first_windows, get_system


def best_of(repeat, fn, *args):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def naive_apply(word, radius, table, base):
    """apply_rule one symbol at a time, with a rolling block code."""
    width = 2 * radius + 1
    high = base ** (width - 1)
    code = 0
    for d in word[:width]:
        code = code * base + d - 48
    out = bytearray(len(word) - width + 1)
    for i in range(len(out)):
        if i:
            code = (code % high) * base + word[i + width - 1] - 48
        out[i] = table[code]
    return bytes(out)


def naive_diffs(a, b, width):
    """window_diffs with a running mismatch count."""
    run = sum(x != y for x, y in zip(a[:width], b[:width]))
    out = [run]
    for i in range(1, len(a) - width + 1):
        run += (a[i + width - 1] != b[i + width - 1]) - (a[i - 1] != b[i - 1])
        out.append(run)
    return out


def naive_ends(a, b):
    """mismatch_ends by a per-symbol scan."""
    differ = [i for i in range(len(a)) if a[i] != b[i]]
    return (differ[0], differ[-1]) if differ else (-1, -1)


def naive_decode(word, start, block_len, table, base):
    """decode_blocks one block, and one symbol, at a time."""
    out = bytearray()
    for pos in range(start, len(word) - block_len + 1, block_len):
        code = 0
        for d in word[pos:pos + block_len]:
            code = code * base + d - 48
        out.append(table[code])
    return bytes(out)


def naive_first_windows(word, width):
    """The per-position loop `first_windows` replaces."""
    first = {}
    for n in range(len(word) - width + 1):
        key = word[n:n + width]
        if key not in first:
            first[key] = n
    return first


def levels_read_each(name, top):
    """language(1..top) of a fresh system, requested from 1 up."""
    system = REGISTRY[name]()
    return [system.language(m) for m in range(1, top + 1)]


def levels_derived(name, top):
    """language(1..top) of a fresh system, the top level requested first."""
    system = REGISTRY[name]()
    system.language(top)
    return [system.language(m) for m in range(1, top + 1)]


def naive_power(sub, letter, level):
    """sigma^level(letter), substituting one symbol at a time."""
    word = letter
    for _ in range(level):
        word = "".join(sub.rule[c] for c in word)
    return word


def nth_power(sub, level):
    return next(itertools.islice(sub.powers(), level, None))


def bench_powers(repeat, level=20):
    print()
    print("iterated images sigma^%d of every letter: powers() against the "
          "per-symbol loop" % level)
    print("%-32s %12s %12s %9s" % ("system (symbols)", "loop", "powers",
                                    "speedup"))
    for name in ("morse", "fibonacci"):
        sub = get_system(name).substitution
        images = nth_power(sub, level)
        for letter in sub.alphabet:
            assert images[letter] == naive_power(sub, letter, level), \
                (name, letter)
        t_loop = sum(best_of(repeat, naive_power, sub, letter, level)
                     for letter in sub.alphabet)
        t_fast = best_of(repeat, nth_power, sub, level)
        label = "  %s (%d)" % (name, sum(map(len, images.values())))
        print("%-32s %10.2fms %10.2fms %8.1fx" % (label, t_loop * 1e3,
                                                  t_fast * 1e3,
                                                  t_loop / t_fast))


def bench_windows(repeat, seam, morse):
    print()
    print("joint_language L=32, T=2^16")
    x0 = point_from_address(morse, tuple(j % 2 for j in range(20)), "0")
    for label, p, q in (("mu,nu", seam["mu"], seam["nu"]),
                        ("x0,shift(x0,3)", x0, x0.shift(3))):
        p.window(-32, (1 << 16) + 32)       # build the points' buffers
        q.window(-32, (1 << 16) + 32)
        t = best_of(repeat, joint_language, p, q, 32, 1 << 16)
        print("%-32s %10.2fms" % ("  " + label, t * 1e3))

    print()
    print("cold language(64): a fresh system per run")
    for name in sorted(REGISTRY):
        t = best_of(repeat, lambda: REGISTRY[name]().language(64))
        print("%-32s %10.2fms" % ("  " + name, t * 1e3))

    print()
    print("cold language(16): every level read off the images against "
          "the top one read and the rest derived")
    print("%-32s %12s %12s %9s" % ("system", "per level", "derived",
                                    "speedup"))
    for name in sorted(REGISTRY):
        assert levels_derived(name, 16) == levels_read_each(name, 16), \
            name
        t_each = best_of(repeat, levels_read_each, name, 16)
        t_derived = best_of(repeat, levels_derived, name, 16)
        print("%-32s %10.2fms %10.2fms %8.1fx" % ("  " + name, t_each * 1e3,
                                                  t_derived * 1e3,
                                                  t_each / t_derived))

    print()
    print("first_windows against the per-position loop, random binary "
          "word of 2^17 symbols")
    rng = random.Random(20190609)
    word = "".join(rng.choice("01") for _ in range(1 << 17))
    print("%-32s %12s %12s %9s" % ("width", "loop", "first_windows",
                                    "ratio"))
    for width in (3, 8, 20, 65):
        assert list(first_windows(word, width).items()) == \
            list(naive_first_windows(word, width).items())
        loop = best_of(repeat, naive_first_windows, word, width)
        fast = best_of(repeat, first_windows, word, width)
        print("%-32s %10.2fms %10.2fms %8.2fx" % ("  %d" % width, loop * 1e3,
                                                  fast * 1e3, fast / loop))


def tower(decode, word, table):
    """Every level of the decoding of `word` to a single symbol."""
    levels = [word]
    while len(levels[-1]) >= 2:
        levels.append(decode(levels[-1], 0, 2, table, 2))
    return levels


def lookup_decode(word, start, block_len, table, base):
    """decode_blocks through the window lookup alone."""
    return kernels._lookup(word, start, (len(word) - start) // block_len,
                           block_len, block_len, table, base)


def bench_towers(repeat, size=1 << 19):
    print()
    print("level towers of a %d-symbol fixed-point prefix, decoded to the "
          "top" % size)
    print("%-32s %12s %12s %12s" % ("system (key column)", "loop",
                                    "lookup", "decode_blocks"))
    for name in ("morse", "period-doubling"):
        system = get_system(name)
        table = system._block_decode_table()
        word = system.test_word(size).encode()
        want = tower(naive_decode, word, table)
        assert tower(kernels.decode_blocks, word, table) == want, name
        assert tower(lookup_decode, word, table) == want, name
        times = [best_of(repeat, tower, decode, word, table)
                 for decode in (naive_decode, lookup_decode,
                                kernels.decode_blocks)]
        label = "  %s (%d)" % (name, kernels._key_column(table, 2, 2)[0])
        print("%-32s %10.2fms %10.2fms %10.2fms" % (
            label, *(t * 1e3 for t in times)))


def bench_addresses(repeat, count=32):
    # the oracle lives with the tests, which need pytest: without it
    # only this case is skipped
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(
        __file__)), os.pardir, "tests"))
    try:
        from test_factors import AddressOracle
    except ImportError as exc:
        print()
        print("Morse addresses skipped: tests/test_factors.py does not "
              "import (%s)" % exc)
        return

    morse = get_system("morse")
    oracle = AddressOracle(morse)
    mu = seam_points(morse)["mu"]
    rng = random.Random(28)
    shifted = [mu.shift(rng.randint(-1 << 16, 1 << 16))
               for _ in range(count)]
    print()
    print("Morse addresses of %d shifted seam points, best of %d per point"
          % (count, repeat))
    print("%-32s %12s %12s %9s" % ("level", "decode", "address",
                                    "speedup"))
    for k in range(12, 17):
        for p in shifted:
            assert address(morse, p, k) == oracle.address(p, k), k
        t_old = sum(best_of(repeat, oracle.address, p, k) for p in shifted)
        t_new = sum(best_of(repeat, address, morse, p, k) for p in shifted)
        print("%-32s %10.1fus %10.1fus %8.1fx" % (
            "  k=%d" % k, t_old / count * 1e6, t_new / count * 1e6,
            t_old / t_new))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--size", type=int, default=1 << 20)
    args = parser.parse_args()

    morse = get_system("morse")
    word = morse.test_word(args.size).encode()
    seam = seam_points(morse)
    h, l = 1 << 16, 64
    a = seam["mu"].window(-h - l, h + l).encode()
    b = seam["nu"].window(-h - l, h + l).encode()
    decode_table = morse._block_decode_table()

    workloads = []
    for radius in (0, 1, 2, 3, 4):
        rule = shift_code(morse, min(radius, 1), radius=radius).rule
        table = bytes(dense_table(rule.items(), 2, 2 * radius + 1,
                                  "a radius-%d rule table" % radius))
        workloads.append((
            "apply_rule r=%d, %.1e syms" % (radius, len(word)),
            kernels.apply_rule, naive_apply, (word, radius, table, 2)))
    workloads += [
        ("window_diffs H=2^16, L=64", kernels.window_diffs, naive_diffs,
         (a, b, 2 * l + 1)),
        ("mismatch_ends H=2^16, L=64", kernels.mismatch_ends, naive_ends,
         (a, b)),
        ("decode_blocks %.1e syms" % len(word), kernels.decode_blocks,
         naive_decode, (word, 0, 2, decode_table, 2)),
    ]

    print("%-32s %12s %12s %9s" % ("kernel (r=4: codes above a byte)",
                                    "loop", "kernel", "speedup"))
    for name, fast, loop, kargs in workloads:
        assert fast(*kargs) == loop(*kargs), name
        t_loop = best_of(args.repeat, loop, *kargs)
        t_fast = best_of(args.repeat, fast, *kargs)
        print("%-32s %10.2fms %10.2fms %8.1fx" % (name, t_loop * 1e3,
                                                  t_fast * 1e3,
                                                  t_loop / t_fast))

    print()
    print("classify_pair H=2^16, L=64")
    for first, second in (("mu", "nu"), ("mu", "nu_prime"),
                          ("mu", "mu_prime")):
        t = best_of(args.repeat, classify_pair, seam[first], seam[second],
                    h, l)
        verdict = classify_pair(seam[first], seam[second], h, l).verdict
        print("%-32s %10.2fms  %s" % ("  %s,%s" % (first, second), t * 1e3,
                                       verdict))

    bench_windows(args.repeat, seam, morse)
    bench_powers(args.repeat)
    bench_towers(args.repeat)
    bench_addresses(args.repeat)


if __name__ == "__main__":
    main()
