#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python fallback.

Workloads mirror the package's hot paths: sliding a radius-2 local rule
along a long Thue-Morse prefix (code enumeration and verification),
mismatch profiles of two long windows (pair classification at H = 2^16),
and 2-block decoding (odometer addresses).  Whole `classify_pair` calls
on the three kinds of seam pair at the same H are timed too, on the
backend the package selected.

The window scan `words.first_windows` is timed through its callers
(`joint_language` at L = 32, T = 2^16, and a cold `language(64)` of each
built-in system) and against the plain per-position loop on a random
binary word of 2^17 symbols, where long repeats are rare (its worst
case; no caller feeds it such a word).

Usage: python benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import random
import time

from minflow import kernels
from minflow.codes import shift_code
from minflow.joins import joint_language
from minflow.kernels import backends
from minflow.pairs import classify_pair
from minflow.points import point_from_address, seam_points
from minflow.words import REGISTRY, first_windows, get_system


def best_of(repeat, fn, *args):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def naive_first_windows(word, width):
    """The per-position loop `first_windows` replaces."""
    first = {}
    for n in range(len(word) - width + 1):
        key = word[n:n + width]
        if key not in first:
            first[key] = n
    return first


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


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--size", type=int, default=1 << 20)
    args = parser.parse_args()

    morse = get_system("morse")
    word = morse.test_word(args.size).encode()
    code = shift_code(morse, 1, radius=2)
    table = code._rule_table()
    seam = seam_points(morse)
    h, l = 1 << 16, 64
    a = seam["mu"].window(-h - l, h + l).encode()
    b = seam["nu"].window(-h - l, h + l).encode()
    decode_table = morse._block_decode_table()

    workloads = [
        ("apply_rule  r=2, %.1e syms" % len(word),
         lambda impl: impl.apply_rule(word, 2, table, 2)),
        ("window_diffs H=2^16, L=64",
         lambda impl: impl.window_diffs(a, b, 2 * l + 1)),
        ("decode_blocks %.1e syms" % len(word),
         lambda impl: impl.decode_blocks(word, 0, 2, decode_table, 2)),
    ]

    impls = backends()
    print("kernel backends available: %s" % ", ".join(sorted(impls)))
    print()
    print("%-32s" % "workload", *("%12s" % n for n in sorted(impls)),
          "%10s" % "speedup")
    for name, fn in workloads:
        times = {n: best_of(args.repeat, fn, impl)
                 for n, impl in impls.items()}
        row = ["%-32s" % name]
        row += ["%10.2fms" % (times[n] * 1e3) for n in sorted(impls)]
        if "compiled" in times and "pure" in times:
            row.append("%9.1fx" % (times["pure"] / times["compiled"]))
        print(*row)

    print()
    print("classify_pair H=2^16, L=64 on the %s kernels" % kernels.BACKEND)
    for first, second in (("mu", "nu"), ("mu", "nu_prime"),
                          ("mu", "mu_prime")):
        t = best_of(args.repeat, classify_pair, seam[first], seam[second],
                    h, l)
        verdict = classify_pair(seam[first], seam[second], h, l).verdict
        print("%-32s %10.2fms  %s" % ("  %s,%s" % (first, second), t * 1e3,
                                       verdict))

    bench_windows(args.repeat, seam, morse)

    for n, impl in sorted(impls.items()):
        got = impl.apply_rule(word[:64], 2, table, 2)
        assert got == word[3:63], "backend %s disagrees" % n
    print()
    print("consistency check: backends agree on a shared workload")


if __name__ == "__main__":
    main()
