#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python fallback.

Workloads mirror the package's hot paths: sliding a radius-2 local rule
along a long Thue-Morse prefix (code enumeration and verification),
mismatch profiles of two long windows (pair classification at H = 2^16),
and 2-block decoding (odometer addresses).  Whole `classify_pair` calls
on the three kinds of seam pair at the same H are timed too, on the
backend the package selected.

Usage: python benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import time

from minflow import kernels
from minflow.codes import shift_code
from minflow.kernels import backends
from minflow.pairs import classify_pair
from minflow.points import seam_points
from minflow.words import get_system


def best_of(repeat, fn, *args):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


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

    for n, impl in sorted(impls.items()):
        got = impl.apply_rule(word[:64], 2, table, 2)
        assert got == word[3:63], "backend %s disagrees" % n
    print()
    print("consistency check: backends agree on a shared workload")


if __name__ == "__main__":
    main()
