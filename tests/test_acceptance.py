"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Tolerances are exact
unless a criterion states otherwise.  The runtime targets are gates that
hold under a plain `PYTHONPATH=src`, with no build step.
"""

import random
import time
from fractions import Fraction

import pytest

from minflow.codes import classify_aut_group, enumerate_endomorphisms
from minflow.factors import (OdometerAddress, address, fiber_census,
                             word_frequencies)
from minflow.joins import (coalescence_check, dichotomy, joint_address_profile,
                           joint_language, odometer_sr_witness, sr_report)
from minflow.pairs import (DISTAL, NEGATIVE, POSITIVE, asymptotic_collapse,
                           classify_pair, distal_certificate)
from minflow.points import fixed_point, point_from_address, seam_points
from minflow.words import flip_word, get_system


def report(criterion, text):
    print("ACCEPTANCE %2d PASS  %s" % (criterion, text))


@pytest.fixture(scope="module")
def morse():
    return get_system("morse")


@pytest.fixture(scope="module")
def seam(morse):
    return seam_points(morse)


@pytest.fixture(scope="module")
def x0(morse):
    # the alternating-address base point, determined far beyond T = 2^16
    return point_from_address(morse, tuple(j % 2 for j in range(18)), "0")


@pytest.fixture(scope="module")
def x0_certificate(x0):
    cert = distal_certificate(x0, level=12)
    assert cert.granted
    return cert


def test_criterion_01_morse_automorphism_census(morse):
    t0 = time.monotonic()
    counts = []
    for r in range(4):
        codes = enumerate_endomorphisms(morse, r, check_len=4096)
        counts.append(len(codes))
        forms = {c.normal_form for c in codes}
        assert None not in forms, "every code must match a normal form"
        assert forms == {(k, e) for k in range(-r, r + 1) for e in (0, 1)}
    elapsed = time.monotonic() - t0
    assert counts == [2, 6, 10, 14]
    assert elapsed < 60
    report(1, "Morse census r=0..3 -> %s, all normal forms (%.1fs)"
           % (counts, elapsed))


def test_criterion_02_morse_coalescence(morse):
    for r in (0, 1, 2):
        result = coalescence_check(morse, r, check_len=4096)
        assert result["flagged"] == []
    report(2, "Morse endomorphisms at r<=2 all invert (0 flagged)")


def test_criterion_03_sturmian_triviality():
    fib = get_system("fibonacci")
    for r in range(4):
        codes = enumerate_endomorphisms(fib, r, check_len=4096)
        assert len(codes) == 2 * r + 1
        assert {c.normal_form for c in codes} == \
            {(k, 0) for k in range(-r, r + 1)}
    verdict = sr_report("fibonacci", radius=2)
    assert verdict["summary"] == "not SR (evidence)"
    assert verdict["realized_group"]["shape"] == "Z"
    report(3, "Fibonacci r<=3 -> 1,3,5,7 shift codes; 'not SR (evidence)'")


def test_criterion_04_asymptotic_pairs(seam):
    h, l = 1 << 16, 64
    got = classify_pair(seam["mu"], seam["nu"], h, l)
    assert got.verdict == POSITIVE and got.witness_time is not None
    pos_witness = got.witness_time
    got = classify_pair(seam["nu"], seam["mu_prime"], h, l)
    assert got.verdict == NEGATIVE and got.witness_time is not None
    report(4, "(mu,nu) positively (n0=%d), (nu,mu') negatively (n1=%d) "
              "at H=2^16, L=64" % (pos_witness, got.witness_time))


def test_criterion_05_idempotent_collapse_patterns(seam):
    fwd = asymptotic_collapse(seam, "forward")
    bwd = asymptotic_collapse(seam, "backward")
    assert fwd.classes == (("mu", "nu"), ("mu_prime", "nu_prime"))
    assert bwd.classes == (("mu", "nu_prime"), ("mu_prime", "nu"))
    assert fwd.classes != bwd.classes
    assert all(len(c) == 2 for c in fwd.classes + bwd.classes)
    report(5, "forward %s != backward %s" % (list(fwd.classes),
                                             list(bwd.classes)))


def test_criterion_06_odometer_factor(morse, seam):
    t0 = time.monotonic()
    mu = seam["mu"]
    rng = random.Random(20190609)
    base = {}
    for _ in range(10 ** 4):
        k = rng.randint(1, 16)
        m = rng.randint(-(1 << 16), 1 << 16)
        if k not in base:
            base[k] = address(morse, mu, k)
        got = address(morse, mu.shift(m), k)
        assert got.digits == base[k].plus(m).digits
    seam_census = fiber_census(morse, OdometerAddress((0,) * 16), 16)
    assert seam_census.cardinality == 4
    assert seam_census.quotient_cardinality == 2
    for _ in range(20):
        digits = [rng.randint(0, 1) for _ in range(16)]
        digits[-1] = 1 - digits[-2]     # break a constant tail
        census = fiber_census(morse, OdometerAddress(tuple(digits)), 16)
        assert census.stabilized
        assert census.quotient_cardinality == 1
        assert census.cardinality == 2
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    report(6, "equivariance 10^4 shifts k<=16 exact; census 4/2 at seam, "
              "2/1 off seam (%.1fs)" % elapsed)


def test_criterion_07_dichotomy_experiment(morse, x0, x0_certificate):
    t0 = time.monotonic()
    for k in range(-8, 9):
        for eps in (0, 1):
            x = x0.shift(k)
            if eps:
                x = x.flip()
            verdict = dichotomy(x0, x, resolution=32, steps=1 << 16,
                                radius_budget=8, certificate=x0_certificate)
            assert verdict.case == "case2", (k, eps, verdict.note)
            assert verdict.code.normal_form == (k, eps)
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    report(7, "34 dichotomies all Case 2 with exact shift/flip codes "
              "(%.1fs)" % elapsed)


def test_criterion_08_equicontinuity_pruning(morse, x0):
    for k, eps in ((5, 0), (-3, 1), (8, 1)):
        x = x0.shift(k)
        if eps:
            x = x.flip()
        joint = joint_language(x0, x, 32, 1 << 16)
        profile = joint_address_profile(joint, levels=12, samples=32)
        assert profile["constant"]
        assert profile["difference"] == (-k) % (1 << 12)
        low = joint_address_profile(joint, levels=4, samples=8)
        assert low["constant"] and low["difference"] == (-k) % 16
    report(8, "address difference constant mod 2^k (k<=12) across observed "
              "times in every computed W")


def test_criterion_09_measure_invariance(morse):
    steps = 1 << 18
    table = word_frequencies(morse, 2, steps)
    tol = Fraction(2, steps)
    for w, _ in table.counts:
        assert abs(table.frequency(w) - table.frequency(flip_word(w))) <= tol
    for power in (10, 14, 18):
        ones = word_frequencies(morse, 1, 1 << power)
        assert ones.frequency("0") == Fraction(1, 2)
        assert ones.frequency("1") == Fraction(1, 2)
    report(9, "length-2 frequencies flip-invariant within 2/2^18; "
              "freq(0)=1/2 exactly on power-of-two prefixes")


def test_criterion_10_odometer_sr_witness():
    for k in range(11):
        witness = odometer_sr_witness(k)
        assert witness["translation_count"] == 2 ** k
    report(10, "levels k<=10 realize exactly 2^k commuting translations")

