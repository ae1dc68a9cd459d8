import collections
import itertools
import random

import pytest

from minflow.errors import DomainError, UndeterminedError
from minflow.pairs import (DISTAL, DOUBLE, NEGATIVE, POSITIVE, PROXIMAL,
                           PairClassification, asymptotic_collapse,
                           classify_pair, distal_certificate)
from minflow.points import point_from_address, seam_points
from minflow.words import Substitution, SubshiftSystem


@pytest.fixture(scope="module")
def seam(morse):
    return seam_points(morse)


def naive_classify(p, q, horizon, resolution):
    """classify_pair the plain way: a running mismatch count per window,
    then a scan of every window for the first and last bad one."""
    H, L = horizon, resolution
    a = p.window(-H - L, H + L)
    b = q.window(-H - L, H + L)
    width = 2 * L + 1
    run = sum(x != y for x, y in zip(a[:width], b[:width]))
    diffs = [run]
    for i in range(1, len(a) - width + 1):
        run += (a[i + width - 1] != b[i + width - 1]) - (a[i - 1] != b[i - 1])
        diffs.append(run)
    n = len(diffs)
    sep = min(diffs)
    last_bad = None
    first_bad = None
    for i in range(n):
        if diffs[i]:
            first_bad = i if first_bad is None else first_bad
            last_bad = i
    if last_bad is None:
        return PairClassification(DOUBLE, H, L, -H, 0)
    pos_from = (last_bad + 1) - H
    neg_to = (first_bad - 1) - H
    positive = last_bad + 1 < n and pos_from <= H // 2
    negative = first_bad > 0 and neg_to >= -(H // 2)
    if positive and negative:
        return PairClassification(DOUBLE, H, L, pos_from, 0)
    if positive:
        return PairClassification(POSITIVE, H, L, pos_from, 0)
    if negative:
        return PairClassification(NEGATIVE, H, L, neg_to, 0)
    if sep == 0:
        zeros = [i - H for i in range(n) if diffs[i] == 0]
        witness = min(zeros, key=lambda t: (abs(t), t < 0))
        return PairClassification(PROXIMAL, H, L, witness, 0)
    return PairClassification(DISTAL, H, L, None, sep)


class StubPoint:
    """A point whose window over [-H-L, H+L] is the fixed string `text`."""

    system = object()

    def __init__(self, text):
        self.text = text

    def window(self, lo, hi):
        assert hi - lo + 1 == len(self.text)
        return self.text


def random_pair(rng, H, L, base):
    """Two windows of length 2H+2L+1 over `base` symbols, mismatching in
    one of several patterns so that every verdict turns up."""
    size = 2 * (H + L) + 1
    a = [rng.randrange(base) for _ in range(size)]
    b = list(a)
    mode = rng.randrange(6)  # 0: identical
    if mode == 1:            # independent
        b = [rng.randrange(base) for _ in range(size)]
    elif mode == 2:          # a few isolated mismatches
        for _ in range(rng.randint(1, 3)):
            b[rng.randrange(size)] = rng.randrange(base)
    elif mode == 3:          # one bad segment
        lo = rng.randrange(size)
        for i in range(lo, rng.randint(lo, size)):
            b[i] = rng.randrange(base)
    elif mode >= 4:          # everywhere but a few agreement runs
        b = [(x + rng.randrange(1, base)) % base for x in a]
        for _ in range(rng.randint(0, 4) if mode == 4 else 1):
            lo = rng.randrange(size)
            run = rng.randint(1, 2 * L + 3)
            b[lo:lo + run] = a[lo:lo + run]
    return "".join(map(str, a)), "".join(map(str, b))


def check_against_naive(a, b, H, L):
    p, q = StubPoint(a), StubPoint(b)
    got = classify_pair(p, q, H, L)
    assert got == naive_classify(p, q, H, L), (a, b, H, L)
    return got


def test_classify_pair_matches_naive_on_random_windows():
    rng = random.Random(7)
    verdicts = collections.Counter()
    partial_distal = 0
    for _ in range(6000):
        H, L, base = rng.randint(1, 40), rng.randint(0, 6), rng.choice((2, 3))
        got = check_against_naive(*random_pair(rng, H, L, base), H, L)
        verdicts[got.verdict] += 1
        # a separation below the width needs the per-window counts
        partial_distal += got.verdict == DISTAL and \
            0 < got.separation < 2 * L + 1
    assert set(verdicts) == {DOUBLE, POSITIVE, NEGATIVE, PROXIMAL, DISTAL}
    assert partial_distal > 0


@pytest.mark.parametrize("H,L", [(20, 1), (9, 0), (40, 6)])
def test_classify_pair_edge_windows(H, L):
    size, width = 2 * (H + L) + 1, 2 * L + 1
    a = "0" * size
    for t in (width, H // 2 + 1, H):
        # only the windows centred at -t and +t agree: a tie, won by +t
        m = ["1"] * size
        for i in (H - t, H + t):
            m[i:i + width] = "0" * width
        got = check_against_naive(a, "".join(m), H, L)
        assert got.verdict == PROXIMAL and got.witness_time == t
    for pos in range(width):
        # one mismatch inside the first window (at 0, only it sees the
        # mismatch), then one inside the last
        b = a[:pos] + "1" + a[pos + 1:]
        got = check_against_naive(a, b, H, L)
        assert got.verdict == POSITIVE
        b = a[:size - 1 - pos] + "1" + a[size - pos:]
        got = check_against_naive(a, b, H, L)
        assert got.verdict == NEGATIVE
    got = check_against_naive(a, "1" * size, H, L)
    assert got.verdict == DISTAL and got.separation == width


def test_classify_pair_matches_naive_on_seam_pairs(seam):
    H, L = 1 << 16, 64
    names = sorted(seam)
    for shift in (-1024, 1024):
        for first, second in itertools.combinations(names, 2):
            p, q = seam[first].shift(shift), seam[second].shift(shift)
            assert classify_pair(p, q, H, L) == naive_classify(p, q, H, L)


def test_seam_pair_verdicts(seam):
    mu, nu, mu_p = seam["mu"], seam["nu"], seam["mu_prime"]
    got = classify_pair(mu, nu, 4096, 16)
    assert got.verdict == POSITIVE and got.witness_time == 16
    got = classify_pair(nu, mu_p, 4096, 16)
    assert got.verdict == NEGATIVE and got.witness_time == -17
    got = classify_pair(mu, mu.flip(), 4096, 16)
    assert got.verdict == DISTAL and got.separation == 33


def test_identical_points_are_doubly_asymptotic(seam):
    assert classify_pair(seam["mu"], seam["mu"], 512, 8).verdict == DOUBLE


def test_proximal_without_asymptotic_under_short_horizon(seam):
    # agreement starts at window L=64, too late for H/2 = 48: the verdict
    # degrades to the weaker proximality claim with the witness recorded
    got = classify_pair(seam["mu"], seam["nu"], 96, 64)
    assert got.verdict == PROXIMAL and got.witness_time == 64


def test_classification_is_symmetric(seam):
    for p, q in itertools.combinations(seam.values(), 2):
        a = classify_pair(p, q, 1024, 16)
        b = classify_pair(q, p, 1024, 16)
        assert a.verdict == b.verdict


def test_proximal_evidence_is_monotone(seam):
    base = classify_pair(seam["mu"], seam["nu"], 96, 64)
    assert base.verdict == PROXIMAL
    for horizon, resolution in ((96, 32), (512, 64), (1024, 16)):
        v = classify_pair(seam["mu"], seam["nu"], horizon, resolution).verdict
        assert v in (PROXIMAL, POSITIVE, NEGATIVE, DOUBLE)


def test_asymptotic_verdict_survives_shifting(seam):
    mu, nu = seam["mu"], seam["nu"]
    for k in (-5, 3, 17):
        v = classify_pair(mu.shift(k), nu.shift(k), 1024 - abs(k), 16)
        assert v.verdict == POSITIVE


def test_different_systems_rejected(morse, fib):
    from minflow.points import fixed_point
    with pytest.raises(DomainError):
        classify_pair(fixed_point(morse), fixed_point(fib))


def test_partial_points_raise_undetermined(morse, seam):
    tiny = point_from_address(morse, (0, 1, 0, 1), "0")
    with pytest.raises(UndeterminedError):
        classify_pair(seam["mu"], tiny, 4096, 16)


def test_collapse_patterns(seam):
    fwd = asymptotic_collapse(seam, "forward", 4096, 16)
    bwd = asymptotic_collapse(seam, "backward", 4096, 16)
    assert fwd.classes == ((("mu", "nu"), ("mu_prime", "nu_prime")))
    assert bwd.classes == ((("mu", "nu_prime"), ("mu_prime", "nu")))
    assert fwd.classes != bwd.classes
    assert all(len(c) == 2 for c in fwd.classes + bwd.classes)


def test_collapse_of_distal_fiber_is_discrete(seam):
    mu = seam["mu"]
    fiber = {"a": mu, "b": mu.shift(1), "c": mu.flip(),
             "d": mu.shift(1).flip()}
    got = asymptotic_collapse(fiber, "forward", 1024, 16)
    assert got.classes == (("a",), ("b",), ("c",), ("d",))


def test_collapse_rejects_bad_direction(seam):
    with pytest.raises(DomainError):
        asymptotic_collapse(seam, "sideways")


def test_distal_certificate_granted_off_seam(morse):
    p = point_from_address(morse, tuple(j % 2 for j in range(12)), "0")
    cert = distal_certificate(p, level=12)
    assert cert.granted
    assert cert.effective_horizon == 1301
    assert [r[0] for r in cert.records] == ["flip"]
    assert cert.records[0][1] == DISTAL


def test_distal_certificate_denied_at_seam(seam):
    cert = distal_certificate(seam["mu"], horizon=4096, level=12)
    assert not cert.granted
    verdicts = dict(cert.records)
    assert POSITIVE in verdicts.values()


def test_distal_certificate_trivial_for_almost_automorphic(pd):
    p = point_from_address(pd, (1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 0), "0")
    cert = distal_certificate(p, level=12)
    assert cert.granted
    assert cert.records == ()
    assert "singleton" in cert.reason


def test_distal_certificate_tries_the_near_seam_copies_in_base_four():
    # Thue-Morse presented at block length 4: the seam copy one step
    # away is the address minus 4^5, not minus 2^5
    system = SubshiftSystem("morse-4", Substitution(
        {"0": "0110", "1": "1001"}), "0")
    p = point_from_address(system, (3,) * 5 + (1,) * 4, "0")
    cert = distal_certificate(p, horizon=4000, resolution=8, level=5)
    assert cert.records == (("nu-1", POSITIVE), ("flip", DISTAL),
                            ("nu_prime-1", PROXIMAL))
    assert not any("+1023" in label for label, _ in cert.records)
