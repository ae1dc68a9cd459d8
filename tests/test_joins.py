import time

import pytest

from minflow.codes import flip_code, shift_code
from minflow.errors import DomainError, PreconditionError
from minflow.joins import (coalescence_check, dichotomy, fit_local_rule,
                           joint_address_profile, joint_language,
                           odometer_sr_witness, sr_report)
from minflow.pairs import distal_certificate
from minflow.points import fixed_point, point_from_address, seam_points


@pytest.fixture(scope="module")
def x0(morse):
    return point_from_address(morse, tuple(j % 2 for j in range(18)), "0")


@pytest.fixture(scope="module")
def cert(x0):
    c = distal_certificate(x0, level=12)
    assert c.granted
    return c


def naive_joint(p, q, L, T):
    a = p.window(-L, T + L)
    b = q.window(-L, T + L)
    width = 2 * L + 1
    times = {}
    for n in range(T + 1):
        key = (a[n:n + width], b[n:n + width])
        if key not in times:
            times[key] = n
    return times


@pytest.mark.parametrize("L", [0, 8, 32])
@pytest.mark.parametrize("T", [0, 1, 2048, 1 << 16])
def test_joint_language_matches_naive(morse, x0, L, T):
    seam = seam_points(morse)
    pairs = [(seam["mu"], seam[name])
             for name in ("mu", "nu", "mu_prime", "nu_prime")]
    pairs += [(x0, x0.shift(k).flip() if flip else x0.shift(k))
              for k in (-3, 0, 1, 5) for flip in (False, True)]
    for p, q in pairs:
        assert list(joint_language(p, q, L, T).pair_times.items()) == \
            list(naive_joint(p, q, L, T).items())


def test_joint_language_diagonal(morse):
    mu = fixed_point(morse)
    joint = joint_language(mu, mu, 8, 512)
    assert all(a == b for a, b in joint.pair_times)
    assert all(out == {a[8]} for a, out in joint.output_map().items())
    seed = (mu.window(-8, 8), mu.window(-8, 8))
    assert joint.member(*seed)
    assert len(joint.pair_times) <= 513


def test_joint_language_is_the_graph_of_a_code(morse):
    mu = fixed_point(morse)
    joint = joint_language(mu, mu.shift(2), 8, 2048)
    r, rule = fit_local_rule(joint, 4)
    assert r == 2
    assert all(rule[b] == b[4] for b in rule)    # shift-by-2 local rule
    joint = joint_language(mu, mu.flip(), 8, 2048)
    r, rule = fit_local_rule(joint, 4)
    assert r == 0
    assert rule == {"0": "1", "1": "0"}


def test_member_pair_semi_decision(morse):
    mu = fixed_point(morse)
    joint = joint_language(mu, mu.shift(2), 8, 2048)
    a = mu.window(-8, 8)
    b = mu.shift(2).window(-8, 8)
    assert joint.member(a, b)
    from minflow.words import flip_word
    assert not joint.member(a, flip_word(b))
    with pytest.raises(DomainError,
                       match="^member windows need length 2L\\+1 = 17$"):
        joint.member(a[1:], b)


def test_dichotomy_extracts_shift_codes(morse, x0, cert):
    verdict = dichotomy(x0, x0.shift(2), steps=8192, certificate=cert)
    assert verdict.case == "case2"
    assert verdict.fitted_radius == 2
    assert verdict.code == shift_code(morse, 2)
    assert verdict.code.normal_form == (2, 0)


def test_extracted_codes_appear_in_enumeration(morse, x0, cert):
    from minflow.codes import enumerate_endomorphisms
    verdict = dichotomy(x0, x0.shift(-1).flip(), steps=8192, certificate=cert)
    enumerated = enumerate_endomorphisms(morse, verdict.fitted_radius)
    assert sum(verdict.code == c for c in enumerated) == 1


def test_dichotomy_extracts_flip_codes(morse, x0, cert):
    verdict = dichotomy(x0, x0.flip(), steps=8192, certificate=cert)
    assert verdict.case == "case2"
    assert verdict.code == flip_code(morse)
    verdict = dichotomy(x0, x0.shift(-3).flip(), steps=8192, certificate=cert,
                        radius_budget=4)
    assert verdict.code.normal_form == (-3, 1)


@pytest.mark.parametrize("k", [0, 3, -8])
@pytest.mark.parametrize("flip", [0, 1])
def test_case2_dichotomy_makes_one_kernel_call(morse, x0, cert, k, flip,
                                               kernel_calls, monkeypatch):
    # the one call reads the block ids of the test word, which the system
    # keeps: the extracted code's test image translates them, and invert
    # reads that image again; the blocks invert checks and the short
    # words missing from the test word are read in rule dicts
    monkeypatch.setattr(morse, "_ids", {})
    x = x0.shift(k).flip() if flip else x0.shift(k)
    for _ in range(2):
        verdict = dichotomy(x0, x, certificate=cert, radius_budget=8)
        assert (verdict.case, verdict.code.normal_form) == \
            ("case2", (k, flip))
        # the second dichotomy, on the warm system, makes none
        assert len(kernel_calls) == 1


@pytest.mark.parametrize("r", [1, 2])
def test_coalescence_check_makes_one_kernel_call(morse, r, kernel_calls,
                                                 monkeypatch):
    # the enumeration's one call; invert reads each survivor's test image
    monkeypatch.setattr(morse, "_ids", {})
    assert coalescence_check(morse, r) == {
        "system": "morse", "radius": r, "checked": 4 * r + 2, "flagged": []}
    assert len(kernel_calls) == 1


def test_dichotomy_requires_distal_base(morse):
    mu = fixed_point(morse)
    with pytest.raises(PreconditionError):
        dichotomy(mu, mu.shift(1), steps=2048)


def test_dichotomy_budget_exhaustion_is_inconclusive(morse, x0, cert):
    verdict = dichotomy(x0, x0.shift(3), steps=8192, certificate=cert,
                        radius_budget=1)
    assert verdict.case == "inconclusive"
    assert verdict.code is None


@pytest.mark.parametrize("L,k,windows", [(1, -3, 4), (2, -4, 8)])
def test_dichotomy_names_a_multi_valued_output_map(x0, cert, L, k, windows):
    # a shift by more than L leaves the second centre outside the first
    # window, so no rule fits and the output map is named first
    verdict = dichotomy(x0, x0.shift(k), resolution=L, steps=4096,
                        radius_budget=8, certificate=cert)
    assert verdict == ("inconclusive", L, 4096, None, None, None,
                       "output map not single-valued on %d windows"
                       % windows)


@pytest.mark.parametrize("k,witness", [(128, 128), (-128, 128), (127, 128),
                                       (1000, 2560)])
def test_dichotomy_case1_observes_the_flipped_pair(x0, cert, k, witness):
    # Case 1: at some time n <= T the pair (x0, x) shows, across its
    # 65-window, what the pair (x0, flip x) shows at time 0; the witness
    # is the first such n, checked here from that definition
    L = 32
    x = x0.shift(k)
    verdict = dichotomy(x0, x, resolution=L, steps=1 << 16, radius_budget=4,
                        certificate=cert)
    assert verdict == ("case1", L, 1 << 16, None, None, witness,
                       "flipped target pair observed")
    target = (x0.window(-L, L), x.flip().window(-L, L))
    seen = [n for n in range(witness + 1)
            if (x0.window(n - L, n + L), x.window(n - L, n + L)) == target]
    assert seen == [witness]


def test_joint_address_profile_constant(morse, x0):
    joint = joint_language(x0, x0.shift(5), 8, 4096)
    profile = joint_address_profile(joint, levels=8, samples=16)
    assert profile["constant"]
    assert profile["difference"] == (-5) % 256


def test_joint_address_profile_reduces_mod_the_block_length_power(ternary):
    p = point_from_address(ternary, (1, 2, 0, 1, 2, 0), "0")
    joint = joint_language(p, p.shift(3), 8, 64)
    profile = joint_address_profile(joint, levels=2)
    assert profile["constant"]
    assert profile["difference"] == (-3) % 9


def test_sr_report_morse(morse):
    report = sr_report("morse", max_shift=2, radius=1, steps=8192)
    assert report["summary"] == "SR (evidence)"
    assert report["mode"] == "dichotomy"
    assert len(report["records"]) == 10
    for rec in report["records"]:
        assert rec["case"] == "case2"
        k = int(rec["candidate"].rsplit("^", 1)[1])
        eps = 1 if rec["candidate"].startswith("flip.") else 0
        assert rec["code_normal_form"] == [k, eps]


def test_sr_report_fibonacci():
    report = sr_report("fibonacci", radius=2)
    assert report["summary"] == "not SR (evidence)"
    assert report["realized_group"]["shape"] == "Z"
    assert report["mode"] == "almost-automorphic-contrast"


def test_sr_report_period_doubling():
    report = sr_report("period-doubling", radius=1)
    assert report["summary"] == "not SR (evidence)"
    assert set(report["generic_fiber_cardinalities"]) == {1}


def test_sr_report_odometer():
    report = sr_report("odometer", levels=6)
    assert report["summary"] == "SR (finite-level witness)"
    assert report["translation_count"] == 64


def test_coalescence_morse_and_fibonacci(morse, fib):
    assert coalescence_check(morse, 1)["flagged"] == []
    for r in (1, 2):
        assert coalescence_check(fib, r)["flagged"] == []


def test_coalescence_full_shift_flags(full_shift):
    report = coalescence_check(full_shift, 1, check_len=512)
    assert report["checked"] == 256
    assert len(report["flagged"]) == 250
    outputs = {tuple(sorted({out for _, out in c["blocks"]}))
               for c in report["flagged"]}
    assert ("0",) in outputs     # the constant-0 rule is flagged


def test_odometer_sr_witness():
    assert odometer_sr_witness(0)["translation_count"] == 1
    assert odometer_sr_witness(1)["translation_count"] == 2
    report = odometer_sr_witness(3)
    assert report["translation_count"] == 8
    assert report["verification"] == "proof"
    for levels in (-1, 21):
        with pytest.raises(DomainError, match="levels must lie in 0..20"):
            odometer_sr_witness(levels)


def test_odometer_sr_witness_top_level_is_quick():
    # the witness is a proof, so no level touches its 2^k points
    t0 = time.monotonic()
    report = odometer_sr_witness(20)
    assert time.monotonic() - t0 < 0.1
    assert report == {"levels": 20, "translation_count": 1 << 20,
                      "verification": "proof",
                      "forced_translations": 1 << 20}


def test_odometer_sr_witness_reports_every_level():
    for k in range(21):
        assert odometer_sr_witness(k) == {
            "levels": k, "translation_count": 1 << k,
            "verification": "proof", "forced_translations": 1 << k}
