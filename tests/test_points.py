import time

import pytest

from minflow.errors import DomainError, ResourceError, UndeterminedError
from minflow.points import (HORIZON_CAP, AddressPoint, OneSidedSpec,
                            ShiftedPoint, SplicePoint, fixed_point,
                            parse_point_spec, point_from_address, seam_points)
from minflow.codes import flip_code
from minflow.factors import point_address
from minflow.words import (REGISTRY, Substitution, fibonacci,
                           fixed_point_prefix, flip_word)


@pytest.fixture(scope="module")
def seam(morse):
    return seam_points(morse)


def test_window_examples(seam):
    mu = seam["mu"]
    assert mu.window(0, 7) == "01101001"
    assert mu.flip().window(0, 7) == "10010110"
    assert mu.shift(3).window(0, 4) == mu.window(3, 7)
    assert mu.window(-4, 3) == "01100110"


def test_splice_via_specs(morse, seam):
    q = OneSidedSpec(morse)
    mu = SplicePoint(q.rev(), q)
    assert mu.window(-8, 8) == seam["mu"].window(-8, 8)


def test_splice_orientation_enforced(morse):
    q = OneSidedSpec(morse)
    with pytest.raises(DomainError):
        SplicePoint(q, q)
    with pytest.raises(DomainError):
        SplicePoint(q.rev(), q.rev())


def test_right_and_left_half_agreements(seam):
    mu, nu, mu_p = seam["mu"], seam["nu"], seam["mu_prime"]
    assert nu.window(0, 511) == mu.window(0, 511)
    assert nu.window(-512, -1) == mu_p.window(-512, -1)
    assert nu.window(-512, -1) != mu.window(-512, -1)


def test_four_splices_pairwise_distinct(seam):
    windows = [p.window(-4, 3) for p in seam.values()]
    assert len(set(windows)) == 4


def test_flip_commutes_with_splicing(seam):
    assert seam["mu"].flip().window(-64, 64) == seam["mu_prime"].window(-64, 64)
    assert seam["nu"].flip().window(-64, 64) == seam["nu_prime"].window(-64, 64)


def test_flip_involution_collapses(seam):
    mu = seam["mu"]
    twice = mu.flip().flip()
    assert type(twice) is SplicePoint and twice.label() == mu.label()
    assert twice.window(-300, 300) == mu.window(-300, 300)


def test_shift_composition_collapses(seam):
    mu = seam["mu"]
    p = mu.shift(3).shift(-8)
    assert isinstance(p, ShiftedPoint) and p.k == -5 and p.base is mu
    assert p.window(0, 6) == mu.window(-5, 1)
    assert mu.shift(4).shift(-4) is mu


def test_window_argument_errors(seam):
    mu = seam["mu"]
    with pytest.raises(DomainError):
        mu.window(3, 2)
    with pytest.raises(ResourceError):
        mu.window(0, HORIZON_CAP + 1)


def test_address_point_matches_seam_splices(morse, seam):
    p = point_from_address(morse, (0,) * 10, "0")
    assert p.window(0, 100) == seam["mu"].window(0, 100)
    p1 = point_from_address(morse, (0,) * 10, "1")
    assert p1.window(0, 100) == seam["mu_prime"].window(0, 100)


def test_address_point_determined_range(morse):
    digits = tuple(j % 2 for j in range(10))
    p = point_from_address(morse, digits, "0")
    lo, hi = p.determined_range()
    assert lo == -682 and hi == 1024 - 682 - 1
    p.window(lo, hi)
    with pytest.raises(UndeterminedError):
        p.window(lo - 1, 0)
    with pytest.raises(UndeterminedError):
        p.window(0, hi + 1)


def test_address_point_extension_is_consistent(morse):
    short = point_from_address(morse, tuple(j % 2 for j in range(12)), "0")
    long = point_from_address(morse, tuple(j % 2 for j in range(16)), "0")
    lo, hi = short.determined_range()
    assert long.window(lo, hi) == short.window(lo, hi)


def test_address_point_validation(morse, fib):
    with pytest.raises(DomainError):
        point_from_address(fib, (0, 1), "0")      # not constant length
    with pytest.raises(DomainError):
        point_from_address(morse, (0, 2), "0")    # digit out of range
    with pytest.raises(DomainError):
        point_from_address(morse, (0, 1), "7")    # sheet outside alphabet


def test_address_block_cap(morse, monkeypatch):
    # a level-22 Morse block (2^22 symbols) is served, a level-23 one is
    # refused before it is built
    digits = tuple(j % 2 for j in range(23))
    p = point_from_address(morse, digits[:22], "0")
    assert p.determined_range() == (-p.offset, (1 << 22) - p.offset - 1)
    assert p.window(-8, 8) == \
        fixed_point_prefix(morse.substitution, "0", 1 << 22)[p.offset - 8:
                                                             p.offset + 9]
    for name in ("powers", "apply"):
        monkeypatch.setattr(Substitution, name,
                            lambda *args: pytest.fail("image built"))
    with pytest.raises(ResourceError, match="^level-23 blocks exceed cap$"):
        point_from_address(morse, digits, "0")
    with pytest.raises(ResourceError, match="^level-23 blocks exceed cap$"):
        parse_point_spec(morse, "addr(%s,1)" % "".join(map(str, digits)))


def test_inadmissible_splice_fails_loudly(pd):
    # the mirror splice is not a period-doubling point; the seam window
    # is named in the error
    with pytest.raises(DomainError) as err:
        fixed_point(pd).window(0, 7)
    assert "splice" in str(err.value)


def test_inadmissible_splice_names_leftmost_shortest_window(fib):
    # no 2- to 7-factor is missing from Fibonacci; the leftmost 8-factor
    # that is sits across the seam
    splice = parse_point_spec(fib, "splice(rev(fix(0)),fix(0))")
    with pytest.raises(DomainError) as err:
        splice.window(-8, 8)
    assert str(err.value) == (
        "splice splice(rev(fix(0)),fix(0)) produced inadmissible window "
        "'00100100' at coordinate -4")


def test_a_far_inadmissible_splice_fails_quickly():
    # the buffer for this window holds 2^18 symbols on each side of the
    # seam, and its admissibility is decided before the error names the
    # same leftmost shortest window
    splice = parse_point_spec(fibonacci(), "fix0")
    t0 = time.monotonic()
    with pytest.raises(DomainError) as err:
        splice.window(-200000, -199997)
    assert time.monotonic() - t0 < 3
    assert str(err.value) == (
        "splice splice(rev(fix(0)),fix(0)) produced inadmissible window "
        "'00100100' at coordinate -4")


def test_the_violation_in_a_million_symbol_splice_is_named_quickly():
    # the buffer holds 2^20 symbols on each side of the seam; naming its
    # leftmost shortest inadmissible window scans it once, not per width
    splice = parse_point_spec(fibonacci(), "fix0")
    t0 = time.monotonic()
    with pytest.raises(DomainError) as err:
        splice.window(-1000000, -999997)
    assert time.monotonic() - t0 < 0.6
    assert str(err.value) == (
        "splice splice(rev(fix(0)),fix(0)) produced inadmissible window "
        "'00100100' at coordinate -4")


def test_fresh_splice_serves_the_seam_symbol(morse):
    for spec, symbol in (("splice(rev(fix(0)),fix(0))", "0"),
                         ("splice(rev(fix(0)),fix(1))", "1")):
        assert parse_point_spec(morse, spec).window(0, 0) == symbol


def test_inadmissible_flip_fails_loudly(pd):
    p = point_from_address(pd, (0,) * 10, "0")
    assert p.window(0, 7) == "01000101"
    with pytest.raises(DomainError, match=FLIP_REFUSAL % "period-doubling"):
        p.flip()


FLIP_REFUSAL = ("^'%s': the symbol flip does not commute with its "
                "substitution$")


@pytest.mark.parametrize("name", ["fib", "pd", "ternary"])
def test_a_system_not_closed_under_the_flip_refuses_every_flip(name,
                                                               request):
    # the flip maps such a minimal system onto a disjoint one, so no
    # flipped point or half is a point of it
    system = request.getfixturevalue(name)
    refusal = FLIP_REFUSAL % system.name
    digits = (0,) * 3 if system.constant_length else None
    builds = [lambda: fixed_point(system).flip(),
              lambda: fixed_point(system).shift(5).flip(),
              lambda: OneSidedSpec(system).flip(),
              lambda: seam_points(system),
              lambda: parse_point_spec(system, "splice(rev(flip(fix0)),fix0)"),
              lambda: parse_point_spec(system, "flip(fix0)")]
    if digits:
        builds.append(lambda: point_from_address(system, digits, "0").flip())
    for build in builds:
        with pytest.raises(DomainError, match=refusal):
            build()
    with pytest.raises(DomainError, match=refusal):
        flip_code(system)     # the codes layer shares the refusal


def test_a_flipped_address_point_is_the_flip_of_its_windows(morse):
    p = point_from_address(morse, (0, 1, 0, 1), "1")
    q = p.flip()
    assert type(q) is AddressPoint
    assert (q.digits, q.sheet) == (p.digits, "0")
    lo, hi = p.determined_range()
    assert q.window(lo, hi) == flip_word(p.window(lo, hi))


@pytest.mark.parametrize("spec", [
    "splice(rev(fix0),fix0)", "splice(rev(fix1),fix1)",
    "splice(rev(fix1),fix0)", "splice(rev(fix0),fix1)",
    "shift(splice(rev(fix1),fix0),-77)", "addr(0110100111,0)",
    "addr(0110100111,1)", "shift(addr(0110100111,1),5)"])
def test_a_flip_is_a_point_of_its_own_kind(morse, spec):
    # a flip that commutes with σ acts on the construction: the flip of a
    # shift is the same shift of the flipped base, and its windows and
    # its address are the flipped point's
    p = parse_point_spec(morse, spec)
    q = p.flip()
    base = p.base if isinstance(p, ShiftedPoint) else p
    if base is p:
        assert type(q) is type(p)
    else:
        assert type(q) is ShiftedPoint and q.k == p.k
        assert type(q.base) is type(base)
    lo, hi = p.determined_range()
    lo, hi = max(lo, -4096), min(hi, 4096)
    assert q.determined_range() == p.determined_range()
    assert q.window(lo, hi) == flip_word(p.window(lo, hi))
    for k in range(getattr(base, "level", 12) + 1):
        assert point_address(q, k) == point_address(p, k), k


def test_a_seam_window_reads_prefixes_of_its_buffer_width(walks):
    # the pair-verdicts set-up window of +-(2^16 + 1088) around each seam
    # fits the buffer of coordinates -2^17..2^17-1, whose halves are
    # prefixes of 2^17 symbols: the tower stops at level 17
    reach = (1 << 16) + 1088
    for p in seam_points(REGISTRY["morse"]()).values():
        assert len(p.window(-reach, reach)) == 2 * reach + 1
    [tower] = walks
    assert tower[-1] == {"0": 1 << 17, "1": 1 << 17}


def test_seam_points_need_flip_closure(fib):
    with pytest.raises(DomainError):
        seam_points(fib)


def test_windows_are_admissible(morse, seam):
    for p in seam.values():
        for lo, hi in ((-33, 31), (-5, 90), (-200, -100)):
            assert morse.is_admissible(p.window(lo, hi))
    alt = point_from_address(morse, tuple(j % 2 for j in range(12)), "0")
    assert morse.is_admissible(alt.window(-600, 600))


def test_parse_point_spec(morse, seam):
    mu = parse_point_spec(morse, "splice(rev(fix0),fix0)")
    assert mu.window(-8, 8) == seam["mu"].window(-8, 8)
    nu = parse_point_spec(morse, "splice(rev(flip(fix0)),fix0)")
    assert nu.window(-8, 8) == seam["nu"].window(-8, 8)
    assert parse_point_spec(morse, "fix(0)").window(-8, 8) == mu.window(-8, 8)
    shifted = parse_point_spec(morse, "shift(flip(fix(0)),-3)")
    assert shifted.window(0, 5) == seam["mu_prime"].window(-3, 2)
    addr = parse_point_spec(morse, "addr(0101,0)")
    assert isinstance(addr, AddressPoint) and addr.digits == (0, 1, 0, 1)


@pytest.mark.parametrize("bad", [
    "fix", "splice(fix0,fix0)", "splice(rev(fix0),fix0", "warp(fix0)",
    "shift(fix0)", "addr(01)", "fix(01)", "splice(rev(fix0),fix0)x",
])
def test_parse_point_spec_rejects(morse, bad):
    with pytest.raises(DomainError):
        parse_point_spec(morse, bad)
