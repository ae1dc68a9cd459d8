"""Every cap refuses an input just over it with ResourceError, quickly.

Each case patches one cap small and calls the entry it guards, on a
cold system, with an input one step past the patched cap.  A refusal
that came only after the work it guards would show here as a slow call.
"""

import time

import pytest

from minflow import codes, factors, points, words
from minflow.errors import ResourceError
from minflow.words import Substitution, SubshiftSystem

SMALL = 1 << 10           # the patched BLOCK_CAP and HORIZON_CAP
LEVEL = SMALL.bit_length()  # the first Morse level past SMALL symbols
SECONDS = 1.0


def cold_morse():
    return SubshiftSystem("morse", Substitution({"0": "01", "1": "10"}),
                          "0")


def morse_recognizability_length():
    return cold_morse().recognizability()[0]


# name -> (module, cap, patched value, the call it guards)
CAPS = {
    "LANGUAGE_CAP": (words, "LANGUAGE_CAP", 8,
                     lambda: cold_morse().language(9)),
    "RECOG_CAP": (words, "RECOG_CAP", morse_recognizability_length() - 1,
                  lambda: cold_morse().recognizability()),
    "BLOCK_CAP-fixed-prefix": (words, "BLOCK_CAP", SMALL,
                               lambda: cold_morse().fixed_prefix(
                                   "0", SMALL + 1)),
    "BLOCK_CAP-level-images": (words, "BLOCK_CAP", SMALL,
                               lambda: cold_morse().level_images(LEVEL)),
    "BLOCK_CAP-address-point": (words, "BLOCK_CAP", SMALL,
                                lambda: points.AddressPoint(
                                    cold_morse(), "0" * LEVEL, "0")),
    "BLOCK_CAP-sample-censuses": (words, "BLOCK_CAP", SMALL,
                                  lambda: factors.sample_censuses(
                                      cold_morse(), 1, LEVEL, 16, 0)),
    "TABLE_CAP": (words, "TABLE_CAP", 2 ** 3 - 1,
                  lambda: cold_morse().block_ids(1, 64)),
    "HORIZON_CAP": (points, "HORIZON_CAP", SMALL,
                    lambda: points.fixed_point(cold_morse()).window(
                        0, SMALL + 1)),
    "SAMPLE_CAP": (factors, "SAMPLE_CAP", 5,
                   lambda: factors.sample_censuses(cold_morse(), 6, 4, 16,
                                                   0)),
    "_NODE_CAP": (codes, "_NODE_CAP", 10,
                  lambda: codes.enumerate_endomorphisms(cold_morse(), 2)),
}


@pytest.mark.parametrize("case", sorted(CAPS))
def test_a_cap_refuses_just_over_it_within_a_second(case, monkeypatch):
    module, cap, value, call = CAPS[case]
    monkeypatch.setattr(module, cap, value)
    t0 = time.monotonic()
    with pytest.raises(ResourceError):
        call()
    assert time.monotonic() - t0 < SECONDS


def test_the_inputs_fit_the_real_caps():
    # unpatched, each input of the sweep is served, so each refusal
    # above is the patched cap's
    assert len(cold_morse().language(9)) == 24
    assert len(cold_morse().fixed_prefix("0", SMALL + 1)) == SMALL + 1
    assert len(cold_morse().level_images(LEVEL)) == LEVEL + 1
    assert points.AddressPoint(cold_morse(), "0" * LEVEL, "0").window(0, 3) \
        == "0110"
    assert len(factors.sample_censuses(cold_morse(), 6, 4, 16, 0)) == 6
    assert len(cold_morse().block_ids(1, 64)[0]) == 6
    assert len(points.fixed_point(cold_morse()).window(0, SMALL + 1)) == \
        SMALL + 2
