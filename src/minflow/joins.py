"""Finite-resolution orbit closures of pairs and the dichotomy experiment.

The joint language of (p, q) is the set of simultaneous centered windows
seen along the first T steps of the orbit of the pair.  It is read off
one string whose character at each time holds both points' symbols
(`words.pack_pair`), with `words.first_windows`, which skips the long
repeats of substitutive orbits instead of slicing all T + 1 windows.
Membership of a pair of windows is a semi-decision: present means
observed, absent means only "not found within (L, T)".  The dichotomy
either finds the flipped target pair in the joint language (Case 1
evidence) or extracts a local rule from the graph, verifies it as an
automorphism, and returns it (Case 2); anything else is reported
inconclusive, never silently resolved.
"""

from typing import NamedTuple

from . import defaults, factors, pairs as pairs_mod
from .codes import (SlidingBlockCode, classify_aut_group,
                    enumerate_endomorphisms, invert, verify_endomorphism)
from .errors import DomainError, PreconditionError
from .points import point_from_address
from .words import first_windows, get_system, pack_pair


class JointLanguage(NamedTuple):
    """Observed pair windows of (p, q) at common times 0..T."""

    resolution: int
    steps: int
    pair_times: dict        # (first window, second window) -> first time seen
    first_point: object
    second_point: object

    def output_map(self):
        """first window -> set of center symbols of the second coordinate."""
        L = self.resolution
        out = {}
        for a, b in self.pair_times:
            out.setdefault(a, set()).add(b[L])
        return out

    def member(self, a, b):
        width = 2 * self.resolution + 1
        if len(a) != width or len(b) != width:
            raise DomainError("member windows need length 2L+1 = %d" % width)
        return (a, b) in self.pair_times


def joint_language(p, q, resolution=defaults.JOIN_RESOLUTION,
                   steps=defaults.STEPS) -> JointLanguage:
    if p.system is not q.system:
        raise DomainError("points live in different systems")
    L, T = resolution, steps
    if L < 0 or T < 0:
        raise DomainError("need resolution >= 0 and steps >= 0")
    a = p.window(-L, T + L)
    b = q.window(-L, T + L)
    width = 2 * L + 1
    times = {(a[n:n + width], b[n:n + width]): n
             for n in first_windows(pack_pair(a, b), width).values()}
    return JointLanguage(L, T, times, p, q)


class DichotomyVerdict(NamedTuple):
    case: str                # "case1" | "case2" | "inconclusive"
    resolution: int
    steps: int
    fitted_radius: object
    code: object             # SlidingBlockCode for case2
    membership_witness: object   # time of the flipped pair for case1
    note: str

    def to_json(self):
        return {"case": self.case, "L": self.resolution, "T": self.steps,
                "fitted_radius": self.fitted_radius,
                "code": self.code.to_json() if self.code else None,
                "membership_witness": self.membership_witness,
                "note": self.note}


def fit_local_rule(joint: JointLanguage, radius_budget):
    """Smallest radius at which the second center is a function of the
    first window, with the observed rule; None if the budget fails."""
    L = joint.resolution
    for r in range(min(radius_budget, L) + 1):
        rule = {}
        ok = True
        for (a, b) in joint.pair_times:
            key = a[L - r:L + r + 1]
            if rule.setdefault(key, b[L]) != b[L]:
                ok = False
                break
        if ok:
            return r, rule
    return None


def dichotomy(x0, x, resolution=defaults.JOIN_RESOLUTION,
              steps=defaults.STEPS, radius_budget=defaults.RADIUS_BUDGET,
              certificate=None,
              certificate_level=defaults.CERTIFICATE_LEVEL) -> DichotomyVerdict:
    """Case 1 / Case 2 experiment for the pair (x0, x).

    Requires x0 to carry a distal certificate (computed here when not
    supplied).  Case 1: the pair (window of x0, window of flip(x)) was
    observed in the joint language.  Case 2: the observed output map is
    the graph of a local rule which verifies as an automorphism.
    """
    if radius_budget < 0:
        raise DomainError("radius_budget must be >= 0, got %r"
                          % (radius_budget,))
    system = x0.system
    if certificate is None:
        certificate = pairs_mod.distal_certificate(x0, level=certificate_level)
    if not certificate.granted:
        raise PreconditionError("x0 carries no distal certificate: %s"
                                % certificate.reason)
    L, T = resolution, steps
    joint = joint_language(x0, x, L, T)
    flipped = x.flip()
    target = (x0.window(-L, L), flipped.window(-L, L))
    witness = joint.pair_times.get(target)
    if witness is not None:
        return DichotomyVerdict("case1", L, T, None, None, witness,
                                "flipped target pair observed")
    # a rule that fits makes the second centre a function of the first
    # window, so the output map is single-valued; it is built only to
    # name why no rule fits
    fit = fit_local_rule(joint, radius_budget)
    if fit is None:
        multi = [a for a, outs in joint.output_map().items()
                 if len(outs) > 1]
        if multi:
            return DichotomyVerdict("inconclusive", L, T, None, None, None,
                                    "output map not single-valued on %d "
                                    "windows" % len(multi))
        return DichotomyVerdict("inconclusive", L, T, None, None, None,
                                "no single-valued rule within radius budget "
                                "%d" % radius_budget)
    r, rule = fit
    missing = set(system.language(2 * r + 1)) - set(rule)
    if missing:
        return DichotomyVerdict("inconclusive", L, T, r, None, None,
                                "%d admissible blocks unobserved; raise T"
                                % len(missing))
    code = SlidingBlockCode(system, r, rule)
    if not verify_endomorphism(code):
        return DichotomyVerdict("inconclusive", L, T, r, None, None,
                                "extracted rule failed endomorphism checks")
    if invert(code, max_radius=max(2 * r, 1)) is None:
        return DichotomyVerdict("inconclusive", L, T, r, None, None,
                                "extracted rule not invertible in budget")
    return DichotomyVerdict("case2", L, T, r, code, None,
                            "extracted code certified up to %d"
                            % defaults.CHECK_LEN)


def joint_address_profile(joint: JointLanguage, levels=12, samples=32):
    """Equicontinuity check: along the observed orbit, the two addresses
    must keep a constant difference mod ℓ^levels, ℓ the block length.

    Addresses are recomputed from windows at a deterministic sample of
    the observed times (all of them when few).
    """
    p, q = joint.first_point, joint.second_point
    system = p.system
    T = joint.steps
    stride = max(1, T // max(1, samples - 2))
    times = sorted({0, T, *range(0, T + 1, stride)})
    diffs = set()
    for n in times:
        ap = factors.address(system, p.shift(n), levels)
        aq = factors.address(system, q.shift(n), levels)
        diffs.add((ap.to_int() - aq.to_int()) % ap.base ** levels)
    return {"levels": levels, "times_checked": len(times),
            "constant": len(diffs) == 1,
            "difference": sorted(diffs)[0] if len(diffs) == 1
            else sorted(diffs)}


# -- reports -------------------------------------------------------------

def _morse_sr_records(system, max_shift, resolution, steps):
    x0 = _default_base_point(system)
    radius_budget = max(max_shift, defaults.RADIUS_BUDGET)
    certificate = pairs_mod.distal_certificate(x0)
    records = []
    for flipped in (False, True):
        for k in range(-max_shift, max_shift + 1):
            x = x0.shift(k)
            if flipped:
                x = x.flip()
            label = ("flip." if flipped else "") + "shift^%d" % k
            verdict = dichotomy(x0, x, resolution, steps, radius_budget,
                                certificate=certificate)
            rec = {"candidate": label, "case": verdict.case,
                   "fitted_radius": verdict.fitted_radius,
                   "code_normal_form": (list(verdict.code.normal_form)
                                        if verdict.case == "case2" and
                                        verdict.code.normal_form else None),
                   "note": verdict.note}
            records.append(rec)
    return records


def sr_report(system_name, max_shift=defaults.MAX_SHIFT,
              radius=defaults.SR_RADIUS, resolution=defaults.JOIN_RESOLUTION,
              steps=defaults.STEPS, levels=defaults.SR_LEVELS):
    """Semi-regularity verdict report for a named system (or the odometer).

    For the Morse system: run the dichotomy over shifted/flipped copies
    of a distal base point; SR evidence means every candidate resolved.
    For almost automorphic systems: contrast the realized automorphisms
    (shifts only) with the transitive symmetry group of the
    equicontinuous factor.  For "odometer": wrap the finite-level SR
    witness.
    """
    if max_shift < 0:
        raise DomainError("max_shift must be >= 0, got %d" % max_shift)
    if system_name == "odometer":
        witness = odometer_sr_witness(levels)
        witness["summary"] = "SR (finite-level witness)"
        witness["system"] = "odometer"
        return witness
    system = get_system(system_name)
    codes = enumerate_endomorphisms(system, radius)
    group = classify_aut_group(codes, system)
    report = {"system": system_name, "radius": radius,
              "realized_group": group.to_json()}
    if system.almost_automorphic:
        report["mode"] = "almost-automorphic-contrast"
        report["factor_symmetries"] = (
            "every translation of the equicontinuous factor commutes with "
            "the action; the realized group contains shifts only")
        if system.constant_length is not None:
            censuses = factors.sample_censuses(
                system, defaults.SR_CENSUS_SAMPLES, defaults.CENSUS_LEVELS,
                defaults.CENSUS_RESOLUTION, defaults.SAMPLE_SEED)
            report["generic_fiber_cardinalities"] = [
                census.cardinality for census in censuses]
            report["sample_generator"] = {"name": "random.Random",
                                          "seed": defaults.SAMPLE_SEED}
        report["summary"] = "not SR (evidence)"
        return report
    records = _morse_sr_records(system, max_shift, resolution, steps)
    report["mode"] = "dichotomy"
    report["records"] = records
    resolved = all(r["case"] in ("case1", "case2") for r in records)
    report["summary"] = ("SR (evidence)" if resolved else
                         "inconclusive: unresolved candidates")
    return report


def _default_base_point(system):
    """A distal base point off the seam orbit: alternating address."""
    digits = tuple(j % 2 for j in range(18))
    return point_from_address(system, digits, system.seed)


def coalescence_check(system, radius, check_len=defaults.CHECK_LEN):
    """Invert every endomorphism found at the radius; flag failures.

    An empty flag list is coalescence evidence at this scale; the full
    shift (which has non-invertible endomorphisms) flags immediately.
    """
    codes = enumerate_endomorphisms(system, radius, check_len)
    flagged = []
    for code in codes:
        if invert(code, max_radius=2 * max(radius, 1),
                  check_len=check_len) is None:
            flagged.append(code)
    return {"system": system.name, "radius": radius, "checked": len(codes),
            "flagged": [c.to_json() for c in flagged]}


def odometer_sr_witness(levels: int):
    """The level-`levels` cyclic approximation of the odometer is SR.

    The bijections of Z/2^k that commute with x -> x + 1 are exactly the
    2^k translations, by proof, not by a check.  A translation
    x -> x + c commutes with +1, since (x + 1) + c = (x + c) + 1.
    Conversely, f(x + 1) = f(x) + 1 gives f(x) = f(0) + x by induction
    on x = 0, 1, ..., 2^k - 1, so f is the translation by f(0).
    """
    if levels < 0 or levels > 20:
        raise DomainError("levels must lie in 0..20")
    size = 2 ** levels
    return {"levels": levels, "translation_count": size,
            "verification": "proof", "forced_translations": size}
