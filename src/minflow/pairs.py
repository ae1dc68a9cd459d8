"""Finite-horizon classification of point pairs.

Verdicts are deliberately bounded claims: "proximal within horizon H"
and "distal up to horizon H" at window resolution L.  Asymptotic
verdicts record the window index from which (or up to which) the two
points agree window-for-window.

Verdicts come from the pair's mismatch map, one byte per coordinate, 1
where the two points differ: `find`/`rfind` on it locate the first and
last bad window and the agreeing windows nearest the center, so no
Python loop runs per symbol or per window.  Only a distal pair whose
windows partly agree needs the per-window counts of
`kernels.window_diffs`, for its separation.
"""

from typing import NamedTuple

from . import defaults, factors, kernels
from .errors import DomainError
from .points import seam_points
from .words import FLIP, flip_word

POSITIVE = "positively-asymptotic"
NEGATIVE = "negatively-asymptotic"
DOUBLE = "doubly-asymptotic"
PROXIMAL = "proximal-within-horizon"
DISTAL = "distal-up-to-horizon"


class PairClassification(NamedTuple):
    verdict: str
    horizon: int
    resolution: int
    witness_time: object     # n* for proximal, n0/n1 for asymptotic
    separation: int          # min disagreements over centered windows

    def to_json(self):
        return {"verdict": self.verdict, "H": self.horizon,
                "L": self.resolution, "witness_n": self.witness_time,
                "separation": self.separation}


def classify_pair(p, q, horizon=defaults.HORIZON,
                  resolution=defaults.PAIR_RESOLUTION) -> PairClassification:
    """Classify (p, q) from the centered windows at shifts |n| <= horizon."""
    if p.system is not q.system:
        raise DomainError("points live in different systems")
    H, L = horizon, resolution
    if H < 1 or L < 0:
        raise DomainError("need horizon >= 1 and resolution >= 0")
    a = p.window(-H - L, H + L).encode()
    b = q.window(-H - L, H + L).encode()
    width = 2 * L + 1
    m = kernels.mismatch_map(a, b)
    n = len(m) - width + 1                  # windows, centers -H..H
    # window i covers m[i:i + width], so it is bad iff it holds a 1
    first = m.find(1)
    if first < 0:
        return PairClassification(DOUBLE, H, L, -H, 0)
    first_bad = max(0, first - width + 1)
    last_bad = min(n - 1, m.rfind(1))
    pos_from = (last_bad + 1) - H          # windows agree on [pos_from, H]
    neg_to = (first_bad - 1) - H           # windows agree on [-H, neg_to]
    positive = last_bad + 1 < n and pos_from <= H // 2
    negative = first_bad > 0 and neg_to >= -(H // 2)
    if positive and negative:
        # agreement on both tails around a bad core
        return PairClassification(DOUBLE, H, L, pos_from, 0)
    if positive:
        return PairClassification(POSITIVE, H, L, pos_from, 0)
    if negative:
        return PairClassification(NEGATIVE, H, L, neg_to, 0)
    # the agreeing windows nearest the center on either side; a tie
    # goes to the right one
    clean = bytes(width)
    right = m.find(clean, H)
    left = m.rfind(clean, 0, H - 1 + width)
    zeros = [i - H for i in (right, left) if i >= 0]
    if zeros:
        witness = min(zeros, key=lambda t: (abs(t), t < 0))
        return PairClassification(PROXIMAL, H, L, witness, 0)
    sep = width if m.find(0) < 0 else min(kernels.window_diffs(a, b, width))
    return PairClassification(DISTAL, H, L, None, sep)


class CollapsePattern(NamedTuple):
    direction: str
    horizon: int
    resolution: int
    classes: tuple           # tuple of tuples of labels

    def to_json(self):
        return {"direction": self.direction, "H": self.horizon,
                "L": self.resolution,
                "classes": [list(c) for c in self.classes]}


def asymptotic_collapse(fiber, direction, horizon=defaults.HORIZON,
                        resolution=defaults.PAIR_RESOLUTION) -> CollapsePattern:
    """Partition of `fiber` ({label: point}) merging pairs asymptotic in
    the given direction; the finite-scale shadow of acting by the
    forward/backward idempotent."""
    if direction not in ("forward", "backward"):
        raise DomainError("direction must be forward or backward")
    labels = sorted(fiber)
    merge_on = {DOUBLE, POSITIVE if direction == "forward" else NEGATIVE}
    parent = {lab: lab for lab in labels}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, la in enumerate(labels):
        for lb in labels[i + 1:]:
            verdict = classify_pair(fiber[la], fiber[lb], horizon,
                                    resolution).verdict
            if verdict in merge_on:
                parent[find(la)] = find(lb)
    groups = {}
    for lab in labels:
        groups.setdefault(find(lab), []).append(lab)
    classes = tuple(sorted(tuple(sorted(g)) for g in groups.values()))
    return CollapsePattern(direction, horizon, resolution, classes)


class DistalCertificate(NamedTuple):
    granted: bool
    level: int
    horizon: int
    effective_horizon: int
    resolution: int
    records: tuple           # (label, verdict) per co-fiber candidate
    reason: str

    def to_json(self):
        return {"granted": self.granted, "level": self.level,
                "H": self.horizon, "H_effective": self.effective_horizon,
                "L": self.resolution,
                "records": [list(r) for r in self.records],
                "reason": self.reason}


def _effective_horizon(p, q, horizon, resolution):
    lo = max(p.determined_range()[0], q.determined_range()[0])
    hi = min(p.determined_range()[1], q.determined_range()[1])
    return min(horizon, hi - resolution, -lo - resolution)


def distal_certificate(p, horizon=defaults.HORIZON,
                       resolution=defaults.PAIR_RESOLUTION,
                       level=defaults.CERTIFICATE_LEVEL) -> DistalCertificate:
    """Certify that p is distal up to (H, L, level).

    Enumerates the centered windows compatible with p's level-k address
    (the fiber census), identifies each co-fiber window with a concrete
    point (the flip of p, or a shifted seam splice), and requires every
    one to classify as distal.  The horizon is clamped to the points'
    determined ranges and reported.
    """
    system = p.system
    L = resolution
    addr = factors.point_address(p, level)
    census = factors.fiber_census(system, addr, L)
    base_window = p.window(-L, L)
    if not census.stabilized:
        return DistalCertificate(False, level, horizon, 0, L, (),
                                 "census not stabilized; raise the level")
    candidates = []
    unmatched = []
    # the seam points exist iff the flip is an automorphism
    seams = seam_points(system) if system.is_letter_automorphism(FLIP) else {}
    for w in census.windows:
        if w == base_window:
            continue
        if seams and w == flip_word(base_window):
            candidates.append(("flip", p.flip()))
            continue
        found = None
        # try the small shift first: far-shifted seam copies share the
        # finite-level address cylinder and may carry the same window
        for value in sorted((addr.to_int(),
                             addr.to_int() - addr.base ** addr.level),
                            key=abs):
            for name, sp in seams.items():
                q = sp.shift(value)
                if q.window(-L, L) == w:
                    found = ("%s%+d" % (name, value) if value else name, q)
                    break
            if found:
                break
        if found:
            candidates.append(found)
        else:
            unmatched.append(w)
    if unmatched:
        return DistalCertificate(False, level, horizon, 0, L, (),
                                 "unidentified co-fiber windows: %r"
                                 % unmatched[:2])
    records = []
    granted = True
    h_eff = horizon
    for label, q in candidates:
        h = _effective_horizon(p, q, horizon, L)
        if h < 2 * L + 1:
            return DistalCertificate(False, level, horizon, h, L, (),
                                     "determined ranges too small")
        h_eff = min(h_eff, h)
        verdict = classify_pair(p, q, h, L).verdict
        records.append((label, verdict))
        if verdict != DISTAL:
            granted = False
    reason = "all co-fiber candidates distal" if granted else \
             "a co-fiber candidate is not distal"
    if not candidates:
        reason = "fiber census is a singleton"
    return DistalCertificate(granted, level, horizon, h_eff, L,
                             tuple(records), reason)
