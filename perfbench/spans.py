"""Spans around the public functions of each minflow layer.

The traced run installs a wrapper on every function listed in LAYERS,
in every minflow namespace that binds it (``joins`` imports
``enumerate_endomorphisms`` by name, so wrapping ``codes`` alone would
miss those calls).  Nothing under ``src/`` changes: the wrappers live
here and are installed at run time.

A span records its name, its parent span and its start and end.  Spans
stay in memory; per-function totals (calls, self time, counts) are kept
as the spans close and everything is written out when the run ends.
Self time is a span's duration minus the durations of its child spans.
"""

import functools
import json
import sys
import time

# layer -> (module, attribute path) of each wrapped public function
LAYERS = {
    "kernels": [("minflow.kernels", n)
                for n in ("apply_rule", "window_diffs", "decode_blocks")],
    "words": [("minflow.words", "SubshiftSystem." + n)
              for n in ("language", "is_admissible", "fixed_prefix")],
    "points": [("minflow.points", "Point.window")],
    "codes": [("minflow.codes", n)
              for n in ("enumerate_endomorphisms", "verify_endomorphism",
                        "invert", "compose")],
    "pairs": [("minflow.pairs", n)
              for n in ("classify_pair", "distal_certificate",
                        "asymptotic_collapse")],
    "factors": [("minflow.factors", n)
                for n in ("address", "fiber_census",
                          "recognizability_length")],
    "joins": [("minflow.joins", n)
              for n in ("joint_language", "dichotomy", "coalescence_check",
                        "odometer_sr_witness")],
    "cli": [("minflow.cli", "main")],
}

# counts kept beside calls and self time: name -> unit
EXTRA_COUNTS = {
    "kernels.apply_rule.bytes": "B",
    "kernels.window_diffs.bytes": "B",
    "kernels.decode_blocks.bytes": "B",
    "kernels.decode_blocks.attempts": "count",
    "kernels.decode_blocks.rejected": "count",
    "words.is_admissible.symbols": "count",
    "points.window.symbols": "count",
    "codes.enumerate_endomorphisms.codes_found": "count",
    "factors.address.levels": "count",
    "joins.joint_language.pairs_observed": "count",
}


def span_names():
    """Every span name, as "<layer>.<function>"."""
    return ["%s.%s" % (layer, path.rsplit(".", 1)[-1])
            for layer, targets in LAYERS.items() for _, path in targets]


class Tracer:
    """Collects spans and per-function totals for one process."""

    def __init__(self):
        self.phase = "setup"
        self.spans = []          # [name, parent index, start, end]
        self.totals = {}         # (phase, name) -> [calls, self seconds]
        self.counts = {}         # (phase, count name) -> value
        self._stack = []         # [span index, name, child seconds]

    # -- recording -------------------------------------------------------

    def _add(self, key, value):
        self.counts[(self.phase, key)] = \
            self.counts.get((self.phase, key), 0) + value

    def _count(self, name, parent, args, kwargs, result, raised):
        """Layer counts, taken where the work happens."""
        if name == "kernels.decode_blocks":
            self._add("kernels.decode_blocks.bytes", len(args[0]) - args[1])
            # a decode below is_admissible is one phase attempt of the
            # parse certificate; ValueError means the phase was rejected
            if parent == "words.is_admissible":
                self._add("kernels.decode_blocks.attempts", 1)
                if isinstance(raised, ValueError):
                    self._add("kernels.decode_blocks.rejected", 1)
        elif name == "kernels.apply_rule":
            self._add("kernels.apply_rule.bytes", len(args[0]))
        elif name == "kernels.window_diffs":
            self._add("kernels.window_diffs.bytes",
                      len(args[0]) + len(args[1]))
        elif raised is not None:
            return
        elif name == "words.is_admissible":
            self._add("words.is_admissible.symbols", len(args[1]))
        elif name == "points.window" and parent != "points.window":
            # nested windows (shifted and flipped points) re-read the
            # same symbols; count each outermost read once
            self._add("points.window.symbols", len(result))
        elif name == "codes.enumerate_endomorphisms":
            self._add("codes.enumerate_endomorphisms.codes_found",
                      len(result))
        elif name == "factors.address":
            k = args[2] if len(args) > 2 else kwargs["k"]
            self._add("factors.address.levels", k)
        elif name == "joins.joint_language":
            self._add("joins.joint_language.pairs_observed",
                      len(result.pair_times))

    def wrap(self, name, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            index = len(tracer.spans)
            span = [name, parent[0] if parent else -1, clock(), None]
            tracer.spans.append(span)
            frame = [index, name, 0.0]
            stack.append(frame)
            result = raised = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                raised = exc
                raise
            finally:
                span[3] = end = clock()
                stack.pop()
                duration = end - span[2]
                if parent is not None:
                    parent[2] += duration
                total = tracer.totals.setdefault((tracer.phase, name),
                                                 [0, 0.0])
                total[0] += 1
                total[1] += duration - frame[2]
                tracer._count(name, parent[1] if parent else None,
                              args, kwargs, result, raised)

        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every listed function wherever a loaded minflow module
        binds it (a module that is not loaded is never called)."""
        for layer, targets in LAYERS.items():
            for module_name, path in targets:
                module = sys.modules.get(module_name)
                if module is None:
                    continue
                name = "%s.%s" % (layer, path.rsplit(".", 1)[-1])
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    setattr(cls, attr, self.wrap(name, original))
                    continue
                original = getattr(module, path)
                wrapped = self.wrap(name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not mod_name.startswith("minflow"):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    # -- output -------------------------------------------------------------

    def merge(self, other):
        """Fold in the totals of another process (a JSON `snapshot`)."""
        for phase, name, calls, self_s in other["totals"]:
            total = self.totals.setdefault((phase, name), [0, 0.0])
            total[0] += calls
            total[1] += self_s
        for phase, key, value in other["counts"]:
            self.counts[(phase, key)] = \
                self.counts.get((phase, key), 0) + value

    def snapshot(self):
        return {
            "totals": [[p, n, c, s] for (p, n), (c, s)
                       in sorted(self.totals.items())],
            "counts": [[p, k, v] for (p, k), v in sorted(self.counts.items())],
        }

    def metrics(self):
        """Per-layer metrics summed over both phases: name -> (value, unit)."""
        out = {}
        for name in span_names():
            calls = sum(c for (_, n), (c, _) in self.totals.items()
                        if n == name)
            self_s = sum(s for (_, n), (_, s) in self.totals.items()
                         if n == name)
            out[name + ".calls"] = (calls, "count")
            out[name + ".self_s"] = (self_s, "s")
        for key, unit in EXTRA_COUNTS.items():
            out[key] = (sum(v for (_, k), v in self.counts.items()
                            if k == key), unit)
        attempts = out["kernels.decode_blocks.attempts"][0]
        rejected = out.pop("kernels.decode_blocks.rejected")[0]
        out["kernels.decode_blocks.fail_ratio"] = (
            rejected / attempts if attempts else 0.0, "rejected/attempt")
        return out

    def write(self, path, extra):
        """Write spans and per-phase totals as one JSON document."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][2] if self.spans else 0.0
        doc = dict(extra)
        doc.update(self.snapshot())
        doc["span_names"] = names
        doc["spans"] = [[ids[n], parent, round((s - t0) * 1e6),
                         round((e - s) * 1e6)]
                        for n, parent, s, e in self.spans]
        doc["span_fields"] = ["name", "parent", "start_us", "duration_us"]
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
