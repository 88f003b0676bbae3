"""In-memory spans around the program's public functions, from outside it.

`Tracer.install()` replaces every module attribute of the loaded
``sobolev_lab`` modules that is bound to one of the traced functions, so
each call is recorded at the name its caller uses (chiti's own binding of
``decreasing_rearrangement`` and ``unit_ball_profile``, cli's binding of
``minimize_quotient``, and so on).  elliptic's binding of scipy's ``cg``
is recorded as ``elliptic.sweep``: the minimizer makes one solve per
sweep.  Nothing in the program's source changes.

A span is (id, name, start_ns, end_ns, parent_id, case, pid, attrs).
Spans stay in memory until `dump` writes them as JSON lines; `layer_metrics`
derives inclusive and self times from them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time

# the public functions the verify pipeline and the CLI sweep call
TRACED = {
    "elliptic": ("build_grid", "minimize_quotient"),
    "rearrange": ("decreasing_rearrangement",),
    "radial": ("unit_ball_profile", "cp_ball", "volume_profile"),
    "chiti": ("comparison_ball", "crossing_analysis", "dominance_check",
              "constant_K", "khat", "verify_reverse_holder"),
    "formats": ("report_to_json", "canonical_json"),
}

# counts read off a traced call's result, recorded on its span
ATTRS = {
    "elliptic.build_grid": lambda g: {"nodes": int(g.mask.sum())},
    "elliptic.minimize_quotient": lambda r: {"sweeps": int(r.iterations)},
    "rearrange.decreasing_rearrangement": lambda v: {"cells": int(v.values.size)},
}


def _text_bytes(out):
    return {"bytes": len(out.encode())} if isinstance(out, str) else {}


class Tracer:
    """Span recorder for one process; a forked worker keeps its own copy."""

    def __init__(self):
        self.spans: list[list] = []
        self.case = None
        self.active = True
        self.pid = os.getpid()
        self._stack: list[int] = []

    def wrap(self, name, fn):
        """A traced stand-in for fn, recorded under name."""
        attrs = _text_bytes if name.startswith("formats.") else ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name) as span:
                out = fn(*args, **kwargs)
                if attrs is not None:
                    span[7] = attrs(out)
                return out

        return traced

    def install(self):
        """Trace the functions in TRACED wherever a loaded module binds them."""
        import sobolev_lab  # noqa: F401  (loads the modules named in TRACED)

        originals = {}
        for module, names in TRACED.items():
            mod = sys.modules[f"sobolev_lab.{module}"]
            for fname in names:
                originals[id(getattr(mod, fname))] = f"{module}.{fname}"
        wrappers = {}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "sobolev_lab"
                                   or modname.startswith("sobolev_lab.")):
                continue
            for attr, value in list(vars(mod).items()):
                name = originals.get(id(value))
                if name is None:
                    continue
                if name not in wrappers:
                    wrappers[name] = self.wrap(name, value)
                setattr(mod, attr, wrappers[name])
        elliptic = sys.modules["sobolev_lab.elliptic"]
        elliptic.cg = self.wrap("elliptic.sweep", elliptic.cg)

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block."""
        stack = self._stack
        span = [len(self.spans), name, time.perf_counter_ns(), None,
                stack[-1] if stack else None, self.case, os.getpid(), None]
        self.spans.append(span)
        stack.append(span[0])
        try:
            yield span
        finally:
            span[3] = time.perf_counter_ns()
            stack.pop()

    def enter_worker(self) -> int:
        """In a forked worker, forget the parent's open spans; return the first new index."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self._stack.clear()
        return len(self.spans)

    def dump(self, path, start: int = 0):
        """Write spans[start:] as JSON lines (append) and return their count."""
        rows = self.spans[start:]
        with open(path, "a", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, case, pid, attrs in rows:
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": t0,
                                     "end_ns": t1, "parent": parent, "case": case,
                                     "pid": pid, "attrs": attrs or {}}) + "\n")
        return len(rows)


def read_spans(paths) -> list[dict]:
    spans = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def _union_ns(intervals) -> int:
    total, end = 0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


LAYER_TIMES = (
    ("elliptic.build_grid_s", "elliptic.build_grid"),
    ("elliptic.minimize_s", "elliptic.minimize_quotient"),
    ("elliptic.sweep_s", "elliptic.sweep"),
    ("rearrange.decreasing_rearrangement_s", "rearrange.decreasing_rearrangement"),
    ("radial.unit_ball_profile_s", "radial.unit_ball_profile"),
    ("radial.cp_ball_s", "radial.cp_ball"),
    ("radial.volume_profile_s", "radial.volume_profile"),
    ("chiti.comparison_ball_s", "chiti.comparison_ball"),
    ("chiti.crossing_analysis_s", "chiti.crossing_analysis"),
    ("chiti.dominance_check_s", "chiti.dominance_check"),
    ("chiti.constant_K_s", "chiti.constant_K"),
    ("chiti.khat_s", "chiti.khat"),
)


def layer_metrics(spans: list[dict], wall_s: float) -> dict:
    """Per-layer numbers of one traced pass.

    ``<module>.<function>_s`` is the inclusive time of that function's
    outermost calls (a call nested in another call of the same function
    is not counted twice).  ``<module>.share`` is the module's self time
    (its spans minus the traced calls they make into other functions)
    over the pass's wall_s; with worker processes running in parallel the
    shares can add up to more than 1.  ``trace.coverage`` is the part of
    wall_s that the outermost spans of the pass cover.
    """
    by_key = {(s["pid"], s["id"]): s for s in spans}
    child_ns: dict[tuple, int] = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["pid"], s["parent"])
            child_ns[key] = child_ns.get(key, 0) + s["end_ns"] - s["start_ns"]

    def self_ns(s):
        return s["end_ns"] - s["start_ns"] - child_ns.get((s["pid"], s["id"]), 0)

    def nested_in_same(s):
        parent = s["parent"]
        while parent is not None:
            up = by_key[(s["pid"], parent)]
            if up["name"] == s["name"]:
                return True
            parent = up["parent"]
        return False

    def inclusive(name):
        return sum(s["end_ns"] - s["start_ns"] for s in spans
                   if s["name"] == name and not nested_in_same(s)) / 1e9

    def calls(name):
        return sum(1 for s in spans if s["name"] == name)

    def attr_sum(name, key):
        return sum(int(s["attrs"].get(key, 0)) for s in spans if s["name"] == name)

    def module_self(module):
        return sum(self_ns(s) for s in spans if s["name"].startswith(module + ".")) / 1e9

    out = {metric: inclusive(name) for metric, name in LAYER_TIMES}
    out["elliptic.nodes"] = attr_sum("elliptic.build_grid", "nodes")
    out["elliptic.sweeps"] = calls("elliptic.sweep")
    out["rearrange.cells"] = attr_sum("rearrange.decreasing_rearrangement", "cells")
    out["radial.unit_ball_profile_calls"] = calls("radial.unit_ball_profile")
    out["radial.cp_ball_calls"] = calls("radial.cp_ball")
    out["chiti.constant_calls"] = calls("chiti.constant_K") + calls("chiti.khat")
    out["chiti.verify_self_s"] = sum(self_ns(s) for s in spans
                                     if s["name"] == "chiti.verify_reverse_holder") / 1e9
    formats = [s for s in spans if s["name"].startswith("formats.")
               and not (s["parent"] is not None
                        and by_key[(s["pid"], s["parent"])]["name"].startswith("formats."))]
    out["formats.report_s"] = sum(s["end_ns"] - s["start_ns"] for s in formats) / 1e9
    out["formats.report_bytes"] = sum(int(s["attrs"].get("bytes", 0)) for s in formats)
    for module in ("elliptic", "chiti", "radial"):
        out[f"{module}.share"] = module_self(module) / wall_s
    roots = [(s["start_ns"], s["end_ns"]) for s in spans if s["parent"] is None]
    out["trace.coverage"] = _union_ns(roots) / 1e9 / wall_s
    return out
