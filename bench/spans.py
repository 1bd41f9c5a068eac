"""Layer spans recorded from outside the program.

``Tracer.install`` wraps each function in ``TRACED`` by rebinding its name in
every ``starmetric`` module namespace that binds it (``validate`` is bound in
``spaces``, ``cli`` and the package itself, for instance), so calls made
through any of those names are recorded.  Construction of
``FiniteMetricSpace`` is recorded by wrapping its ``__init__``.

Spans live in flat in-memory arrays (name, parent span, start, end) and are
aggregated only at the end: a function's self time is its spans' duration
minus the part covered by their child spans.  Spans made in worker
processes of a parallel campaign stay in those workers and are not counted.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

TRACED = (
    ("cli", "main"),
    ("fileio", "parse_space_file"),
    ("spaces", "FiniteMetricSpace"),
    ("spaces", "validate"),
    ("spaces", "restrict"),
    ("spaces", "spectrum"),
    ("stars", "center_condition_violation"),
    ("stars", "star_from_center"),
    ("stars", "star_to_dot"),
    ("decision", "diagnose"),
    ("decision", "find_center"),
    ("decision", "forbidden_scan"),
    ("decision", "embeds_in_dplus"),
    ("diametrical", "classify_four_point"),
    ("similarity", "classify_forbidden"),
    ("similarity", "rank_matrix"),
    ("similarity", "weakly_similar"),
    ("lab", "sample_dendrogram"),
    ("lab", "evaluate_conjecture"),
    ("lab", "run_campaign"),
)

# the one traced search whose useful outcome is a non-None result
FOUND = ("similarity", "weakly_similar")


def layer_metric_names() -> list[str]:
    names = []
    for module, attr in TRACED:
        names += [f"{module}.{attr}.calls", f"{module}.{attr}.self_s"]
    return names + [f"{'.'.join(FOUND)}.found_frac", "trace.overhead_frac"]


class Tracer:
    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.found = [0] * len(TRACED)
        self.current = -1
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "starmetric" or key.startswith("starmetric.")]
        for nid, (module, attr) in enumerate(TRACED):
            original = getattr(importlib.import_module(f"starmetric.{module}"), attr)
            if isinstance(original, type):
                init = original.__init__
                self._restore.append((original, "__init__", init))
                original.__init__ = self._wrap(nid, init)
                continue
            wrapper = self._wrap(nid, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def _wrap(self, nid: int, fn):
        names, parents, starts, ends, found = self.name, self.parent, self.start, self.end, self.found
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(parents)
            names.append(nid)
            parents.append(tracer.current)
            ends.append(0.0)
            tracer.current = idx
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                tracer.current = parents[idx]
            if result is not None:
                found[nid] += 1
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        """``.calls`` and ``.self_s`` per traced function, plus the found
        fraction of the weak-similarity search."""
        count = len(self.parent)
        covered = array("d", bytes(8 * count))
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        calls = [0] * len(TRACED)
        self_s = [0.0] * len(TRACED)
        for i in range(count):
            nid = self.name[i]
            calls[nid] += 1
            self_s[nid] += self.end[i] - self.start[i] - covered[i]
        out: dict[str, float] = {}
        for nid, (module, attr) in enumerate(TRACED):
            out[f"{module}.{attr}.calls"] = calls[nid]
            out[f"{module}.{attr}.self_s"] = self_s[nid]
        nid = TRACED.index(FOUND)
        out[f"{'.'.join(FOUND)}.found_frac"] = self.found[nid] / calls[nid] if calls[nid] else 0.0
        return out
