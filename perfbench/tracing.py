"""Per-layer tracing from outside the program.

Public functions of each coendo module are replaced, for the length of a
traced pass, by wrappers that time them or count their calls.  A module
that did ``from .rootsys import weyl_generate`` holds its own binding, so
every coendo module namespace bound to the original object is patched,
not only the defining one.  Methods are patched on their class.

Spans are folded into totals as they close: a span's self time is its
duration minus the time covered by the traced spans it called, so the
self times of nested layers add up without double counting.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict


# (module, attribute, span, calls counter, size counter, size of result)
# A span named X yields the metric X_s (self time, seconds).  Targets with
# no span are only counted: they run too often to be timed cheaply, and
# their time stays in the self time of the span that called them.
TARGETS = [
    ("cli", "Context.__init__", "cli.context", None, None, None),
    ("cli", "emit", "cli.emit", None, None, None),
    ("rootsys", "weyl_generate", "rootsys.weyl_generate", None,
     "rootsys.weyl_elements", lambda weyl: weyl.order),
    ("rootsys", "WeylGroup.mul", None, "rootsys.weyl_mul_calls", None, None),
    ("rootsys", "WeylGroup.length", None, "rootsys.weyl_length_calls",
     None, None),
    ("rootsys", "WeylGroup.cosets", "rootsys.weyl_cosets",
     "rootsys.weyl_cosets_calls", None, None),
    ("torus", "centralizer_masks_for", "torus.sweep", None,
     "torus.points_swept", lambda result: len(result[0])),
    ("torus", "subgroup_points", "torus.subgroup_points",
     "torus.subgroup_points_calls", None, None),
    ("intlinalg", "snf_transform", "intlinalg.snf", "intlinalg.snf_calls",
     None, None),
    ("coendoscopy", "equal_rank_subsystems", "coendoscopy.equal_rank", None,
     "coendoscopy.candidates", len),
    ("coendoscopy", "strata_poset", "coendoscopy.strata_poset", None,
     "coendoscopy.strata", lambda poset: len(poset.strata)),
    ("coendoscopy", "classify", "coendoscopy.classify", None, None, None),
    ("coefficients", "n_table", "coefficients.n_table", None,
     "coefficients.rows", lambda table: len(table.rows)),
    ("coefficients", "n_coefficient", None,
     "coefficients.n_coefficient_calls", None, None),
    ("coefficients", "stratum_sum", None, "coefficients.stratum_sum_calls",
     None, None),
    ("predictions", "assemble_prediction", "predictions.assemble", None,
     None, None),
    ("oracle", "run_instance", None, "oracle.instances", None, None),
    ("oracle", "brute_strata_check", "oracle.brute_strata", None, None, None),
    ("oracle", "bds_cross_check", "oracle.bds_cross", None, None, None),
    ("oracle", "field_extension_check", "oracle.field_extension", None,
     None, None),
    ("oracle", "cyclotomic_grid_check", "oracle.cyclotomic_grid", None,
     None, None),
]


def coendo_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "coendo" or name.startswith("coendo."))]


class Tracer:
    """Self time per span and counts per counter, for one traced pass.

    Entering the context patches every target; leaving restores them.
    """

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._open: list[float] = []  # child time of each open span
        self._patches: list[tuple[object, str, object]] = []

    def _counted(self, fn, calls):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, fn, span, calls, size, size_of):
        self_s, counts, open_spans = self.self_s, self.counts, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                self_s[span] += took - open_spans.pop()
                if open_spans:
                    open_spans[-1] += took
            if calls:
                counts[calls] += 1
            if size:
                counts[size] += size_of(result)
            return result

        return wrapper

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def __enter__(self):
        modules = coendo_modules()
        by_name = {m.__name__: m for m in modules}
        for module, attr, span, calls, size, size_of in TARGETS:
            owner = by_name[f"coendo.{module}"]
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            if span:
                wrapper = self._timed(original, span, calls, size, size_of)
            else:
                wrapper = self._counted(original, calls)
            if len(path) > 1:  # a method: patch it on its class
                self._patch(owner, path[-1], wrapper)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, wrapper)
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)
        return False

    def metrics(self) -> dict[str, float]:
        out = {}
        for _, _, span, calls, size, _ in TARGETS:
            if calls:
                out[calls] = self.counts[calls]
            if span:
                out[f"{span}_s"] = self.self_s[span]
            if size:
                out[size] = self.counts[size]
        return out
