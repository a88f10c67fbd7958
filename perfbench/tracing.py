"""Spans around the calls that cross annroute's layer boundaries.

The tracer wraps functions and methods from the benchmark's side: it
rebinds each target in every annroute module that refers to it, so the
program's own code is untouched and, with the tracer uninstalled, pays
nothing. A span is (name, phase, query, start, end, parent). Spans stay
in memory and are written out once, at the end of the run. A layer's
self time is its span minus the spans of its direct children.

Hooks that count gate decisions run after their span closes; their own
time is recorded as a ``trace.hook`` child of the enclosing span, so it
is taken out of that span's self time.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

HOOK = "trace.hook"

# (span name, owner, attribute): the owner is a class name for methods, None for functions
TARGETS = [
    ("vecstore.load_fvecs", None, "load_fvecs"),
    ("graph.build_hnsw", None, "build_hnsw"),
    ("graph.attach", None, "attach"),
    ("graph.save_index", None, "save_index"),
    ("graph.load_index", None, "load_index"),
    ("graph.search", None, "search"),
    ("graph.keys", "HnswIndex", "_keys"),
    ("graph.meta_block", "EdgeMetaStore", "block"),
    ("routing.finalize", "EdgeMetaStore", "finalize"),
    ("routing.peos_test", None, "batch_peos_test"),
    ("routing.simhash_test", None, "batch_simhash_test"),
    ("routing.ar", None, "batch_ar"),
    ("projections.project_query", None, "project_query"),
    ("routing.simhash_sketch", None, "simhash_sketch"),
    ("routing.build_quantile_table", None, "build_quantile_table"),
    ("projections.generate_ensemble", None, "generate_ensemble"),
    ("routing.generate_simhash_hashes", None, "generate_simhash_hashes"),
    ("routing.quantizer_fit", "ScalarQuantizer", "fit"),
    ("routing.quantizer_encode", "ScalarQuantizer", "encode"),
    ("routing.var_row_indices", None, "var_row_indices"),
]

GATE_COUNTS = ("gated_edges", "auto_pass", "auto_reject", "tested_pass", "tested_reject")


def _annroute_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "annroute" or name.startswith("annroute."))]


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.qid = -1
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._orig: dict[str, object] = {}

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        self.missing = []
        mods = _annroute_modules()
        for span, owner, attr in TARGETS:
            if owner is None:
                orig = next((getattr(m, attr) for m in mods
                             if getattr(getattr(m, attr, None), "__module__", None) == m.__name__), None)
                if orig is None:
                    self.missing.append(span)
                    continue
                self._orig[attr] = orig
                wrapped = self._wrap(orig, span, self._hook_for(attr))
                for m in mods:
                    for name, val in list(vars(m).items()):
                        if val is orig:
                            self._patch(m, name, wrapped)
            else:
                cls = next((vars(m)[owner] for m in mods if isinstance(vars(m).get(owner), type)), None)
                raw = vars(cls).get(attr) if cls is not None else None
                if raw is None:
                    self.missing.append(span)
                    continue
                if isinstance(raw, classmethod):
                    self._patch(cls, attr, classmethod(self._wrap(raw.__func__, span, None)))
                else:
                    self._patch(cls, attr, self._wrap(raw, span, self._hook_for(attr)))

    def uninstall(self) -> None:
        for owner, name, val in reversed(self._patches):
            setattr(owner, name, val)
        self._patches = []

    def _patch(self, owner, name, new) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def _wrap(self, fn, span: str, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[i] = (span, self.phase, self.qid, t0, t1, parent)
            if hook is not None:
                hook(args, out)
                spans.append((HOOK, self.phase, self.qid, t1, perf_counter(), parent))
            return out

        return traced

    # -- counting hooks ------------------------------------------------------

    def _hook_for(self, attr: str):
        return {"_keys": self._count_rows,
                "batch_peos_test": self._count_peos,
                "batch_simhash_test": self._count_simhash}.get(attr)

    def _count_rows(self, args, out) -> None:
        self.counts["dist_rows"] += len(args[4])

    def _count_bands(self, passes, auto_pass, auto_reject) -> None:
        mid = ~(auto_pass | auto_reject)
        c = self.counts
        c["gated_edges"] += passes.size
        c["auto_pass"] += np.count_nonzero(auto_pass)
        c["auto_reject"] += np.count_nonzero(auto_reject)
        tested_pass = np.count_nonzero(passes & mid)
        c["tested_pass"] += tested_pass
        c["tested_reject"] += np.count_nonzero(mid) - tested_pass

    def _count_peos(self, args, passes) -> None:
        block, _tbl, qpt, ts = args[:4]
        metric = args[4] if len(args) > 4 else self._orig["batch_peos_test"].__defaults__[0]
        ar = self._orig["batch_ar"](block, ts, qpt.qnorm, metric)
        self._count_bands(np.asarray(passes, dtype=bool), ar <= -1.0, ar >= 1.0)

    def _count_simhash(self, args, passes) -> None:
        ar = np.asarray(args[2])
        self._count_bands(np.asarray(passes, dtype=bool), ar <= 0.0, ar >= 1.0)

    def take_counts(self) -> dict[str, int]:
        out = dict(self.counts)
        self.counts.clear()
        return out

    # -- reading the spans ---------------------------------------------------

    def table(self) -> "SpanTable":
        return SpanTable(self.spans)

    def write(self, path: str) -> None:
        """All spans as column lists: name and phase codes, query, start and duration in us."""
        spans = self.spans
        names = sorted({s[0] for s in spans})
        phases = sorted({s[1] for s in spans})
        t_ref = spans[0][3] if spans else 0.0
        doc = {
            "names": names, "phases": phases,
            "name": [names.index(s[0]) for s in spans],
            "phase": [phases.index(s[1]) for s in spans],
            "query": [s[2] for s in spans],
            "start_us": [round((s[3] - t_ref) * 1e6, 1) for s in spans],
            "dur_us": [round((s[4] - s[3]) * 1e6, 1) for s in spans],
            "parent": [s[5] for s in spans],
            "missing": self.missing,
        }
        with gzip.open(path, "wt") as f:
            json.dump(doc, f, separators=(",", ":"))


class SpanTable:
    """Durations and self times of recorded spans, filtered by name and phase."""

    def __init__(self, spans: list):
        self.name = np.array([s[0] for s in spans], dtype=object)
        self.phase = np.array([s[1] for s in spans], dtype=object)
        self.dur = np.array([s[4] - s[3] for s in spans])
        self.parent = np.array([s[5] for s in spans], dtype=np.int64)
        child = np.zeros(len(spans))
        has = self.parent >= 0
        np.add.at(child, self.parent[has], self.dur[has])
        self.self_time = self.dur - child
        self.parent_name = np.where(has, self.name[np.maximum(self.parent, 0)], None)

    def _mask(self, names, phase, parents):
        mask = np.isin(self.name, [names] if isinstance(names, str) else list(names))
        if phase is not None:
            mask &= self.phase == phase
        if parents is not None:
            mask &= np.isin(self.parent_name, list(parents))
        return mask

    def total(self, names, phase=None, parents=None) -> float:
        return float(self.dur[self._mask(names, phase, parents)].sum())

    def total_self(self, names, phase=None) -> float:
        return float(self.self_time[self._mask(names, phase, None)].sum())

    def count(self, names, phase=None) -> int:
        return int(self._mask(names, phase, None).sum())
