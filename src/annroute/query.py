"""Routing-gated best-first search over a frozen HNSW index.

Every level runs hnsw.layer_search. Upper levels keep a result list of
one and score without tests. Gates apply on the base layer only, where
nearly all distance computations happen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, UsageError
from .hnsw import HnswIndex, SearchScratch, layer_search
from .projections import project_query
from .routing import (
    RoutingConfig,
    RoutingMode,
    batch_ar,
    batch_peos_test,
    batch_simhash_test,
    build_quantile_table,
    simhash_sketch,
)
from .vecstore import Metric

_EMPTY_F64 = np.empty(0)
# the config fields each gate reads; a query may differ from its attachment only in the others, eps among them
_GATE_READS = {RoutingMode.PEOS: ("L", "m", "compact"), RoutingMode.SIMHASH: ("simhash_bits",)}


@dataclass
class SearchStats:
    """Counters backing every efficiency claim.

    dist_computations counts exact query-to-node distances on all layers;
    each upper-layer node is scored at most once per level. ungated
    counts evaluations that bypassed the gate (upper layers, the entry
    point, and base-layer blocks seen while the result list was not yet
    full), so dist_computations == tests_passed + ungated holds exactly.
    hops counts base-layer expansions.
    """

    dist_computations: int = 0
    tests_evaluated: int = 0
    tests_passed: int = 0
    hops: int = 0
    ungated: int = 0


@dataclass(frozen=True)
class SearchParams:
    K: int
    efs: int
    routing: RoutingConfig = field(default_factory=RoutingConfig)

    def __post_init__(self):
        if self.K < 1 or self.efs < self.K:
            raise UsageError("need efs >= K >= 1")


class AuditTrace:
    """Shadow record of gated evaluations: decision, exact key, and the gate's key threshold."""

    def __init__(self):
        self.passed: list[np.ndarray] = []
        self.keys: list[np.ndarray] = []
        self.thresholds: list[float] = []

    def record(self, keys: np.ndarray, threshold_key: float, passes: np.ndarray) -> None:
        self.keys.append(keys)
        self.passed.append(passes)
        self.thresholds.append(threshold_key)

    @property
    def n_evaluations(self) -> int:
        return sum(len(keys) for keys in self.keys)

    def true_positive_rate(self) -> tuple[float, int]:
        """Pass rate among gated neighbors whose exact distance beat the threshold."""
        hits = 0
        passed = 0
        for keys, thr, ok in zip(self.keys, self.thresholds, self.passed):
            tp = keys < thr
            hits += int(tp.sum())
            passed += int((tp & ok).sum())
        return (passed / hits if hits else float("nan")), hits


def search(idx: HnswIndex, q: np.ndarray, params: SearchParams,
           scratch: SearchScratch | None = None,
           audit: AuditTrace | None = None) -> tuple[np.ndarray, SearchStats]:
    """Routing-gated best-first search; returns top-K ids ascending by distance.

    A gated query takes only eps from its routing config and the rest from the
    attachment; a config that differs from it in a field the gate reads is refused.
    """
    q64 = np.asarray(q, dtype=np.float64)
    if q64.shape != (idx.dim,):
        raise UsageError(f"query dim {q64.shape} does not match index dim {idx.dim}")
    if params.K > idx.n:
        raise UsageError(f"K={params.K} exceeds dataset size {idx.n}")
    mode = params.routing.mode
    qsq = float(q64 @ q64)
    if not math.isfinite(qsq):
        raise UsageError("query has a non-finite component, or its squared norm overflows")
    qnorm = math.sqrt(qsq)
    if qnorm == 0.0 and (mode != RoutingMode.NONE or idx.metric == Metric.ANGULAR):
        raise DegenerateInputError("zero query")

    att = idx.routing
    qpt = tbl = qsketch = None
    if mode != RoutingMode.NONE:
        if att is None or att.cfg.mode != mode:
            raise UsageError(f"index has no {mode.value} routing attached")
        for name in _GATE_READS[mode]:
            want, got = getattr(att.cfg, name), getattr(params.routing, name)
            if got != want:
                raise UsageError(f"{mode.value} query {name}={got} does not match the attachment's {name}={want}")
    if mode == RoutingMode.PEOS:
        qpt = project_query(q64[att.plan.perm], att.ens)
        tbl = build_quantile_table(params.routing.eps, att.cfg.L, att.cfg.m)
    elif mode == RoutingMode.SIMHASH:
        qsketch = simhash_sketch(q64, att.hashes)

    if scratch is None:
        scratch = idx.make_scratch()
    visited = scratch.visited
    indptr, indices = idx.base_indptr, idx.base_indices
    stats = SearchStats(dist_computations=1, ungated=1)

    def ungated(v, kv, mask, fresh, worst):
        stats.dist_computations += fresh.size
        stats.ungated += fresh.size
        return fresh, idx._keys(q64, qsq, qnorm, fresh)

    # every id array handed to numpy is intp: int32 ids take numpy's slower casting path
    def base_row(v):
        return indices[indptr[v] : indptr[v + 1]].astype(np.intp)

    def gated(v, kv, mask, fresh, worst):
        if worst is None:
            return ungated(v, kv, mask, fresh, worst)
        B = int(fresh.size)
        wk = -worst[0]
        stats.tests_evaluated += B
        if mode == RoutingMode.NONE:
            keys = idx._keys(q64, qsq, qnorm, fresh)
            stats.tests_passed += B
            stats.dist_computations += B
            if audit is not None:
                audit.record(keys, wk, np.ones(B, dtype=bool))
            return fresh, keys
        thr = (wk, kv, idx._row[v])
        slots = indptr[v] + mask.nonzero()[0]
        if mode == RoutingMode.SIMHASH:
            ar = batch_ar(att.store.block(slots, fresh), thr, qnorm, idx.metric)
            passes = batch_simhash_test(att.store.words.take(slots, axis=0), qsketch, ar, params.routing.eps)
        else:
            passes = batch_peos_test(att.store.block(slots, fresh), tbl, qpt, thr, idx.metric)
        passers = fresh[passes]
        stats.tests_passed += passers.size
        stats.dist_computations += passers.size
        if audit is not None:
            all_keys = idx._keys(q64, qsq, qnorm, fresh)
            audit.record(all_keys, wk, passes)
            return passers, all_keys[passes]
        return passers, idx._keys(q64, qsq, qnorm, passers) if passers.size else _EMPTY_F64

    found = [(float(idx._keys(q64, qsq, qnorm, np.array([idx.entry]))[0]), idx.entry)]
    for lev in range(idx.max_level, 0, -1):
        found, _ = layer_search(found, 1, lambda v, lev=lev: idx.upper_row(lev, v).astype(np.intp), ungated,
                                visited, scratch.next_epoch())
    found, stats.hops = layer_search(found, params.efs, base_row, gated, visited, scratch.next_epoch())
    ids = [i for _, i in found[: params.K]]
    return np.asarray(ids, dtype=np.int64), stats

