"""The HNSW index, its construction, the ordering-key kernel and the brute-force oracle.

The graph is frozen after construction: base-layer adjacency lives in a
CSR pair (indptr, indices) with neighbor lists sorted ascending.
"""

from __future__ import annotations

import copy
import heapq
import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateInputError, UsageError
from .routing import QuantileTable, RoutingMode, build_quantile_table
from .vecstore import Dataset, Metric

if TYPE_CHECKING:
    from .edgestore import RoutingAttachment

_EMPTY_I32 = np.empty(0, dtype=np.int32)
_NORM_ROWS = 1 << 10  # vectors widened to float64 at a time for their norms


def ordering_keys(metric: Metric, dots, row, qsq, qn):
    """Ordering keys from dot products: squared L2, 1 - cos, or -dot, each monotone in true distance.

    row is the squared norm of each data row for L2 and its norm for
    angular; IP uses neither. qsq and qn are the query's squared norm and
    norm. Every argument broadcasts, so a pairwise table passes a column
    of row terms and a row of query terms.
    """
    if metric == Metric.L2:
        return qsq + row - 2.0 * dots
    if metric == Metric.ANGULAR:
        return 1.0 - dots / (row * qn)
    return -dots


def upper_descent(upper: dict, keys_of, ep: int, epk: float, top: int, stop: int) -> tuple[int, float, int]:
    """Greedy descent through the upper layers, from level top down to level stop + 1.

    On each level the walk moves to the neighbor with the smallest key
    while that key is below the current one. keys_of(ids) scores a
    neighbor row. Returns the node reached, its key and the number of
    rows scored.
    """
    scored = 0
    for lev in range(top, stop, -1):
        nodes = upper.get(lev, {})
        while True:
            row = nodes.get(ep, _EMPTY_I32)
            if len(row) == 0:
                break
            keys = keys_of(row)
            scored += len(row)
            j = int(np.argmin(keys))
            if keys[j] < epk:
                epk, ep = float(keys[j]), int(row[j])
            else:
                break
    return ep, epk, scored


class SearchScratch:
    """Reusable epoch-stamped visited array; one per sequential caller."""

    def __init__(self, n: int):
        self.visited = np.zeros(n, dtype=np.int64)
        self.epoch = 0

    def next_epoch(self) -> int:
        self.epoch += 1
        return self.epoch


class HnswIndex:
    """Frozen multi-layer graph over a Dataset, optionally with routing metadata.

    The float32 vectors stay in the dataset, the one copy: exact
    distances gather the rows they need and widen them to float64, which
    gives the same float64 row as a widened copy of the whole matrix.
    Beside them the index keeps the float64 squared norm and norm of
    every vector.
    """

    def __init__(self, dataset: Dataset, metric: Metric, M: int, efc: int, seed: int,
                 entry: int, max_level: int, base_indptr: np.ndarray, base_indices: np.ndarray,
                 upper: dict[int, dict[int, np.ndarray]]):
        self.dataset = dataset
        self.metric = metric
        self.M = M
        self.efc = efc
        self.seed = seed
        self.entry = entry
        self.max_level = max_level
        self.base_indptr = base_indptr
        self.base_indices = base_indices
        self.upper = upper
        self.routing: RoutingAttachment | None = None
        # widened a span of rows at a time: a row's sum does not depend on the
        # other rows, so the norms equal those of the whole matrix widened at once
        V = dataset.vectors
        self._sqn = np.empty(V.shape[0])
        for lo in range(0, V.shape[0], _NORM_ROWS):
            vf = V[lo : lo + _NORM_ROWS].astype(np.float64)
            np.einsum("ij,ij->i", vf, vf, out=self._sqn[lo : lo + _NORM_ROWS])
        self._norms = np.sqrt(self._sqn)
        self._row = self._sqn if metric == Metric.L2 else self._norms  # ordering_keys' row term
        self._qtables: dict[float, QuantileTable] = {}

    @property
    def n(self) -> int:
        return self.dataset.n

    @property
    def dim(self) -> int:
        return self.dataset.dim

    @property
    def n_base_edges(self) -> int:
        return int(self.base_indices.shape[0])

    def neighbors(self, v: int) -> np.ndarray:
        return self.base_indices[self.base_indptr[v] : self.base_indptr[v + 1]]

    def quantile_table(self, eps: float) -> QuantileTable:
        att = self.routing
        if att is None or att.mode == RoutingMode.SIMHASH:
            raise UsageError("no projection routing attached")
        tbl = self._qtables.get(eps)
        if tbl is None or tbl.L != att.cfg.L or tbl.m != att.cfg.m:
            tbl = build_quantile_table(eps, att.cfg.L, att.cfg.m)
            self._qtables[eps] = tbl
        return tbl

    def with_routing(self, att: RoutingAttachment | None) -> HnswIndex:
        """A view of this index that shares its graph and vectors and carries att."""
        out = copy.copy(self)
        out.routing = att
        out._qtables = {}
        return out

    def make_scratch(self) -> SearchScratch:
        return SearchScratch(self.n)

    def _keys(self, q64: np.ndarray, qsq: float, qnorm: float, ids: np.ndarray) -> np.ndarray:
        """Ordering keys of the rows ids for one query (see ordering_keys)."""
        dots = self.dataset.vectors.take(ids, axis=0).astype(np.float64) @ q64
        return ordering_keys(self.metric, dots, self._row.take(ids), qsq, qnorm)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def build_hnsw(ds: Dataset, M: int, efc: int, metric: Metric, seed: int) -> HnswIndex:
    """Standard HNSW construction: geometric levels, beam insertion, diversity pruning."""
    if M < 2 or efc < 1:
        raise UsageError("need M >= 2 and efc >= 1")
    n = ds.n
    vf = ds.vectors.astype(np.float64)
    sqn = np.einsum("ij,ij->i", vf, vf)
    norms = np.sqrt(sqn)
    if metric == Metric.ANGULAR and np.any(norms == 0.0):
        raise DegenerateInputError("angular metric needs nonzero data vectors")
    rows = sqn if metric == Metric.L2 else norms

    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(3,))))
    mult = 1.0 / math.log(M)
    levels = np.floor(-np.log(np.clip(1.0 - gen.random(n), 1e-300, None)) * mult).astype(np.int32)

    m_max0 = 2 * M
    base_adj = np.full((n, m_max0), -1, dtype=np.int32)
    base_deg = np.zeros(n, dtype=np.int32)
    upper: dict[int, dict[int, list[int]]] = {}

    def _keys_to(q: np.ndarray, qsq: float, qn: float, ids) -> np.ndarray:
        return ordering_keys(metric, vf.take(ids, axis=0) @ q, rows.take(ids), qsq, qn)

    def _neigh(v: int, lev: int):
        if lev == 0:
            return base_adj[v, : base_deg[v]]
        return upper[lev].get(v, _EMPTY_I32)

    scratch = SearchScratch(n)

    def _search_layer(q, qsq, qn, entry_points, ef, lev):
        epoch = scratch.next_epoch()
        visited = scratch.visited
        cand: list[tuple[float, int]] = []
        res: list[tuple[float, int]] = []
        for k, e in entry_points:
            visited[e] = epoch
            heapq.heappush(cand, (k, e))
            heapq.heappush(res, (-k, e))
        while cand:
            k, c = heapq.heappop(cand)
            if len(res) == ef and k > -res[0][0]:
                break
            row = _neigh(c, lev)
            if len(row) == 0:
                continue
            row = np.asarray(row, dtype=np.int32)
            fresh = row[visited[row] != epoch]
            if fresh.size == 0:
                continue
            visited[fresh] = epoch
            keys = _keys_to(q, qsq, qn, fresh)
            if len(res) == ef:  # the worst key only falls, so a key not below it now never enters
                keep = keys < -res[0][0]
                keys, fresh = keys[keep], fresh[keep]
            for k2, u in zip(keys.tolist(), fresh.tolist()):
                if len(res) < ef:
                    heapq.heappush(res, (-k2, u))
                    heapq.heappush(cand, (k2, u))
                elif k2 < -res[0][0]:
                    heapq.heapreplace(res, (-k2, u))
                    heapq.heappush(cand, (k2, u))
        return sorted((-nk, u) for nk, u in res)

    def _pairwise_keys(ids: np.ndarray) -> np.ndarray:
        X = vf[ids]
        r = rows[ids]
        return ordering_keys(metric, X @ X.T, r[:, None], r[None, :], r[None, :])

    def _select_prefix(ids: np.ndarray, keys: list[float], limit: int) -> list[int]:
        pair = _pairwise_keys(ids)
        best = np.full(len(ids), np.inf)
        sel: list[int] = []
        for i, k in enumerate(keys):
            if len(sel) == limit:
                break
            if best[i] < k:
                continue
            sel.append(i)
            np.minimum(best, pair[:, i], out=best)
        return [int(ids[i]) for i in sel]

    def _select(cands, limit):
        """Diversity heuristic: keep candidates closer to the target than to any kept one.

        Selection scans candidates in ascending order and each decision
        depends only on earlier picks, so running it on a prefix is exact;
        the full candidate list is only touched when the prefix cannot
        fill the limit.
        """
        if len(cands) <= 1:
            return [c for _, c in cands]
        ids = np.asarray([c for _, c in cands], dtype=np.int64)
        keys = [k for k, _ in cands]
        prefix = 4 * limit
        if len(ids) > prefix:
            sel = _select_prefix(ids[:prefix], keys[:prefix], limit)
            if len(sel) == limit:
                return sel
        return _select_prefix(ids, keys, limit)

    def _link(v: int, targets: list[int], lev: int) -> None:
        if lev == 0:
            base_deg[v] = len(targets)
            base_adj[v, : len(targets)] = targets
        else:
            upper[lev][v] = list(targets)

    def _add_reverse(s: int, v: int, lev: int) -> None:
        limit = m_max0 if lev == 0 else M
        if lev == 0:
            if base_deg[s] < limit:
                base_adj[s, base_deg[s]] = v
                base_deg[s] += 1
                return
            ids = np.append(base_adj[s, : base_deg[s]], v)
        else:
            cur = upper[lev].setdefault(s, [])
            if len(cur) < limit:
                cur.append(v)
                return
            ids = np.asarray(cur + [v], dtype=np.int64)
        keys = _keys_to(vf[s], sqn[s], norms[s], ids)
        order = np.argsort(keys, kind="stable")
        ranked = [(float(keys[j]), int(ids[j])) for j in order]
        kept = _select(ranked, limit)
        if len(kept) < limit:
            chosen = set(kept)
            for _, c in ranked:  # keep pruned connections to stay at full degree
                if c not in chosen:
                    kept.append(c)
                    chosen.add(c)
                    if len(kept) == limit:
                        break
        if lev == 0:
            base_deg[s] = len(kept)
            base_adj[s, : len(kept)] = kept
        else:
            upper[lev][s] = kept

    entry = 0
    max_level = int(levels[0])
    for lev in range(1, max_level + 1):
        upper.setdefault(lev, {})[0] = []

    for i in range(1, n):
        q, qsq_i, qn_i = vf[i], float(sqn[i]), float(norms[i])
        lvl = int(levels[i])
        epk = float(_keys_to(q, qsq_i, qn_i, np.array([entry]))[0])
        ep, epk, _ = upper_descent(upper, lambda ids: _keys_to(q, qsq_i, qn_i, ids), entry, epk, max_level, lvl)
        eps_list = [(epk, ep)]
        for lev in range(min(lvl, max_level), -1, -1):
            if lev > 0:
                upper.setdefault(lev, {}).setdefault(i, [])
            cands = _search_layer(q, qsq_i, qn_i, eps_list, efc, lev)
            sel = _select(cands, M)
            _link(i, sel, lev)
            for s in sel:
                _add_reverse(s, i, lev)
            eps_list = cands
        if lvl > max_level:
            for lev in range(max_level + 1, lvl + 1):
                upper.setdefault(lev, {})[i] = list(upper.get(lev, {}).get(i, []))
            entry = i
            max_level = lvl

    # repair pass: pruning can leave a node with no incoming base edge,
    # making it unreachable; reconnect each orphan through an out-neighbor
    # with spare capacity, else evict that neighbor's farthest entry.
    # Repaired edges are protected so competing orphans cannot evict them.
    protected: set[int] = set()
    for _ in range(8):
        indeg = np.bincount(
            np.concatenate([base_adj[v, : base_deg[v]] for v in range(n)])
            if n > 1 else np.empty(0, dtype=np.int64),
            minlength=n,
        )
        orphans = [v for v in range(n) if indeg[v] == 0 and v != entry and base_deg[v] > 0]
        if not orphans:
            break
        for o in orphans:
            row = base_adj[o, : base_deg[o]].astype(np.int64)
            keys = _keys_to(vf[o], sqn[o], norms[o], row)
            order = np.argsort(keys, kind="stable")
            target = None
            for j in order:
                if base_deg[row[j]] < m_max0:
                    target = int(row[j])
                    break
            if target is not None:
                base_adj[target, base_deg[target]] = o
                base_deg[target] += 1
            else:
                nbr = int(row[order[0]])
                nrow = base_adj[nbr, : base_deg[nbr]].astype(np.int64)
                nkeys = _keys_to(vf[nbr], sqn[nbr], norms[nbr], nrow)
                evictable = [j for j in np.argsort(-nkeys, kind="stable")
                             if int(nrow[j]) not in protected]
                slot = evictable[0] if evictable else int(np.argmax(nkeys))
                base_adj[nbr, int(slot)] = o
            protected.add(o)

    # freeze: sorted neighbor lists, CSR base layer
    for v in range(n):
        base_adj[v, : base_deg[v]] = np.sort(base_adj[v, : base_deg[v]])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(base_deg, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int32)
    for v in range(n):
        indices[indptr[v] : indptr[v + 1]] = base_adj[v, : base_deg[v]]
    frozen_upper: dict[int, dict[int, np.ndarray]] = {}
    for lev, nodes in upper.items():
        frozen_upper[lev] = {
            v: np.asarray(sorted(lst), dtype=np.int32) for v, lst in nodes.items()
        }
    return HnswIndex(
        dataset=ds, metric=metric, M=M, efc=efc, seed=seed, entry=entry, max_level=max_level,
        base_indptr=indptr, base_indices=indices, upper=frozen_upper,
    )


# ---------------------------------------------------------------------------
# Brute force oracle
# ---------------------------------------------------------------------------


def brute_force_all(ds: Dataset, queries: np.ndarray, K: int, metric: Metric) -> np.ndarray:
    """Ground truth for a query batch: one row of K ascending-distance ids per query.

    The vectors are widened and their norms taken once per batch; each
    query's keys are one matrix-vector product against them. The query's
    squared norm is the same for every row, so L2 leaves it out.
    """
    if K > ds.n or K < 1:
        raise UsageError(f"K={K} out of range for n={ds.n}")
    Q = np.asarray(queries, dtype=np.float64)
    vf = ds.vectors.astype(np.float64)
    rows = np.einsum("ij,ij->i", vf, vf) if metric == Metric.L2 else np.linalg.norm(vf, axis=1)
    out = np.empty((Q.shape[0], K), dtype=np.int64)
    for i, q64 in enumerate(Q):
        qn = np.linalg.norm(q64)
        if qn == 0.0 and metric == Metric.ANGULAR:
            raise DegenerateInputError("zero query")
        keys = ordering_keys(metric, vf @ q64, rows, 0.0, qn)
        out[i] = np.argsort(keys, kind="stable")[:K]
    return out
