"""The HNSW index, its construction, the ordering-key kernel and the brute-force oracle.

The graph is frozen after construction: the base layer is a CSR pair
(indptr, indices) and each upper level maps a node to its row, a slice of
one int32 array per level; every neighbor list is sorted ascending.
"""

from __future__ import annotations

import copy
import heapq
import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateInputError, UsageError
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


def layer_search(entries, cap: int, row_of, score, visited: np.ndarray,
                 epoch: int) -> tuple[list[tuple[float, int]], int]:
    """Best-first search of one graph level: HNSW's SEARCH-LAYER for build and search alike.

    entries are at most cap (key, id) pairs, already scored. row_of(v) is
    v's neighbor row as intp ids; the search marks ids visited[id] = epoch
    and scores each id once. score(v, kv, mask, fresh, worst) is handed
    the popped node and its key, the row's mask of unvisited ids, those
    ids and, once the result list is full, its worst entry (-key, -id),
    else None; it returns the ids to offer and their keys. A full list's
    worst key only falls, so offers with a key above it are dropped
    before the loop.

    The result list is a heap of (-key, -id): its root is the worst entry
    and, among equal keys, the higher id, so a newcomer with an equal key
    and a lower id enters. Returns the list sorted ascending by (key, id)
    and the number of nodes expanded.
    """
    heappop, heappush, heapreplace = heapq.heappop, heapq.heappush, heapq.heapreplace
    cand = list(entries)
    res = [(-k, -u) for k, u in entries]
    heapq.heapify(cand)
    heapq.heapify(res)
    for _, u in entries:
        visited[u] = epoch
    hops = 0
    while cand:
        k, v = heappop(cand)
        full = len(res) == cap
        if full and k > -res[0][0]:
            break
        hops += 1
        row = row_of(v)
        mask = visited[row] != epoch
        fresh = row[mask]
        if fresh.size == 0:
            continue
        visited[fresh] = epoch
        worst = res[0] if full else None
        ids, keys = score(v, k, mask, fresh, worst)
        if full:
            near = keys <= -worst[0]
            ids, keys = ids[near], keys[near]
        for k2, u in zip(keys.tolist(), ids.tolist()):
            item = (-k2, -u)
            if len(res) < cap:
                heappush(res, item)
            elif item > res[0]:  # key below the worst, or equal with a lower id
                heapreplace(res, item)
            else:
                continue
            heappush(cand, (k2, u))
    return sorted((-nk, -ni) for nk, ni in res), hops


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
    Beside them the index keeps the float64 squared norm of every vector,
    and for the angular metric, whose keys and gate threshold read it, its
    norm.
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
        self._norms = np.sqrt(self._sqn) if metric == Metric.ANGULAR else None
        self._row = self._sqn if self._norms is None else self._norms  # ordering_keys' row term; IP reads none

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

    def upper_row(self, lev: int, v: int) -> np.ndarray:
        """v's neighbor row on upper level lev; empty if v is not on that level."""
        return self.upper.get(lev, {}).get(v, _EMPTY_I32)

    def with_routing(self, att: RoutingAttachment | None) -> HnswIndex:
        """A view of this index that shares its graph and vectors and carries att."""
        out = copy.copy(self)
        out.routing = att
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
    """Standard HNSW construction: geometric levels, beam insertion, diversity pruning.

    Every level is built as a padded intp row matrix plus a degree per
    row, 2M wide on the base level and M above; level lev has a row for
    each node that drew a level of at least lev, in id order. The rows
    are intp so that numpy's gathers and scatters by them skip a cast;
    the frozen graph holds them as int32.
    """
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

    top = int(levels.max())
    member = levels[None, :] >= np.arange(top + 1)[:, None]
    at = (np.cumsum(member, axis=1) - 1).tolist()  # at[lev][v]: v's row on level lev, if v is a member
    width = [2 * M] + [M] * top
    adj = [np.full((int(member[lev].sum()), width[lev]), n, dtype=np.intp) for lev in range(top + 1)]
    deg = [np.zeros(a.shape[0], dtype=np.int32) for a in adj]

    def _keys_to(q: np.ndarray, qsq: float, qn: float, ids) -> np.ndarray:
        return ordering_keys(metric, vf.take(ids, axis=0) @ q, rows.take(ids), qsq, qn)

    def rows_on(lev: int):
        """Level lev's row function: a view of a node's padded row, up to its degree."""
        rows_at, A, D = at[lev], adj[lev], deg[lev]
        return lambda v: A[rows_at[v], : D[rows_at[v]]]

    def set_row(lev: int, v: int, ids) -> None:
        r = at[lev][v]
        deg[lev][r] = len(ids)
        adj[lev][r, : len(ids)] = ids

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

    def _add_reverse(s: int, v: int, lev: int) -> None:
        r, limit = at[lev][s], width[lev]
        if deg[lev][r] < limit:
            adj[lev][r, deg[lev][r]] = v
            deg[lev][r] += 1
            return
        ids = np.append(adj[lev][r], v)
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
        set_row(lev, s, kept)

    row_fns = [rows_on(lev) for lev in range(top + 1)]
    scratch = SearchScratch(n)
    entry = 0
    for i in range(1, n):
        q, qsq_i, qn_i = vf[i], float(sqn[i]), float(norms[i])
        lvl = int(levels[i])
        cur_top = int(levels[entry])  # the entry is the first node of the highest level so far

        def score(v, kv, mask, fresh, worst):
            return fresh, _keys_to(q, qsq_i, qn_i, fresh)

        found = [(float(_keys_to(q, qsq_i, qn_i, np.array([entry]))[0]), entry)]
        for lev in range(cur_top, -1, -1):
            found, _ = layer_search(found, efc if lev <= lvl else 1, row_fns[lev], score,
                                    scratch.visited, scratch.next_epoch())
            if lev <= lvl:
                sel = _select(found, M)
                set_row(lev, i, sel)
                for s in sel:
                    _add_reverse(s, i, lev)
        if lvl > cur_top:
            entry = i

    def frozen(lev: int) -> tuple[np.ndarray, np.ndarray]:
        """Level lev's row offsets and its rows sorted, concatenated in one int32 array."""
        held = np.arange(width[lev]) < deg[lev][:, None]
        bounds = np.zeros(held.shape[0] + 1, dtype=np.int64)
        np.cumsum(deg[lev], out=bounds[1:])
        return bounds, np.sort(np.where(held, adj[lev], n), axis=1)[held].astype(np.int32)  # pads sort last

    # repair pass: pruning can leave a node with no incoming base edge,
    # making it unreachable; reconnect each orphan through an out-neighbor
    # with spare capacity, else evict that neighbor's farthest entry.
    # Repaired edges are protected so competing orphans cannot evict them.
    protected: set[int] = set()
    for _ in range(8):
        indeg = np.bincount(frozen(0)[1], minlength=n)
        orphans = np.flatnonzero((indeg == 0) & (deg[0] > 0) & (np.arange(n) != entry)).tolist()
        if not orphans:
            break
        for o in orphans:
            row = row_fns[0](o)
            keys = _keys_to(vf[o], sqn[o], norms[o], row)
            order = np.argsort(keys, kind="stable")
            spare = [int(row[j]) for j in order if deg[0][row[j]] < width[0]]
            if spare:
                _add_reverse(spare[0], o, 0)
            else:
                nbr = int(row[order[0]])
                nrow = row_fns[0](nbr)
                nkeys = _keys_to(vf[nbr], sqn[nbr], norms[nbr], nrow)
                evictable = [j for j in np.argsort(-nkeys, kind="stable")
                             if int(nrow[j]) not in protected]
                slot = evictable[0] if evictable else int(np.argmax(nkeys))
                adj[0][nbr, int(slot)] = o
            protected.add(o)

    indptr, indices = frozen(0)
    upper: dict[int, dict[int, np.ndarray]] = {}
    for lev in range(1, top + 1):
        bounds, ids = frozen(lev)
        upper[lev] = {v: ids[a:b] for v, a, b in
                      zip(np.flatnonzero(member[lev]).tolist(), bounds[:-1].tolist(), bounds[1:].tolist())}
    return HnswIndex(
        dataset=ds, metric=metric, M=M, efc=efc, seed=seed, entry=entry, max_level=top,
        base_indptr=indptr, base_indices=indices, upper=upper,
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
    if not np.isfinite(Q).all():
        raise UsageError("query batch has a non-finite component")
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
