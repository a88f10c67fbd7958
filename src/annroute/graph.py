"""HNSW-style index, routing-gated best-first search, and the brute-force oracle.

The graph is frozen after construction: base-layer adjacency lives in a
CSR pair (indptr, indices) with neighbor lists sorted ascending, and
per-edge routing metadata is stored slot-aligned with the CSR so a
popped node's whole edge block can be gated in one vectorized call.
Upper layers route greedily without tests; gates apply on the base
layer only, where nearly all distance computations happen.
"""

from __future__ import annotations

import copy
import hashlib
import heapq
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import CorruptionError, DegenerateInputError, FormatError, UsageError
from .projections import RNG_ID, ProjectionEnsemble, generate_ensemble, project_query
from .routing import (
    EdgeMetaBlock,
    EdgeMeta,
    EdgeQuantizers,
    QuantileTable,
    RoutingConfig,
    RoutingMode,
    ScalarQuantizer,
    ThresholdState,
    batch_ar,
    batch_peos_test,
    batch_simhash_test,
    build_quantile_table,
    generate_simhash_hashes,
    simhash_sketch,
    table_offset_base,
    var_row_indices,
    _RES_EPS,
)
from .vecstore import Dataset, Metric, PermutationPlan, build_permutation

INDEX_MAGIC = b"PEOS"
INDEX_VERSION = 1
_ATTACH_CHUNK = 1 << 16


@dataclass
class SearchStats:
    """Counters backing every efficiency claim.

    dist_computations counts exact query-to-node distances on all layers.
    ungated counts evaluations that bypassed the gate (upper layers, the
    entry point, and base-layer blocks seen while the result list was
    not yet full), so dist_computations == tests_passed + ungated holds
    exactly. The per-pop v.q dot products are tracked separately.
    """

    dist_computations: int = 0
    tests_evaluated: int = 0
    tests_passed: int = 0
    hops: int = 0
    ungated: int = 0
    vq_computations: int = 0


@dataclass(frozen=True)
class SearchParams:
    K: int
    efs: int
    routing: RoutingConfig = field(default_factory=RoutingConfig)

    def __post_init__(self):
        if self.K < 1 or self.efs < self.K:
            raise UsageError("need efs >= K >= 1")


class EdgeMetaStore:
    """Struct-of-arrays metadata for every directed base-layer edge.

    The byte codes are what the file stores. Beside them the store keeps
    the gate's working form: half_u_sq and enorm decoded side by side in
    one (E, 2) array, and for peos/rceos the extreme ids as flat offsets
    into a query's signed table (see projections.QueryProjectionTable)
    and the weights (w_reg, sqrt(L) * w_res) as one (E, 2) array.
    """

    def __init__(self, mode: RoutingMode, L: int, m: int, compact: bool,
                 simhash_bits: int, quant: EdgeQuantizers, n_edges: int):
        self.mode = mode
        self.L = L
        self.m = m
        self.compact = compact
        self.simhash_bits = simhash_bits
        self.quant = quant
        self.n_edges = n_edges
        norm_dtype = np.uint8 if compact else np.uint16
        self.half_q = np.zeros(n_edges, dtype=norm_dtype)
        self.enorm_q = np.zeros(n_edges, dtype=norm_dtype)
        self.norms = np.zeros((n_edges, 2))
        self.enorm_min = 0.0
        if mode == RoutingMode.SIMHASH:
            self.sketches = np.zeros((n_edges, simhash_bits // 8), dtype=np.uint8)
            self.offsets = None
        else:
            size = (L + 1) * (2 * m + 1)
            self.offsets = np.empty((n_edges, L + 1), dtype=np.min_scalar_type(size - 1))
            self.set_ids(slice(None), 0)
            self.w_reg_q = np.zeros(n_edges, dtype=np.uint8)
            self.w_res_q = np.zeros(n_edges, dtype=np.uint8)
            self.var_idx = np.zeros(n_edges, dtype=np.uint8)
            self.weights = np.zeros((n_edges, 2))

    @property
    def ids(self) -> np.ndarray:
        """Signed extreme ids, (E, L+1), column 0 the residual id (0 in compact mode)."""
        return (self.offsets - table_offset_base(self.L, self.m)).astype(np.int16)

    def set_ids(self, sl: slice, ids) -> None:
        self.offsets[sl] = ids + table_offset_base(self.L, self.m)

    def finalize(self) -> None:
        """Refresh the decoded working arrays from the stored codes."""
        self.norms[:, 0] = self.quant.half_u_sq.decode(self.half_q)
        self.norms[:, 1] = self.quant.enorm.decode(self.enorm_q)
        self.enorm_min = float(self.norms[:, 1].min()) if self.n_edges else math.inf
        if self.mode != RoutingMode.SIMHASH:
            if self.compact:
                self.weights[:, 0] = 1.0
                self.weights[:, 1] = 0.0
            else:
                self.weights[:, 0] = self.w_reg_q / 255.0
                self.weights[:, 1] = math.sqrt(self.L) * (self.w_res_q / 255.0)

    def block(self, slots: np.ndarray) -> EdgeMetaBlock:
        hn = self.norms.take(slots, axis=0)
        if self.offsets is None:
            return EdgeMetaBlock(slots, hn[:, 0], hn[:, 1], self.enorm_min)
        return EdgeMetaBlock(slots, hn[:, 0], hn[:, 1], self.enorm_min,
                             self.offsets, self.weights, self.var_idx)

    def meta_at(self, slot: int) -> EdgeMeta:
        if self.mode == RoutingMode.SIMHASH:
            raise UsageError("SimHash attachments store sketches, not extreme ids")
        ids = tuple(int(x) for x in self.offsets[slot] - table_offset_base(self.L, self.m))
        return EdgeMeta(
            ext_ids=ids[1:] if self.compact else ids,
            w_reg_q=255 if self.compact else int(self.w_reg_q[slot]),
            w_res_q=0 if self.compact else int(self.w_res_q[slot]),
            var_idx=int(self.var_idx[slot]),
            half_u_sq_q=int(self.half_q[slot]),
            enorm_q=int(self.enorm_q[slot]),
            quant=self.quant,
            compact=self.compact,
        )

    # -- wire format -------------------------------------------------------

    def wire_bytes(self) -> bytes:
        """Per-edge records in adjacency order, little-endian."""
        E = self.n_edges
        if self.mode == RoutingMode.SIMHASH:
            nb = self.simhash_bits // 8
            out = np.empty((E, nb + 4), dtype=np.uint8)
            out[:, :nb] = self.sketches
            _put_u16(out, nb, self.half_q)
            _put_u16(out, nb + 2, self.enorm_q)
            return out.tobytes()
        idb = _encode_id_bytes(self.ids)
        if self.compact:
            out = np.empty((E, self.L + 2), dtype=np.uint8)
            out[:, : self.L] = idb[:, 1:]
            out[:, self.L] = self.half_q
            out[:, self.L + 1] = self.enorm_q
            return out.tobytes()
        out = np.empty((E, self.L + 1 + 3 + 4), dtype=np.uint8)
        out[:, : self.L + 1] = idb
        out[:, self.L + 1] = self.w_reg_q
        out[:, self.L + 2] = self.w_res_q
        out[:, self.L + 3] = self.var_idx
        _put_u16(out, self.L + 4, self.half_q)
        _put_u16(out, self.L + 6, self.enorm_q)
        return out.tobytes()

    @classmethod
    def from_wire(cls, raw: bytes, mode: RoutingMode, L: int, m: int, compact: bool,
                  simhash_bits: int, quant: EdgeQuantizers, n_edges: int) -> "EdgeMetaStore":
        store = cls(mode, L, m, compact, simhash_bits, quant, n_edges)
        if mode == RoutingMode.SIMHASH:
            nb = simhash_bits // 8
            mat = _wire_matrix(raw, n_edges, nb + 4)
            store.sketches = mat[:, :nb].copy()
            store.half_q = _get_u16(mat, nb)
            store.enorm_q = _get_u16(mat, nb + 2)
        elif compact:
            mat = _wire_matrix(raw, n_edges, L + 2)
            ids = np.zeros((n_edges, L + 1), dtype=np.int16)
            ids[:, 1:] = _decode_id_bytes(mat[:, :L])
            store.set_ids(slice(None), _checked_ids(ids, m))
            store.half_q = mat[:, L].copy()
            store.enorm_q = mat[:, L + 1].copy()
        else:
            mat = _wire_matrix(raw, n_edges, L + 1 + 3 + 4)
            store.set_ids(slice(None), _checked_ids(_decode_id_bytes(mat[:, : L + 1]), m))
            store.w_reg_q = mat[:, L + 1].copy()
            store.w_res_q = mat[:, L + 2].copy()
            store.var_idx = mat[:, L + 3].copy()
            store.half_q = _get_u16(mat, L + 4)
            store.enorm_q = _get_u16(mat, L + 6)
        store.finalize()
        return store


def _checked_ids(ids: np.ndarray, m: int) -> np.ndarray:
    if ids.size and int(np.abs(ids).max()) > m:
        raise FormatError(f"edge metadata holds an extreme id beyond m={m}")
    return ids


def _wire_matrix(raw: bytes, n_edges: int, rec: int) -> np.ndarray:
    if len(raw) != n_edges * rec:
        raise FormatError(f"edge metadata section has {len(raw)} bytes, expected {n_edges * rec}")
    return np.frombuffer(raw, dtype=np.uint8).reshape(n_edges, rec)


def _put_u16(mat: np.ndarray, col: int, values: np.ndarray) -> None:
    v = values.astype(np.uint32)
    mat[:, col] = v & 0xFF
    mat[:, col + 1] = v >> 8


def _get_u16(mat: np.ndarray, col: int) -> np.ndarray:
    return (mat[:, col].astype(np.uint16) | (mat[:, col + 1].astype(np.uint16) << 8)).copy()


def _encode_id_bytes(ids: np.ndarray) -> np.ndarray:
    return np.where(ids > 0, ids, np.where(ids < 0, 128 - ids, 0)).astype(np.uint8)


def _decode_id_bytes(b: np.ndarray) -> np.ndarray:
    bi = b.astype(np.int16)
    return np.where(bi == 0, 0, np.where(bi <= 128, bi, 128 - bi)).astype(np.int16)


@dataclass
class RoutingAttachment:
    mode: RoutingMode
    cfg: RoutingConfig
    seed: int
    plan: PermutationPlan
    store: EdgeMetaStore
    ens: ProjectionEnsemble | None = None
    hashes: np.ndarray | None = None


class SearchScratch:
    """Reusable epoch-stamped visited array; one per sequential caller."""

    def __init__(self, n: int):
        self.visited = np.zeros(n, dtype=np.int64)
        self.epoch = 0

    def next_epoch(self) -> int:
        self.epoch += 1
        return self.epoch


class HnswIndex:
    """Frozen multi-layer graph over a Dataset, optionally with routing metadata."""

    def __init__(self, dataset: Dataset, metric: Metric, M: int, efc: int, seed: int,
                 node_levels: np.ndarray, entry: int, max_level: int,
                 base_indptr: np.ndarray, base_indices: np.ndarray,
                 upper: dict[int, dict[int, np.ndarray]]):
        self.dataset = dataset
        self.metric = metric
        self.M = M
        self.efc = efc
        self.seed = seed
        self.node_levels = node_levels
        self.entry = entry
        self.max_level = max_level
        self.base_indptr = base_indptr
        self.base_indices = base_indices
        self.upper = upper
        self.routing: RoutingAttachment | None = None
        self._bind_vectors()
        self._qtables: dict[float, QuantileTable] = {}

    def _bind_vectors(self) -> None:
        self._vf = self.dataset.vectors.astype(np.float64)
        self._sqn = np.einsum("ij,ij->i", self._vf, self._vf)
        self._norms = np.sqrt(self._sqn)

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

    def make_scratch(self) -> SearchScratch:
        return SearchScratch(self.n)

    def _keys(self, q64: np.ndarray, qsq: float, qnorm: float, ids: np.ndarray) -> np.ndarray:
        """Ordering keys (squared L2, 1-cos, or -dot): monotone in true distance."""
        X = self._vf[ids]
        dots = X @ q64
        if self.metric == Metric.L2:
            return qsq + self._sqn[ids] - 2.0 * dots
        if self.metric == Metric.ANGULAR:
            return 1.0 - dots / (self._norms[ids] * qnorm)
        return -dots

    def key_to_distance(self, key: float) -> float:
        if self.metric == Metric.L2:
            return math.sqrt(max(key, 0.0))
        return key


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def build_hnsw(ds: Dataset, M: int, efc: int, metric: Metric, seed: int) -> HnswIndex:
    """Standard HNSW construction: geometric levels, beam insertion, diversity pruning."""
    if M < 2 or efc < 1:
        raise UsageError("need M >= 2 and efc >= 1")
    n, d = ds.n, ds.dim
    vf = ds.vectors.astype(np.float64)
    sqn = np.einsum("ij,ij->i", vf, vf)
    norms = np.sqrt(sqn)
    if metric == Metric.ANGULAR and np.any(norms == 0.0):
        raise DegenerateInputError("angular metric needs nonzero data vectors")

    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(3,))))
    mult = 1.0 / math.log(M)
    levels = np.floor(-np.log(np.clip(1.0 - gen.random(n), 1e-300, None)) * mult).astype(np.int32)

    m_max0 = 2 * M
    base_adj = np.full((n, m_max0), -1, dtype=np.int32)
    base_deg = np.zeros(n, dtype=np.int32)
    upper: dict[int, dict[int, list[int]]] = {}

    def _keys_to(q: np.ndarray, qsq: float, qn: float, ids) -> np.ndarray:
        X = vf[ids]
        dots = X @ q
        if metric == Metric.L2:
            return qsq + sqn[ids] - 2.0 * dots
        if metric == Metric.ANGULAR:
            return 1.0 - dots / (norms[ids] * qn)
        return -dots

    def _neigh(v: int, lev: int):
        if lev == 0:
            return base_adj[v, : base_deg[v]]
        return upper[lev].get(v, _EMPTY_I32)

    visited = np.zeros(n, dtype=np.int64)
    epoch = 0

    def _search_layer(q, qsq, qn, entry_points, ef, lev):
        nonlocal epoch
        epoch += 1
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
        G = X @ X.T
        if metric == Metric.L2:
            sq = sqn[ids]
            return sq[:, None] + sq[None, :] - 2.0 * G
        if metric == Metric.ANGULAR:
            no = norms[ids]
            return 1.0 - G / (no[:, None] * no[None, :])
        return -G

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
        ep = entry
        epk = float(_keys_to(q, qsq_i, qn_i, np.array([ep]))[0])
        for lev in range(max_level, lvl, -1):
            changed = True
            while changed:
                changed = False
                row = _neigh(ep, lev)
                if len(row) == 0:
                    break
                row = np.asarray(row, dtype=np.int64)
                keys = _keys_to(q, qsq_i, qn_i, row)
                j = int(np.argmin(keys))
                if keys[j] < epk:
                    epk, ep = float(keys[j]), int(row[j])
                    changed = True
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
        dataset=ds, metric=metric, M=M, efc=efc, seed=seed,
        node_levels=levels, entry=entry, max_level=max_level,
        base_indptr=indptr, base_indices=indices, upper=frozen_upper,
    )


_EMPTY_I32 = np.empty(0, dtype=np.int32)


# ---------------------------------------------------------------------------
# Routing attachment
# ---------------------------------------------------------------------------


def edge_residual_avgs(idx: HnswIndex) -> np.ndarray:
    """Mean squared coordinate of u - v over all directed base edges."""
    n, d = idx.n, idx.dim
    acc = np.zeros(d)
    src = np.repeat(np.arange(n), np.diff(idx.base_indptr))
    dst = idx.base_indices
    for lo in range(0, dst.shape[0], _ATTACH_CHUNK):
        hi = min(lo + _ATTACH_CHUNK, dst.shape[0])
        e = idx._vf[dst[lo:hi]] - idx._vf[src[lo:hi]]
        acc += np.einsum("ij,ij->j", e, e)
    if dst.shape[0] == 0:
        raise UsageError("graph has no base-layer edges")
    return acc / dst.shape[0]


def attach_routing(idx: HnswIndex, ens: ProjectionEnsemble | None,
                   plan: PermutationPlan, cfg: RoutingConfig) -> HnswIndex:
    """Build per-edge metadata for the configured gate; returns a new index view."""
    if cfg.mode == RoutingMode.NONE:
        out = copy.copy(idx)
        out.routing = None
        out._qtables = {}
        return out
    if plan.dim != idx.dim or plan.L != cfg.L:
        raise UsageError("permutation plan does not match index/config")
    n_edges = idx.n_base_edges
    src = np.repeat(np.arange(idx.n), np.diff(idx.base_indptr))
    dst = idx.base_indices
    half_vals = 0.5 * idx._sqn[dst]
    bits = 8 if cfg.compact else 16

    enorm_vals = np.empty(n_edges)
    for lo in range(0, n_edges, _ATTACH_CHUNK):
        hi = min(lo + _ATTACH_CHUNK, n_edges)
        e = idx._vf[dst[lo:hi]] - idx._vf[src[lo:hi]]
        enorm_vals[lo:hi] = np.linalg.norm(e, axis=1)
    quant = EdgeQuantizers(
        half_u_sq=ScalarQuantizer.fit(half_vals, bits),
        enorm=ScalarQuantizer.fit(enorm_vals, bits),
    )

    if cfg.mode == RoutingMode.SIMHASH:
        seed = idx.seed
        hashes = generate_simhash_hashes(seed, idx.dim, cfg.simhash_bits)
        store = EdgeMetaStore(cfg.mode, cfg.L, cfg.m, False, cfg.simhash_bits, quant, n_edges)
        hperm = hashes[:, plan.perm]  # hash the permuted residuals
        for lo in range(0, n_edges, _ATTACH_CHUNK):
            hi = min(lo + _ATTACH_CHUNK, n_edges)
            e = idx._vf[dst[lo:hi]] - idx._vf[src[lo:hi]]
            ep = e[:, plan.perm]
            store.sketches[lo:hi] = np.packbits((ep @ hperm.T) >= 0.0, axis=1)
        att_ens = None
    else:
        if ens is None:
            raise UsageError("projection routing needs an ensemble")
        if ens.d != idx.dim or ens.L != cfg.L or ens.m != cfg.m:
            raise UsageError("ensemble does not match index/config")
        seed = ens.seed
        store = EdgeMetaStore(cfg.mode, cfg.L, cfg.m, cfg.compact, cfg.simhash_bits, quant, n_edges)
        for lo in range(0, n_edges, _ATTACH_CHUNK):
            hi = min(lo + _ATTACH_CHUNK, n_edges)
            e = idx._vf[dst[lo:hi]] - idx._vf[src[lo:hi]]
            _fill_meta_chunk(store, lo, e[:, plan.perm], ens, cfg.compact)
        att_ens = ens

    store.half_q[:] = quant.half_u_sq.encode(half_vals, "down").astype(store.half_q.dtype)
    store.enorm_q[:] = quant.enorm.encode(enorm_vals, "up").astype(store.enorm_q.dtype)
    store.finalize()

    out = copy.copy(idx)
    out.routing = RoutingAttachment(
        mode=cfg.mode, cfg=cfg, seed=seed, plan=plan, store=store, ens=att_ens,
        hashes=hashes if cfg.mode == RoutingMode.SIMHASH else None,
    )
    out._qtables = {}
    return out


def _fill_meta_chunk(store: EdgeMetaStore, lo: int, ep: np.ndarray,
                     ens: ProjectionEnsemble, compact: bool) -> None:
    """Vectorized extreme ids and weights for a chunk of permuted residuals."""
    B, d = ep.shape
    L, dp = ens.L, ens.sub_dim
    blocks = ep.reshape(B, L, dp)
    bn = np.linalg.norm(blocks, axis=2)
    enorm = np.linalg.norm(ep, axis=1)
    nz = bn > 0.0
    nnz = nz.sum(axis=1)
    live = enorm > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        w_reg = np.where(live, bn.sum(axis=1) / (np.sqrt(nnz) * enorm), 1.0)
    w_reg = np.minimum(np.nan_to_num(w_reg, nan=1.0), 1.0)
    w_res = np.sqrt(np.clip(1.0 - w_reg**2, 0.0, 1.0))

    ids = np.zeros((B, L + 1), dtype=np.int16)
    for i in range(L):
        prods = blocks[:, i, :] @ ens.sub[i].T
        ids[:, i + 1] = _signed_argmax_rows(prods)
        ids[~nz[:, i], i + 1] = 0  # zero block -> null id
    if not compact:
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(nz, 1.0 - (enorm * w_reg)[:, None] / (np.sqrt(nnz)[:, None] * bn), 0.0)
        res = (blocks * np.nan_to_num(scale)[:, :, None]).reshape(B, d)
        rp = res @ ens.full.T
        ids[:, 0] = _signed_argmax_rows(rp)
        ids[w_res < _RES_EPS, 0] = 0
    ids[~live] = 0

    sl = slice(lo, lo + B)
    store.set_ids(sl, ids)
    if not compact:
        store.w_reg_q[sl] = np.round(np.where(live, w_reg, 1.0) * 255).astype(np.uint8)
        store.w_res_q[sl] = np.round(np.where(live, w_res, 0.0) * 255).astype(np.uint8)
        store.var_idx[sl] = var_row_indices(np.where(live, w_reg, 1.0),
                                            np.where(live, w_res, 0.0), L).astype(np.uint8)
    else:
        store.var_idx[sl] = var_row_indices(1.0, 0.0, L)


def _signed_argmax_rows(prods: np.ndarray) -> np.ndarray:
    j = np.argmax(np.abs(prods), axis=1)
    signs = np.where(prods[np.arange(prods.shape[0]), j] >= 0.0, 1, -1)
    out = (signs * (j + 1)).astype(np.int16)
    out[out == -128] = 0  # the one signed id that does not fit a byte
    return out


def attach(idx: HnswIndex, cfg: RoutingConfig, permute: bool = False,
           seed: int | None = None) -> HnswIndex:
    """Convenience wrapper: derive plan and ensemble, then attach."""
    if cfg.mode == RoutingMode.NONE:
        return attach_routing(idx, None, PermutationPlan.identity(idx.dim, 1), cfg)
    seed = idx.seed if seed is None else seed
    plan = (
        build_permutation(edge_residual_avgs(idx), cfg.L)
        if permute
        else PermutationPlan.identity(idx.dim, cfg.L)
    )
    ens = None
    if cfg.mode in (RoutingMode.PEOS, RoutingMode.RCEOS):
        ens = generate_ensemble(seed, idx.dim, cfg.L, cfg.m)
    return attach_routing(idx, ens, plan, cfg)


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


class _ResultList:
    """Bounded worst-first list; boundary ties keep the lower id."""

    __slots__ = ("cap", "heap")

    def __init__(self, cap: int):
        self.cap = cap
        self.heap: list[tuple[float, int]] = []

    def __len__(self) -> int:
        return len(self.heap)

    @property
    def full(self) -> bool:
        return len(self.heap) == self.cap

    @property
    def worst_key(self) -> float:
        return -self.heap[0][0]

    @property
    def worst_id(self) -> int:
        return -self.heap[0][1]

    def try_add(self, key: float, i: int) -> bool:
        if len(self.heap) < self.cap:
            heapq.heappush(self.heap, (-key, -i))
            return True
        wk = self.worst_key
        if key < wk or (key == wk and i < self.worst_id):
            heapq.heapreplace(self.heap, (-key, -i))
            return True
        return False

    def sorted_items(self) -> list[tuple[float, int]]:
        return sorted((-nk, -ni) for nk, ni in self.heap)


class AuditTrace:
    """Shadow record of gated evaluations: decision, exact key, and the gate's key threshold."""

    def __init__(self):
        self.passed: list[np.ndarray] = []
        self.keys: list[np.ndarray] = []
        self.thresholds: list[float] = []
        self.sizes: list[int] = []

    def record(self, keys: np.ndarray, threshold_key: float, passes: np.ndarray) -> None:
        self.keys.append(keys)
        self.passed.append(passes)
        self.thresholds.append(threshold_key)
        self.sizes.append(len(keys))

    @property
    def n_evaluations(self) -> int:
        return int(sum(self.sizes))

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
    """Routing-gated best-first search; returns top-K ids ascending by distance."""
    q64 = np.asarray(q, dtype=np.float64)
    if q64.shape != (idx.dim,):
        raise UsageError(f"query dim {q64.shape} does not match index dim {idx.dim}")
    if params.K > idx.n:
        raise UsageError(f"K={params.K} exceeds dataset size {idx.n}")
    mode = params.routing.mode
    qsq = float(q64 @ q64)
    qnorm = math.sqrt(qsq)
    if qnorm == 0.0 and (mode != RoutingMode.NONE or idx.metric == Metric.ANGULAR):
        raise DegenerateInputError("zero query")

    att = idx.routing
    qpt = tbl = qsketch = None
    if mode in (RoutingMode.PEOS, RoutingMode.RCEOS):
        if att is None or att.mode not in (RoutingMode.PEOS, RoutingMode.RCEOS):
            raise UsageError(f"index has no {mode.value} routing attached")
        if mode == RoutingMode.RCEOS and att.cfg.L != 1:
            raise UsageError("rceos queries need an L=1 attachment")
        qpt = project_query(q64[att.plan.perm], att.ens)
        tbl = idx.quantile_table(params.routing.eps)
    elif mode == RoutingMode.SIMHASH:
        if att is None or att.mode != RoutingMode.SIMHASH:
            raise UsageError("index has no simhash routing attached")
        qsketch = simhash_sketch(q64[att.plan.perm], att.hashes)

    stats = SearchStats()
    n = idx.n
    if scratch is None:
        scratch = SearchScratch(n)
    epoch = scratch.next_epoch()
    visited = scratch.visited

    ep = idx.entry
    cur = float(idx._keys(q64, qsq, qnorm, np.array([ep]))[0])
    stats.dist_computations += 1
    stats.ungated += 1
    for lev in range(idx.max_level, 0, -1):
        changed = True
        while changed:
            changed = False
            row = idx.upper.get(lev, {}).get(ep)
            if row is None or row.size == 0:
                break
            keys = idx._keys(q64, qsq, qnorm, row)
            stats.dist_computations += row.size
            stats.ungated += row.size
            j = int(np.argmin(keys))
            if keys[j] < cur:
                cur, ep = float(keys[j]), int(row[j])
                changed = True

    R = _ResultList(params.efs)
    R.try_add(cur, ep)
    cand: list[tuple[float, int]] = [(cur, ep)]
    visited[ep] = epoch
    indptr, indices = idx.base_indptr, idx.base_indices
    eps_cfg = params.routing.eps

    while cand:
        k, v = heapq.heappop(cand)
        if R.full and k > R.worst_key:
            break
        stats.hops += 1
        beg, end = indptr[v], indptr[v + 1]
        row = indices[beg:end]
        mask = visited[row] != epoch
        fresh = row[mask]
        if fresh.size == 0:
            continue
        visited[fresh] = epoch
        B = int(fresh.size)

        if not R.full:
            keys = idx._keys(q64, qsq, qnorm, fresh)
            stats.dist_computations += B
            stats.ungated += B
            passers, pkeys = fresh, keys
        else:
            wk = R.worst_key
            if mode == RoutingMode.NONE:
                stats.tests_evaluated += B
                stats.tests_passed += B
                keys = idx._keys(q64, qsq, qnorm, fresh)
                stats.dist_computations += B
                if audit is not None:
                    audit.record(keys, wk, np.ones(B, dtype=bool))
                passers, pkeys = fresh, keys
            else:
                vq = float(idx._vf[v] @ q64)
                stats.vq_computations += 1
                ts = _threshold_state(idx, wk, qsq, qnorm, vq, R.worst_id)
                slots = beg + np.nonzero(mask)[0]
                if mode == RoutingMode.SIMHASH:
                    ar = batch_ar(att.store.block(slots), ts, qnorm, idx.metric)
                    passes = batch_simhash_test(att.store.sketches[slots], qsketch, ar, eps_cfg)
                else:
                    passes = batch_peos_test(att.store.block(slots), tbl, qpt, ts, idx.metric)
                stats.tests_evaluated += B
                stats.tests_passed += int(passes.sum())
                if audit is not None:
                    all_keys = idx._keys(q64, qsq, qnorm, fresh)
                    audit.record(all_keys, wk, passes)
                    passers = fresh[passes]
                    pkeys = all_keys[passes]
                else:
                    passers = fresh[passes]
                    pkeys = idx._keys(q64, qsq, qnorm, passers) if passers.size else np.empty(0)
                stats.dist_computations += int(passers.size)
        for k2, u in zip(pkeys.tolist(), passers.tolist()):
            if R.try_add(k2, u):
                heapq.heappush(cand, (k2, u))

    items = R.sorted_items()[: params.K]
    return np.asarray([i for _, i in items], dtype=np.int64), stats


def _threshold_state(idx: HnswIndex, worst_key: float, qsq: float, qnorm: float,
                     vq: float, worst_id: int) -> ThresholdState:
    if idx.metric == Metric.L2:
        return ThresholdState(r=(worst_key - qsq) / 2.0, delta=math.sqrt(max(worst_key, 0.0)), vq=vq)
    if idx.metric == Metric.ANGULAR:
        p_dot_q = (1.0 - worst_key) * idx._norms[worst_id] * qnorm
        return ThresholdState(r=-p_dot_q, delta=worst_key, vq=vq)
    return ThresholdState(r=worst_key, delta=worst_key, vq=vq)


# ---------------------------------------------------------------------------
# Brute force oracle
# ---------------------------------------------------------------------------


def brute_force_knn(ds: Dataset, q: np.ndarray, K: int, metric: Metric) -> np.ndarray:
    """Exact top-K by full scan; ties broken by lower id."""
    if K > ds.n or K < 1:
        raise UsageError(f"K={K} out of range for n={ds.n}")
    q64 = np.asarray(q, dtype=np.float64)
    vf = ds.vectors.astype(np.float64)
    dots = vf @ q64
    if metric == Metric.L2:
        keys = np.einsum("ij,ij->i", vf, vf) - 2.0 * dots
    elif metric == Metric.ANGULAR:
        qn = np.linalg.norm(q64)
        if qn == 0.0:
            raise DegenerateInputError("zero query")
        keys = 1.0 - dots / (np.linalg.norm(vf, axis=1) * qn)
    else:
        keys = -dots
    return np.argsort(keys, kind="stable")[:K].astype(np.int64)


def brute_force_all(ds: Dataset, queries: np.ndarray, K: int, metric: Metric) -> np.ndarray:
    """Ground truth for a query batch: one row of K ascending-distance ids per query."""
    return np.stack([brute_force_knn(ds, q, K, metric) for q in np.asarray(queries)])


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

_METRIC_CODE = {Metric.L2: 0, Metric.ANGULAR: 1, Metric.IP: 2}
_METRIC_FROM = {v: k for k, v in _METRIC_CODE.items()}
_MODE_CODE = {RoutingMode.NONE: 0, RoutingMode.PEOS: 1, RoutingMode.RCEOS: 2, RoutingMode.SIMHASH: 3}
_MODE_FROM = {v: k for k, v in _MODE_CODE.items()}


def dataset_fingerprint(ds: Dataset) -> int:
    return int.from_bytes(hashlib.blake2b(ds.vectors.tobytes(), digest_size=8).digest(), "little")


def save_index(idx: HnswIndex, path) -> None:
    """Serialize graph, header, and edge metadata; vectors stay with the dataset."""
    parts: list[bytes] = [INDEX_MAGIC, struct.pack("<I", INDEX_VERSION)]
    att = idx.routing
    parts.append(struct.pack(
        "<BIQIIQQIQ",
        _METRIC_CODE[idx.metric], idx.dim, idx.n, idx.M, idx.efc,
        idx.seed, idx.entry, idx.max_level, dataset_fingerprint(idx.dataset),
    ))
    parts.append(struct.pack("<B", _MODE_CODE[att.mode if att else RoutingMode.NONE]))
    if att is not None:
        cfg = att.cfg
        parts.append(struct.pack("<IIBIQ", cfg.L, cfg.m, int(cfg.compact), cfg.simhash_bits, att.seed))
        rng_id = (att.ens.rng_id if att.ens is not None else RNG_ID).encode()
        parts.append(struct.pack("<H", len(rng_id)) + rng_id)
        q = att.store.quant
        parts.append(struct.pack(
            "<ddBddB",
            q.half_u_sq.lo, q.half_u_sq.hi, q.half_u_sq.bits,
            q.enorm.lo, q.enorm.hi, q.enorm.bits,
        ))
        parts.append(att.plan.perm.astype("<u4").tobytes())
        parts.append(att.plan.subspace_of.astype("<u4").tobytes())

    degs = np.diff(idx.base_indptr).astype("<u4")
    parts.append(degs.tobytes())
    parts.append(_delta_encode(idx.base_indices, idx.base_indptr).tobytes())
    parts.append(struct.pack("<I", idx.max_level))
    for lev in range(1, idx.max_level + 1):
        nodes = sorted(idx.upper.get(lev, {}).items())
        parts.append(struct.pack("<Q", len(nodes)))
        for v, row in nodes:
            parts.append(struct.pack("<QI", v, len(row)))
            parts.append(_delta_encode_row(row).tobytes())
    if att is not None:
        wire = att.store.wire_bytes()
        parts.append(struct.pack("<Q", att.store.n_edges))
        parts.append(wire)
    payload = b"".join(parts)
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    with open(path, "wb") as f:
        f.write(payload + digest)


def _delta_encode(indices: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    flat = indices.astype(np.int64)
    if flat.size == 0:
        return flat.astype("<u4")
    delta = np.empty_like(flat)
    delta[0] = flat[0]
    delta[1:] = flat[1:] - flat[:-1]
    starts = indptr[:-1][np.diff(indptr) > 0]
    delta[starts] = flat[starts]
    return delta.astype("<u4")


def _delta_encode_row(row: np.ndarray) -> np.ndarray:
    out = np.asarray(row, dtype=np.int64).copy()
    if out.size > 1:
        out[1:] = out[1:] - out[:-1]
    return out.astype("<u4")


class _Reader:
    def __init__(self, raw: bytes):
        self.raw = raw
        self.pos = 0

    def take(self, fmt: str):
        try:
            vals = struct.unpack_from("<" + fmt, self.raw, self.pos)
        except struct.error as exc:
            raise FormatError("index file truncated") from exc
        self.pos += struct.calcsize("<" + fmt)
        return vals if len(vals) > 1 else vals[0]

    def bytes(self, count: int) -> bytes:
        out = self.raw[self.pos : self.pos + count]
        if len(out) != count:
            raise FormatError("index file truncated")
        self.pos += count
        return out

    def array(self, dtype: str, count: int) -> np.ndarray:
        return np.frombuffer(self.bytes(count * np.dtype(dtype).itemsize), dtype=dtype)


def load_index(path, dataset: Dataset | None = None) -> HnswIndex:
    """Reload an index; projections regenerate from the stored seed.

    When a dataset is supplied its content hash must match the one
    recorded at save time.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 16 or raw[:4] != INDEX_MAGIC:
        raise FormatError("not an index file (bad magic)")
    payload, digest = raw[:-8], raw[-8:]
    if hashlib.blake2b(payload, digest_size=8).digest() != digest:
        raise CorruptionError("index checksum mismatch")
    r = _Reader(payload)
    r.bytes(4)
    version = r.take("I")
    if version != INDEX_VERSION:
        raise FormatError(f"unsupported index version {version}")
    metric_c, d, n, M, efc, seed, entry, max_level, ds_hash = r.take("BIQIIQQIQ")
    metric = _METRIC_FROM.get(metric_c)
    if metric is None:
        raise FormatError(f"unknown metric code {metric_c}")
    if entry >= n:
        raise FormatError(f"entry point {entry} is not a node of a {n}-node graph")
    mode = _MODE_FROM.get(r.take("B"))
    att_fields = None
    if mode is None:
        raise FormatError("unknown routing mode")
    if mode != RoutingMode.NONE:
        L, m, compact, shbits, rt_seed = r.take("IIBIQ")
        try:
            cfg = RoutingConfig(mode=mode, L=L, m=m, compact=bool(compact) and mode != RoutingMode.SIMHASH,
                                simhash_bits=shbits)
        except UsageError as exc:
            raise FormatError(f"bad routing header: {exc}") from exc
        if L < 1 or d % L:
            raise FormatError(f"bad routing header: L={L} does not divide d={d}")
        rng_len = r.take("H")
        stored_rng_id = r.bytes(rng_len).decode(errors="replace")
        if stored_rng_id != RNG_ID:
            # regenerated projections would not match the stored extreme ids
            raise FormatError(
                f"index built with RNG stream {stored_rng_id!r}, this build uses {RNG_ID!r}"
            )
        hlo, hhi, hbits, elo, ehi, ebits = r.take("ddBddB")
        perm = r.array("<u4", d).astype(np.int64)
        sub_of = r.array("<u4", d).astype(np.int64)
        try:
            plan = PermutationPlan(perm, sub_of, L)
        except UsageError as exc:
            raise FormatError(f"bad permutation: {exc}") from exc
        att_fields = (cfg, rt_seed, plan,
                      EdgeQuantizers(ScalarQuantizer(hlo, hhi, hbits), ScalarQuantizer(elo, ehi, ebits)))

    degs = r.array("<u4", n).astype(np.int64)
    if degs.size and degs.max() > 2 * M:
        raise FormatError(f"a base-layer degree exceeds 2M={2 * M}")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degs, out=indptr[1:])
    deltas = r.array("<u4", int(indptr[-1])).astype(np.int64)
    indices = _delta_decode(deltas, indptr, degs)
    if indices.size and indices.max() >= n:
        raise FormatError("a base-layer neighbor id is out of range")
    stored_levels = np.zeros(n, dtype=np.int32)
    file_max_level = r.take("I")
    upper: dict[int, dict[int, np.ndarray]] = {}
    for lev in range(1, file_max_level + 1):
        count = r.take("Q")
        nodes = {}
        for _ in range(count):
            v, deg = r.take("QI")
            row = np.cumsum(r.array("<u4", deg).astype(np.int64)) if deg else np.empty(0, dtype=np.int64)
            if v >= n or (deg and row[-1] >= n):
                raise FormatError(f"an upper-layer id at level {lev} is out of range")
            nodes[int(v)] = row.astype(np.int32)
            stored_levels[int(v)] = lev
        upper[lev] = nodes

    if dataset is None:
        raise UsageError("load_index needs the dataset the index was built on")
    if dataset.n != n or dataset.dim != d:
        raise FormatError("dataset shape does not match index header")
    if dataset_fingerprint(dataset) != ds_hash:
        raise FormatError("dataset content does not match index fingerprint")

    idx = HnswIndex(
        dataset=dataset, metric=metric, M=M, efc=efc, seed=seed,
        node_levels=stored_levels, entry=int(entry), max_level=int(max_level),
        base_indptr=indptr, base_indices=indices.astype(np.int32), upper=upper,
    )
    if mode != RoutingMode.NONE:
        cfg, rt_seed, plan, quant = att_fields
        L, m, compact, shbits = cfg.L, cfg.m, cfg.compact, cfg.simhash_bits
        n_edges = r.take("Q")
        if n_edges != int(indptr[-1]):
            raise FormatError("edge metadata count does not match adjacency")
        rec = _wire_record_size(mode, L, compact, shbits)
        store = EdgeMetaStore.from_wire(r.bytes(n_edges * rec), mode, L, m, compact, shbits, quant, n_edges)
        ens = None
        hashes = None
        if mode == RoutingMode.SIMHASH:
            hashes = generate_simhash_hashes(rt_seed, d, shbits)
        else:
            ens = generate_ensemble(rt_seed, d, L, m)
        idx.routing = RoutingAttachment(mode=mode, cfg=cfg, seed=rt_seed, plan=plan,
                                        store=store, ens=ens, hashes=hashes)
    return idx


def _wire_record_size(mode: RoutingMode, L: int, compact: bool, simhash_bits: int) -> int:
    if mode == RoutingMode.SIMHASH:
        return simhash_bits // 8 + 4
    return (L + 2) if compact else (L + 1 + 3 + 4)


def _delta_decode(deltas: np.ndarray, indptr: np.ndarray, degs: np.ndarray) -> np.ndarray:
    if deltas.size == 0:
        return deltas
    g = np.cumsum(deltas)
    row_of = np.repeat(np.arange(degs.shape[0]), degs)
    starts = indptr[:-1][row_of]
    base = np.where(starts > 0, g[np.maximum(starts - 1, 0)], 0)
    return g - base
