"""Per-edge routing metadata: the edge store, its wire records, the attachment, and attach.

Records are slot-aligned with the CSR adjacency, so search gathers a
popped node's whole edge block at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, UsageError
from .hnsw import HnswIndex
from .projections import ID_BYTES, ProjectionEnsemble, check_id_bytes, encode_id_bytes, generate_ensemble
from .routing import (
    EdgeMetaBlock,
    RoutingConfig,
    RoutingMode,
    ScalarQuantizer,
    generate_simhash_hashes,
    sketch_words,
    var_row_indices,
    _RES_EPS,
)
from .vecstore import Metric, PermutationPlan, build_permutation

_ATTACH_CHUNK = 1 << 10  # edges per attach chunk: its residuals and products stay in cache
_RESIDUAL_AVG_CHUNK = 1 << 16


class EdgeMetaStore:
    """Routing records for every directed base-layer edge, kept in their stored form.

    cfg, the attachment's RoutingConfig, fixes the record layout. The
    per-edge arrays hold the file's record fields (see wire_records):

    * peos: rec, (E, L+4) uint8, the L+1 extreme-id bytes in their
      wire encoding (column 0 the residual id), then the w_reg, w_res and
      var_idx codes; in compact mode (E, L) with the L subspace id bytes
      only, the weights pinned to (1, 0) and var_idx the one row of every
      edge;
    * SimHash: sketches, (E, simhash_bits/8) packed sign bits, and words,
      the same buffer viewed as the unsigned words the gate compares
      (see sketch_words);
    * every mode: enorm_q, (E,), the edge-norm codes (uint16, uint8 in
      compact mode).

    The store holds no per-node array. The gate reads each target's row
    term from row, the index's own (HnswIndex._sqn itself on L2, _norms on
    angular; None on IP, whose A_r does not read it). dst is the
    adjacency's target array, HnswIndex.base_indices itself, so an edge's
    row term is row[dst[slot]].

    finalize() keeps row, the edge-norm quantizer as quant, and the small
    decode tables: enorm_tab with the edge norm of every code, and for full
    records w_tab with w_reg and sqrt(L)*w_res of every weight code.
    ScalarQuantizer.decode is elementwise, so a table lookup gives the same
    float64 as decoding the code. rec_base, added to a gathered row, points
    each code at its table entry (see EdgeMetaBlock).
    """

    def __init__(self, cfg: RoutingConfig, lead: np.ndarray, enorm_q: np.ndarray, dst: np.ndarray):
        self.cfg = cfg
        self.quant = None
        self.n_edges = enorm_q.shape[0]
        self.enorm_q = enorm_q
        self.dst = dst
        self.row = self.enorm_tab = self.w_tab = None
        self.enorm_min = 0.0
        self.rec = self.rec_base = self.var_idx = self.sketches = self.words = None
        if cfg.mode == RoutingMode.SIMHASH:
            self.sketches = lead
            self.words = sketch_words(lead)
        elif cfg.compact:
            self.rec = lead
            self.rec_base = np.arange(1, cfg.L + 1) * ID_BYTES
            self.var_idx = int(var_row_indices(1.0, 0.0, cfg.L))
        else:
            self.rec = lead
            # id bytes to their signed-table rows, w_res codes to the second half of w_tab
            self.rec_base = np.concatenate((np.arange(cfg.L + 1) * ID_BYTES, [0, 256, 0]))

    @classmethod
    def zeros(cls, cfg: RoutingConfig, dst: np.ndarray) -> "EdgeMetaStore":
        """A store of zero records, one per edge of the target array dst, for attach to fill."""
        lead = np.zeros((dst.shape[0], _lead_width(cfg)), dtype=np.uint8)
        return cls(cfg, lead, np.zeros(dst.shape[0], dtype=_norm_dtype(cfg.compact)), dst)

    @property
    def ids(self) -> np.ndarray:
        """Extreme-id bytes, (E, L+1) led by the residual id, or (E, L) in compact mode."""
        return self.rec if self.cfg.compact else self.rec[:, : self.cfg.L + 1]

    def finalize(self, row: np.ndarray | None, enorm: ScalarQuantizer) -> None:
        """Keep row, the index's row terms (None on IP), and the edge-norm quantizer enorm,
        and build the decode tables."""
        self.quant = enorm
        self.row = row
        self.enorm_tab = enorm.decode(np.arange(1 << (8 * self.enorm_q.itemsize)))
        # decode is monotone in the code, so the smallest code holds the smallest norm
        self.enorm_min = float(self.enorm_tab[self.enorm_q.min()]) if self.n_edges else math.inf
        if self.rec is not None and not self.cfg.compact:
            w = np.arange(256) / 255.0
            self.w_tab = np.concatenate((w, math.sqrt(self.cfg.L) * w))

    def block(self, slots: np.ndarray, targets: np.ndarray) -> EdgeMetaBlock:
        """The edges at slots, whose targets (dst at those slots) the caller already holds."""
        codes = self.enorm_q.take(slots).astype(np.intp)  # numpy casts narrower ids on every gather
        row = None if self.row is None else self.row.take(targets)
        return EdgeMetaBlock(slots, row, self.enorm_tab.take(codes), self.enorm_min,
                             self.rec, self.rec_base, self.w_tab, self.var_idx)

    # -- wire format -------------------------------------------------------

    def _lead(self) -> np.ndarray:
        return self.sketches if self.cfg.mode == RoutingMode.SIMHASH else self.rec

    def wire_records(self) -> np.ndarray:
        """Per-edge records in adjacency order, one row each: the lead fields, then the
        little-endian edge-norm code."""
        enorm = self.enorm_q.view(np.uint8).reshape(self.n_edges, self.enorm_q.itemsize)
        return np.concatenate((self._lead(), enorm), axis=1)

    @classmethod
    def from_wire(cls, raw: memoryview, idx: HnswIndex, cfg: RoutingConfig,
                  enorm: ScalarQuantizer) -> "EdgeMetaStore":
        """A store from the record section of a file over idx's adjacency.

        The lead fields and the edge-norm column are copied out of the
        section once; the gate reads idx's own row terms.
        """
        width = _lead_width(cfg)
        dtype = _norm_dtype(cfg.compact)
        E, rec = idx.n_base_edges, width + dtype.itemsize
        if len(raw) != E * rec:
            raise FormatError(f"edge metadata section has {len(raw)} bytes, expected {E * rec}")
        mat = np.frombuffer(raw, dtype=np.uint8).reshape(E, rec)
        store = cls(cfg, mat[:, :width].copy(), mat[:, width:].view(dtype)[:, 0].copy(), idx.base_indices)
        if cfg.mode != RoutingMode.SIMHASH:
            check_id_bytes(store.ids, cfg.m)
        store.finalize(_gate_row(idx), enorm)
        return store


def _gate_row(idx: HnswIndex) -> np.ndarray | None:
    """The row terms A_r reads: idx's own squared norms on L2 and norms on angular, none on IP."""
    return None if idx.metric == Metric.IP else idx._row


def _lead_width(cfg: RoutingConfig) -> int:
    """Bytes of a record before its edge-norm code: the sketch, or the id bytes and weight codes."""
    if cfg.mode == RoutingMode.SIMHASH:
        return cfg.simhash_bits // 8
    return cfg.L if cfg.compact else cfg.L + 4


def _norm_dtype(compact: bool) -> np.dtype:
    return np.dtype(f"<u{_norm_bits(compact) // 8}")


@dataclass
class RoutingAttachment:
    """A gate as attach fixed it. Its random vectors, ens for peos or hashes for SimHash,
    derive from (cfg, seed, plan.dim), as a file holds only the seed."""

    cfg: RoutingConfig
    seed: int
    plan: PermutationPlan
    store: EdgeMetaStore
    ens: ProjectionEnsemble | None = field(init=False, default=None)
    hashes: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self):
        if self.cfg.mode == RoutingMode.SIMHASH:
            self.hashes = generate_simhash_hashes(self.seed, self.plan.dim, self.cfg.simhash_bits)
        else:
            self.ens = generate_ensemble(self.seed, self.plan.dim, self.cfg.L, self.cfg.m)


def _norm_bits(compact: bool) -> int:
    """Code width of the edge-norm quantizer: one byte per norm in compact records, else two."""
    return 8 if compact else 16


def edge_residual_avgs(idx: HnswIndex) -> np.ndarray:
    """Mean squared coordinate of u - v over all directed base edges."""
    n, d = idx.n, idx.dim
    acc = np.zeros(d)
    src = np.repeat(np.arange(n), np.diff(idx.base_indptr))
    dst = idx.base_indices
    V = idx.dataset.vectors
    # the chunk fixes the order in which acc sums, and acc decides the permutation plan
    for lo in range(0, dst.shape[0], _RESIDUAL_AVG_CHUNK):
        hi = min(lo + _RESIDUAL_AVG_CHUNK, dst.shape[0])
        e = V[dst[lo:hi]].astype(np.float64)
        e -= V[src[lo:hi]]
        acc += np.einsum("ij,ij->j", e, e)
    if dst.shape[0] == 0:
        raise UsageError("graph has no base-layer edges")
    return acc / dst.shape[0]


def _attach_spans(n_edges: int):
    """Edge spans of _ATTACH_CHUNK rows; the last one ends at n_edges and may overlap the one before.

    Every span has the full row count unless the graph has fewer edges:
    OpenBLAS rounds a product row differently in a matmul of a few rows
    (a single row, or rows x columns <= 1200) than in a larger one, and
    the stored ids must not depend on where a chunk boundary falls.
    """
    for lo in range(0, n_edges, _ATTACH_CHUNK):
        lo = max(min(lo, n_edges - _ATTACH_CHUNK), 0)
        yield lo, min(lo + _ATTACH_CHUNK, n_edges)


def _reverse_pairs(n: int, src: np.ndarray, dst: np.ndarray):
    """The canonical edges, computed directly, and every other edge with the canonical edge it mirrors.

    An edge is canonical if it has src < dst, has no reverse edge, or is a
    self-loop. Every other edge v->u (v > u) mirrors the first slot of u->v,
    which is canonical. Returns the canonical slots, the mirror slots and,
    for each mirror, its source's position in the canonical slots; mirrors
    are ordered by that position, so each span of canonical edges owns one
    run of mirrors.
    """
    key = src * n + dst  # ascending: rows in order and each row sorted
    if np.any(key[1:] < key[:-1]):
        raise UsageError("base-layer neighbor lists must be sorted")
    want = dst * n + src
    order = np.argsort(want)  # sorted needles make the search several times faster
    rev = np.empty_like(want)
    rev[order] = np.minimum(np.searchsorted(key, want[order]), key.size - 1)
    mirror = (src > dst) & (key[rev] == want)
    canon, mirrors = np.flatnonzero(~mirror), np.flatnonzero(mirror)
    source = (np.cumsum(~mirror) - 1)[rev[mirrors]]
    order = np.argsort(source, kind="stable")
    return canon, mirrors[order], source[order]


def attach(idx: HnswIndex, cfg: RoutingConfig, permute: bool = False,
           seed: int | None = None) -> HnswIndex:
    """Build per-edge metadata for the configured gate; returns a new index view.

    seed (idx.seed by default) derives the projections or hyperplanes. permute
    splits cfg.L subspaces by build_permutation's plan. At L=1, so for SimHash,
    whose search sketches a query in natural order, and on a graph with no
    base-layer edges, the plan is the identity.

    The residual of v->u is exactly minus that of u->v, since float
    subtraction is sign-symmetric, and so are its products with the
    projections and the SimHash hyperplanes. So every mode computes one
    edge of each reciprocal pair and writes the other's record from it:
    peos negates the ids, since every id is odd in the residual and every
    other code (weights, variance row, edge norm) is even (see
    encode_id_bytes for the one asymmetry, -128); SimHash stores the
    mirror's >= 0 bit of -p as p <= 0, so a zero product is a one bit on
    both sides. The records are byte-identical to computing every edge.
    """
    if cfg.mode == RoutingMode.NONE:
        return idx.with_routing(None)
    # a plan over one subspace or over no edges is the identity, so only the others scan for one
    plan = (
        build_permutation(edge_residual_avgs(idx), cfg.L)
        if permute and cfg.L > 1 and idx.n_base_edges
        else PermutationPlan.identity(idx.dim, cfg.L)
    )
    src = np.repeat(np.arange(idx.n), np.diff(idx.base_indptr))
    dst = idx.base_indices
    perm = None if np.array_equal(plan.perm, np.arange(idx.dim)) else plan.perm
    V = idx.dataset.vectors
    enorm_vals = np.empty(idx.n_base_edges)

    att = RoutingAttachment(cfg=cfg, seed=idx.seed if seed is None else seed, plan=plan,
                            store=EdgeMetaStore.zeros(cfg, dst))
    ens, hashes, store = att.ens, att.hashes, att.store
    lead = store._lead()
    # the edge-norm quantizer is fitted once every edge norm is known, after the loop
    canon, mirrors, source = _reverse_pairs(idx.n, src, dst.astype(np.int64))
    for lo, hi in _attach_spans(canon.size):
        s = canon[lo:hi]
        e = V[dst[s]].astype(np.float64)
        e -= V[src[s]]
        enorm = np.linalg.norm(e, axis=1)
        if perm is not None:
            e = e[:, perm]
        a, b = np.searchsorted(source, (lo, hi))
        t, k = mirrors[a:b], source[a:b] - lo
        enorm_vals[s], enorm_vals[t] = enorm, enorm[k]
        if hashes is not None:
            p = e @ hashes.T
            lead[s], lead[t] = np.packbits(p >= 0.0, axis=1), np.packbits(p[k] <= 0.0, axis=1)
        else:
            pnorm = enorm if perm is None else np.linalg.norm(e, axis=1)  # the weights' norm, permuted order
            ids, codes = _meta_chunk(e, pnorm, ens, cfg.compact)
            lead[s] = np.concatenate((encode_id_bytes(ids), codes), axis=1)
            lead[t] = np.concatenate((encode_id_bytes(-ids[k]), codes[k]), axis=1)

    enorm = ScalarQuantizer.fit(enorm_vals, _norm_bits(cfg.compact))
    store.enorm_q[:] = enorm.encode(enorm_vals)
    store.finalize(_gate_row(idx), enorm)
    return idx.with_routing(att)


def _meta_chunk(ep: np.ndarray, enorm: np.ndarray, ens: ProjectionEnsemble,
                compact: bool) -> tuple[np.ndarray, np.ndarray]:
    """Signed extreme ids and weight codes for a chunk of permuted residuals and their norms.

    ids is (B, L+1) led by the residual id, or (B, L) in compact mode;
    codes holds the w_reg, w_res and var_idx codes, (B, 3), or no
    columns in compact mode. Negating a residual negates its ids and
    leaves its codes as they are.
    """
    B, d = ep.shape
    L, dp = ens.L, ens.sub_dim
    blocks = ep.reshape(B, L, dp)
    bn = np.linalg.norm(blocks, axis=2)
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
    if compact:
        ids[~live] = 0
        return ids[:, 1:], np.empty((B, 0), dtype=np.uint8)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(nz, 1.0 - (enorm * w_reg)[:, None] / (np.sqrt(nnz)[:, None] * bn), 0.0)
    res = (blocks * np.nan_to_num(scale)[:, :, None]).reshape(B, d)
    rp = res @ ens.full.T
    ids[:, 0] = _signed_argmax_rows(rp)
    ids[w_res < _RES_EPS, 0] = 0
    ids[~live] = 0
    w_reg, w_res = np.where(live, w_reg, 1.0), np.where(live, w_res, 0.0)
    codes = np.stack((np.round(w_reg * 255), np.round(w_res * 255), var_row_indices(w_reg, w_res, L)), axis=1)
    return ids, codes.astype(np.uint8)


def _signed_argmax_rows(prods: np.ndarray) -> np.ndarray:
    """Signed 1-based index of each row's largest |entry|: the lowest index wins a tie,
    and the sign is that of the entry (-0.0 counts as positive). At m=128 the result
    may be -128, which encode_id_bytes stores as the null id."""
    j = np.abs(prods).argmax(axis=1)
    return np.where(prods[np.arange(prods.shape[0]), j] >= 0.0, j + 1, -1 - j).astype(np.int16)
