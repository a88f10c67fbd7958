"""Per-edge scalar reference for the batch gates.

Search, attach and audit run the gate only through the batch kernels of
annroute.routing (batch_ar, batch_peos_test, batch_simhash_test) and the
chunked attach of annroute.edgestore. This module makes the same
decisions one edge at a time, so the tests can check the kernels
against it.

It shares with the library the one-byte id codec (encode_id_bytes and
decode_id_bytes), ScalarQuantizer, var_row_indices, the tables of
build_quantile_table read at the columns of x_columns, and the query
products of project_query. It recomputes per edge what the kernels
compute in bulk: the regular/residual decomposition, the extreme-id
picks, A_r, the projected statistic, and the SimHash collision count
and its bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from annroute.hnsw import HnswIndex
from annroute.errors import DegenerateInputError, UsageError
from annroute.projections import ProjectionEnsemble, QueryProjectionTable, decode_id_bytes, encode_id_bytes
from annroute.routing import (
    _RES_EPS,
    RoutingMode,
    ScalarQuantizer,
    SimHashSketch,
    var_row_indices,
    x_columns,
)
from annroute.vecstore import Metric, PermutationPlan, apply_permutation

# Reserved extreme index for an all-zero block; consumers treat its
# projection contribution as zero.
NULL_INDEX = 0


def extreme_index(x: np.ndarray, ens: ProjectionEnsemble, i: int) -> int:
    """Signed 1-based index of the subspace-i projection with the largest |inner product|.

    Returns NULL_INDEX for an all-zero sub-vector.
    """
    if not 1 <= i <= ens.L:
        raise UsageError(f"subspace index {i} out of range 1..{ens.L}")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (ens.sub_dim,):
        raise UsageError(f"sub-vector dim {x.shape} does not match d'={ens.sub_dim}")
    return _signed_argmax(ens.sub[i - 1] @ x)


def extreme_index_full(x: np.ndarray, ens: ProjectionEnsemble) -> int:
    """As extreme_index, but over the m full-space projections."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (ens.d,):
        raise UsageError(f"vector dim {x.shape} does not match d={ens.d}")
    return _signed_argmax(ens.full @ x)


def _signed_argmax(prods: np.ndarray) -> int:
    if not np.any(prods):
        return NULL_INDEX
    j = int(np.argmax(np.abs(prods)))
    return (j + 1) if prods[j] >= 0 else -(j + 1)


@dataclass(frozen=True)
class Decomposition:
    """Split e = |e| * w_reg * reg_dir + res with reg_dir orthogonal to res."""

    w_reg: float
    w_res: float
    reg_dir: np.ndarray
    res: np.ndarray


def decompose(e: np.ndarray, L: int) -> Decomposition:
    """Regular/residual split of an edge vector across L equal blocks.

    The regular direction is the block-normalized unit vector; zero
    blocks contribute a zero direction block and the remaining blocks
    are renormalized.
    """
    e = np.asarray(e, dtype=np.float64)
    d = e.shape[0]
    if L < 1 or d % L != 0:
        raise UsageError(f"d={d} not divisible by L={L}")
    enorm = float(np.linalg.norm(e))
    if enorm == 0.0:
        raise UsageError("cannot decompose the zero vector")
    blocks = e.reshape(L, d // L)
    bn = np.linalg.norm(blocks, axis=1)
    nz = bn > 0.0
    nnz = int(np.count_nonzero(nz))
    reg_dir = np.zeros_like(blocks)
    reg_dir[nz] = blocks[nz] / (math.sqrt(nnz) * bn[nz, None])
    reg_dir = reg_dir.reshape(d)
    w_reg = float(bn.sum() / (math.sqrt(nnz) * enorm))
    w_reg = min(w_reg, 1.0)
    w_res = math.sqrt(max(0.0, 1.0 - w_reg * w_reg))
    res = e - (enorm * w_reg) * reg_dir
    return Decomposition(w_reg=w_reg, w_res=w_res, reg_dir=reg_dir, res=res)



@dataclass(frozen=True)
class EdgeMeta:
    """Packed per-edge record: signed extreme ids, quantized weights and edge norm, and
    the target's exact squared norm |u|^2.

    ext_ids has L+1 entries led by the residual id, or L entries in
    compact mode (weights are then pinned to (1, 0) and not stored).
    quant is the edge-norm quantizer.
    """

    ext_ids: tuple
    w_reg_q: int
    w_res_q: int
    var_idx: int
    u_sq: float
    enorm_q: int
    quant: ScalarQuantizer
    compact: bool = False

    @property
    def w_reg(self) -> float:
        return self.w_reg_q / 255.0

    @property
    def w_res(self) -> float:
        return self.w_res_q / 255.0

    @property
    def enorm(self) -> float:
        return float(self.quant.decode(self.enorm_q))

    @property
    def L(self) -> int:
        return len(self.ext_ids) if self.compact else len(self.ext_ids) - 1


def build_edge_meta(
    u: np.ndarray,
    v: np.ndarray,
    ens: ProjectionEnsemble,
    plan: PermutationPlan,
    quant: ScalarQuantizer,
    compact: bool = False,
) -> EdgeMeta:
    """Metadata for the directed edge v -> u built from the residual e = u - v, its norm
    coded by the edge-norm quantizer quant."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    e = u - v
    if not np.any(e):
        raise DegenerateInputError("coincident endpoints give a degenerate edge")
    ep = apply_permutation(e, plan)
    if ep.shape[0] != ens.d or plan.L != ens.L:
        raise UsageError("permutation plan does not match the projection ensemble")
    dec = decompose(ep, ens.L)
    dp = ens.sub_dim
    ids = [
        int(decode_id_bytes(encode_id_bytes(extreme_index(ep[(i - 1) * dp : i * dp], ens, i))))
        for i in range(1, ens.L + 1)
    ]
    if compact:
        w_reg_q, w_res_q = 255, 0
        var_idx = int(var_row_indices(1.0, 0.0, ens.L))
        ext_ids = tuple(ids)
    else:
        id0 = (
            int(decode_id_bytes(encode_id_bytes(extreme_index_full(dec.res, ens))))
            if dec.w_res >= _RES_EPS
            else NULL_INDEX
        )
        w_reg_q = int(round(dec.w_reg * 255))
        w_res_q = int(round(dec.w_res * 255))
        var_idx = int(var_row_indices(dec.w_reg, dec.w_res, ens.L))
        ext_ids = (id0, *ids)
    return EdgeMeta(
        ext_ids=ext_ids,
        w_reg_q=w_reg_q,
        w_res_q=w_res_q,
        var_idx=var_idx,
        u_sq=float(np.einsum("i,i->", u, u)),  # summed as the index sums its squared norms
        enorm_q=int(quant.encode(float(np.linalg.norm(e)))),
        quant=quant,
        compact=compact,
    )



def meta_at(idx: HnswIndex, slot: int) -> EdgeMeta:
    """The record at a slot of an index's attached store, decoded into an EdgeMeta whose
    squared norm is the index's squared norm of the edge's target."""
    store = idx.routing.store
    if store.cfg.mode == RoutingMode.SIMHASH:
        raise UsageError("SimHash attachments store sketches, not extreme ids")
    r = store.rec[slot]
    L, compact = store.cfg.L, store.cfg.compact
    return EdgeMeta(
        ext_ids=tuple(int(x) for x in decode_id_bytes(store.ids[slot])),
        w_reg_q=255 if compact else int(r[L + 1]),
        w_res_q=0 if compact else int(r[L + 2]),
        var_idx=store.var_idx if compact else int(r[L + 3]),
        u_sq=float(idx._sqn[store.dst[slot]]),
        enorm_q=int(store.enorm_q[slot]),
        quant=store.quant,
        compact=compact,
    )


def compute_Ar(meta: EdgeMeta, thr: tuple, qnorm: float, metric: Metric) -> float:
    """Query-dependent cosine threshold the edge must beat; -inf at a zero edge norm.

    thr is the hop's (wk, kv, row_v): the worst result's key, the popped
    node's key and its row term (|v|^2 on L2, |v| on angular). The target's
    row term is |u|^2 on L2 and sqrt(|u|^2) on angular, as the index takes
    its norms.
    """
    wk, kv, row_v = thr
    enorm = meta.enorm
    if enorm <= 0.0:
        return -math.inf
    if metric == Metric.L2:
        return (meta.u_sq + (kv - row_v - wk)) / (2.0 * qnorm * enorm)
    if metric == Metric.ANGULAR:
        return ((1.0 - wk) * math.sqrt(meta.u_sq) - (1.0 - kv) * row_v) / enorm
    return (kv - wk) / (qnorm * enorm)


def _edge_statistic(meta: EdgeMeta, qpt: QueryProjectionTable) -> float:
    block_ids = meta.ext_ids if meta.compact else meta.ext_ids[1:]
    h1 = 0.0
    for i, sid in enumerate(block_ids):
        if sid != NULL_INDEX:
            h1 += math.copysign(1.0, sid) * qpt.sub_proj[i, abs(sid) - 1]
    if meta.compact:
        return h1
    sid0 = meta.ext_ids[0]
    h2 = 0.0
    if sid0 != NULL_INDEX:
        h2 = math.copysign(1.0, sid0) * qpt.full_proj[abs(sid0) - 1]
    return meta.w_reg * h1 + math.sqrt(meta.L) * meta.w_res * h2


def peos_test(
    meta: EdgeMeta,
    tbl: np.ndarray,
    qpt: QueryProjectionTable,
    thr: tuple,
    metric: Metric = Metric.L2,
) -> bool:
    """Pass iff the projected statistic clears the eps-quantile at x = A_r.

    A_r >= 1 cannot be beaten and always fails; A_r <= -1 is beaten by
    every neighbor and always passes. Every A_r in (-1, 1), negative
    ones included, is decided by the statistic against the table.
    """
    ar = compute_Ar(meta, thr, qpt.qnorm, metric)
    if ar >= 1.0:
        return False
    if ar <= -1.0:
        return True
    return bool(_edge_statistic(meta, qpt) >= tbl[meta.var_idx, x_columns(ar)])


def collision_count(a: SimHashSketch, b: SimHashSketch) -> int:
    if a.n != b.n:
        raise UsageError("sketch lengths differ")
    return a.n - int(np.count_nonzero(np.unpackbits(np.bitwise_xor(a.bits, b.bits))))


def simhash_threshold(n: int, ar: float, eps: float) -> float:
    """Hoeffding collision bound at the angle implied by A_r."""
    theta = math.acos(min(1.0, max(-1.0, ar)))
    return n * (1.0 - theta / math.pi) - math.sqrt(n * math.log(1.0 / eps) / 2.0)


def simhash_test(sketch_e: SimHashSketch, sketch_q: SimHashSketch, ar: float, eps: float) -> bool:
    if not 0.0 < eps < 1.0:
        raise UsageError("SimHash error bound must lie in (0, 1)")
    if ar >= 1.0:
        return False
    if ar <= 0.0:
        return True
    return collision_count(sketch_e, sketch_q) >= simhash_threshold(sketch_e.n, ar, eps)
