"""Seeded Gaussian projection ensembles and per-query projection tables.

Ensembles are regenerated from their seed instead of being persisted,
so the byte stream must be reproducible forever: uniforms come from the
counter-based Philox generator and are mapped through the inverse normal
CDF. Any change to that recipe must bump RNG_ID.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import DegenerateInputError, FormatError, UsageError

RNG_ID = "philox4x64/u53-ndtri/v1"


def _seeded_normal(seed: int, key: int, shape) -> np.ndarray:
    """Standard normals from the named Philox/inverse-CDF stream."""
    ss = np.random.SeedSequence(seed, spawn_key=(key,))
    gen = np.random.Generator(np.random.Philox(ss))
    u = (gen.integers(0, 1 << 53, size=shape, dtype=np.uint64) + 0.5) / float(1 << 53)
    return ndtri(u)


@dataclass(frozen=True)
class ProjectionEnsemble:
    """L x m subspace Gaussians plus m full-space Gaussians.

    sub has shape (L, m, d/L); full has shape (m, d). Regenerating with
    the same (seed, L, m, d) under the same RNG_ID reproduces identical bits.
    """

    sub: np.ndarray
    full: np.ndarray
    L: int
    m: int
    d: int
    seed: int

    @property
    def sub_dim(self) -> int:
        return self.d // self.L


def generate_ensemble(seed: int, d: int, L: int, m: int) -> ProjectionEnsemble:
    if L < 1 or d < 1 or d % L != 0:
        raise UsageError(f"d={d} must be a positive multiple of L={L}")
    if m < 2:
        raise UsageError("need at least two projection vectors per space")
    dp = d // L
    sub = _seeded_normal(seed, 0, (L, m, dp))
    full = _seeded_normal(seed, 1, (m, d))
    sub.flags.writeable = False
    full.flags.writeable = False
    return ProjectionEnsemble(sub=sub, full=full, L=L, m=m, d=d, seed=seed)


ID_BYTES = 256  # entries per row of a query's signed table: one per extreme-id byte
_CHECK_ROWS = 1 << 16  # rows of id bytes per check_id_bytes span


def encode_id_bytes(ids) -> np.ndarray:
    """The one-byte wire form of signed extreme ids: 0 the null id, b the id +b (b <= 128) and
    128+b the id -b (b <= 127). -128 has no byte and degrades to the null id, so a reverse
    edge's bytes, the encoding of its negated ids, mirror the forward ones except at +-128.
    """
    ids = np.asarray(ids, dtype=np.int16)
    return np.where(ids > 0, ids, np.where((ids < 0) & (ids > -128), 128 - ids, 0)).astype(np.uint8)


def decode_id_bytes(b) -> np.ndarray:
    """The signed extreme id of every wire byte."""
    b = np.asarray(b, dtype=np.int16)
    return np.where(b <= 128, b, 128 - b)


def check_id_bytes(b: np.ndarray, m: int) -> None:
    """Reject stored id bytes that name a projection beyond the m an ensemble has.

    Rows are checked _CHECK_ROWS at a time, so the masks stay small
    beside a store's records.
    """
    if m >= np.abs(_BYTE_IDS).max():  # every byte names an id within m
        return
    # bytes m+1..128 hold the ids above m, bytes 129+m..255 the ids below -m
    for lo in range(0, b.shape[0], _CHECK_ROWS):
        c = b[lo : lo + _CHECK_ROWS]
        if np.any((c > m) & ((c <= 128) | (c > 128 + min(m, 127)))):
            raise FormatError(f"edge metadata holds an extreme id beyond m={m}")


_BYTE_IDS = decode_id_bytes(np.arange(ID_BYTES))  # the signed id each byte holds
_BYTE_COL, _BYTE_SIGN = np.abs(_BYTE_IDS).astype(np.intp), np.sign(_BYTE_IDS).astype(np.float64)


@dataclass(frozen=True)
class QueryProjectionTable:
    """All L*m subspace and m full-space inner products of the normalized query.

    qnorm keeps the original (pre-normalization) norm, which the routing
    threshold formula needs. table is the same products signed and
    indexed by the one-byte wire encoding of an extreme id: (L+1) rows
    of ID_BYTES entries, row 0 the full space and row l the subspace l.
    Entry l*256 + b holds the product of the id s that byte b decodes to,
    sign(s) * proj[l, |s|-1], and 0 for the null id and for ids beyond m.
    An edge's statistic then reads one entry per stored id byte.
    """

    sub_proj: np.ndarray
    full_proj: np.ndarray
    qnorm: float
    table: np.ndarray


def project_query(q: np.ndarray, ens: ProjectionEnsemble) -> QueryProjectionTable:
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (ens.d,):
        raise UsageError(f"query dim {q.shape} does not match ensemble dim {ens.d}")
    qnorm = float(np.linalg.norm(q))
    if qnorm == 0.0:
        raise DegenerateInputError("cannot project the zero query")
    qn = q / qnorm
    blocks = qn.reshape(ens.L, ens.sub_dim)
    sub_proj = np.einsum("ld,lmd->lm", blocks, ens.sub)
    full_proj = ens.full @ qn
    proj = np.zeros((ens.L + 1, 129))  # column |s| for the id s: 0 for the null id and ids beyond m
    proj[0, 1 : ens.m + 1] = full_proj
    proj[1:, 1 : ens.m + 1] = sub_proj
    table = proj.take(_BYTE_COL, axis=1) * _BYTE_SIGN
    return QueryProjectionTable(sub_proj=sub_proj, full_proj=full_proj, qnorm=qnorm, table=table.ravel())

