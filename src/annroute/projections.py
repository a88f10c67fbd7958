"""Seeded Gaussian projection ensembles and per-query projection tables.

Ensembles are regenerated from (seed, rng_id) instead of being persisted,
so the byte stream must be reproducible forever: uniforms come from the
counter-based Philox generator and are mapped through the inverse normal
CDF. Any change to that recipe must bump RNG_ID.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import DegenerateInputError, UsageError

RNG_ID = "philox4x64/u53-ndtri/v1"

# Reserved extreme index for an all-zero block; consumers treat its
# projection contribution as zero.
NULL_INDEX = 0


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
    the same (seed, rng_id, L, m, d) reproduces identical bits.
    """

    sub: np.ndarray
    full: np.ndarray
    L: int
    m: int
    d: int
    seed: int
    rng_id: str = RNG_ID

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


@dataclass(frozen=True)
class QueryProjectionTable:
    """All L*m subspace and m full-space inner products of the normalized query.

    qnorm keeps the original (pre-normalization) norm, which the routing
    threshold formula needs. table is the same products signed and flat,
    (L+1) rows of 2m+1 entries, row 0 the full space and row l the
    subspace l: entry l*(2m+1) + m + id holds sign(id) * proj[l, |id|-1],
    and the row centre (id 0, the null id) holds 0. An edge's statistic
    then reads one entry per extreme id.
    """

    sub_proj: np.ndarray
    full_proj: np.ndarray
    qnorm: float
    qn: np.ndarray
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
    proj = np.vstack((full_proj, sub_proj))
    table = np.hstack((-proj[:, ::-1], np.zeros((ens.L + 1, 1)), proj)).ravel()
    return QueryProjectionTable(sub_proj=sub_proj, full_proj=full_proj, qnorm=qnorm, qn=qn,
                                table=table)


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
