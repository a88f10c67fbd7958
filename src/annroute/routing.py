"""Edge metadata, quantile tables, and the probabilistic routing tests.

Three gates share one calling convention: given per-edge metadata, the
query projection table, and the current result-list threshold state,
decide whether a neighbor's exact distance is worth computing. A gated
neighbor whose true distance beats the threshold must pass with
probability at least 1 - eps.

Every quantization in this module rounds in the direction that loosens
the test (more false positives), never the direction that could reject
additional true positives:

* the variance row index rounds the edge variance up,
* the x column rounds the threshold down, and each cell holds the
  minimum of the quantile over that cell and every cell to its right,
* stored half-norms round down and edge norms round up, shrinking A_r,
* table cells are nudged a hair below the exact quantile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from scipy.special import ndtri

from .errors import DegenerateInputError, UsageError
from .projections import (
    NULL_INDEX,
    ProjectionEnsemble,
    QueryProjectionTable,
    _seeded_normal,
    extreme_index,
    extreme_index_full,
)
from .vecstore import Metric, PermutationPlan, apply_permutation

VAR_ROWS = 256
X_COLS = 1024  # cells of width 1/512 over x in [-1, 1)
MAX_PROJECTIONS = 128  # ids must pack into one byte
_QUANTILE_NUDGE = 1e-9
_RES_EPS = 1e-9  # below this w_res the residual direction is numerical noise


class RoutingMode(str, Enum):
    PEOS = "peos"
    RCEOS = "rceos"
    SIMHASH = "simhash"
    NONE = "none"


@dataclass(frozen=True)
class RoutingConfig:
    mode: RoutingMode = RoutingMode.NONE
    eps: float = 0.2
    L: int = 8
    m: int = 128
    compact: bool = False
    simhash_bits: int = 64

    def __post_init__(self):
        if self.mode == RoutingMode.NONE:
            return
        if self.mode == RoutingMode.SIMHASH:
            if not 0.0 < self.eps < 1.0:
                raise UsageError("SimHash error bound must lie in (0, 1)")
            if self.simhash_bits < 8 or self.simhash_bits % 8 != 0:
                raise UsageError("simhash_bits must be a positive multiple of 8")
            return
        if not 0.0 < self.eps <= 0.5:
            raise UsageError("error bound must lie in (0, 0.5]")
        if self.mode == RoutingMode.RCEOS and self.L != 1:
            raise UsageError("RCEOs is the L=1 mode; set L=1 or use peos")
        if self.L < 1:
            raise UsageError("need at least one subspace")
        if not 2 <= self.m <= MAX_PROJECTIONS:
            raise UsageError(f"m must lie in [2, {MAX_PROJECTIONS}] to fit one-byte ids")
        if self.compact and not 2 <= self.L <= 4:
            raise UsageError("compact mode supports 2 <= L <= 4")


# ---------------------------------------------------------------------------
# Orthogonal decomposition
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Quantile table
# ---------------------------------------------------------------------------


def variance_grid(L: int, rows: int = VAR_ROWS) -> np.ndarray:
    """Row values for the edge-variance grid over (0, 1 + (L-1)/4]."""
    vmax = 1.0 + (L - 1) * 0.25
    return vmax * np.arange(1, rows + 1) / rows


def var_row_indices(w_reg, w_res, L: int, rows: int = VAR_ROWS) -> np.ndarray:
    """Row of w_reg^2 + L*w_res^2 rounded up; values beyond the grid clamp to the top."""
    v = np.asarray(w_reg, dtype=np.float64) ** 2 + L * np.asarray(w_res, dtype=np.float64) ** 2
    grid = variance_grid(L, rows)
    return np.minimum(np.searchsorted(grid, v, side="left"), rows - 1)


@dataclass(frozen=True)
class QuantileTable:
    """Precomputed eps-quantiles of the gate statistic's null model.

    The null model at variance row v and threshold x = A_r is a normal
    with mean x*sqrt(2L ln m) and variance v - L*x^2/(L+1). It is
    symmetric in the cosine, so the columns cover x in [-1, 1) with the
    left cell edges in x_grid. Each cell stores the minimum of the exact
    quantile over its own cell and every cell to its right, nudged a
    hair lower: a lookup that rounds x down to its cell can only make
    the test easier to pass, and every row is non-decreasing in x. For
    x >= 0 the quantile increases in x, so those cells hold the exact
    value at their left edge.
    """

    eps: float
    L: int
    m: int
    x_grid: np.ndarray
    v_grid: np.ndarray
    q: np.ndarray

    def var_index(self, v: float) -> int:
        return int(min(np.searchsorted(self.v_grid, v, side="left"), len(self.v_grid) - 1))

    def columns(self, x):
        """Column of the cell whose left edge is the largest grid point <= x, for x in [-1, 1).

        The grid points are k/half with half a power of two, so x*half is
        exact and its floor is the k of that edge.
        """
        half = len(self.x_grid) // 2
        return (np.floor(np.multiply(x, half)) + half).astype(np.intp)

    def threshold(self, var_idx: int, x: float) -> float:
        return float(self.q[var_idx, self.columns(x)])


def build_quantile_table(
    eps: float, L: int, m: int, var_rows: int = VAR_ROWS, x_cols: int = X_COLS
) -> QuantileTable:
    """Quantile table over the variance grid and x_cols equal cells of [-1, 1).

    For x < 0 the exact quantile x*eta + z*sqrt(v - c*x^2), with
    c = L/(L+1), eta = sqrt(2L ln m) and z the eps-quantile of N(0, 1),
    is not monotone: it dips to a minimum at x* = -sqrt(v/(c + z^2 c^2/eta^2)).
    On any cell it is smallest at an edge or at x*, so the running
    minimum from the right over the edge values, taken together with the
    value at x* for the cells left of x*, lies at or below the exact
    quantile on all of [left edge, 1).
    """
    if not 0.0 < eps <= 0.5:
        raise UsageError("error bound must lie in (0, 0.5]")
    half = x_cols // 2
    if var_rows < 1 or x_cols < 2 or x_cols % 2 or half & (half - 1):
        raise UsageError("grids must be non-empty and x_cols must be twice a power of two")
    if L < 1 or m < 2:
        raise UsageError("need L >= 1 and m >= 2")
    v_grid = variance_grid(L, var_rows)
    x_grid = (np.arange(x_cols) - half) / half
    eta = math.sqrt(2.0 * L * math.log(m))
    z = float(ndtri(eps))
    c = L / (L + 1.0)

    def exact(x):
        return x * eta + z * np.sqrt(np.clip(v_grid[:, None] - c * x**2, 0.0, None))

    q = np.minimum.accumulate(exact(x_grid[None, :])[:, ::-1], axis=1)[:, ::-1]
    x_star = -np.sqrt(v_grid / (c + (z * c / eta) ** 2))[:, None]
    q = np.where(x_grid[None, :] <= x_star, np.minimum(q, exact(x_star)), q) - _QUANTILE_NUDGE
    q.flags.writeable = False
    return QuantileTable(eps=eps, L=L, m=m, x_grid=x_grid, v_grid=v_grid, q=q)


# ---------------------------------------------------------------------------
# Scalar quantizers and edge metadata
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarQuantizer:
    """Affine min/max quantizer with directional rounding."""

    lo: float
    hi: float
    bits: int

    @property
    def levels(self) -> int:
        return (1 << self.bits) - 1

    @classmethod
    def fit(cls, values: np.ndarray, bits: int) -> "ScalarQuantizer":
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return cls(0.0, 0.0, bits)
        return cls(float(values.min()), float(values.max()), bits)

    def encode(self, x, rounding: str):
        x = np.asarray(x, dtype=np.float64)
        if self.hi <= self.lo:
            return np.zeros_like(x, dtype=np.int64)
        t = (x - self.lo) / (self.hi - self.lo) * self.levels
        code = np.floor(t) if rounding == "down" else np.ceil(t)
        return np.clip(code, 0, self.levels).astype(np.int64)

    def decode(self, code):
        code = np.asarray(code, dtype=np.float64)
        if self.hi <= self.lo:
            return np.full_like(code, self.lo)
        return self.lo + code * (self.hi - self.lo) / self.levels


@dataclass(frozen=True)
class EdgeQuantizers:
    half_u_sq: ScalarQuantizer
    enorm: ScalarQuantizer


def encode_extreme_id(sid: int) -> int:
    """Pack a signed extreme index into one byte: 0 null, 1..128 positive, 129..255 negative."""
    if sid == NULL_INDEX:
        return 0
    if sid > 0:
        if sid > 128:
            raise UsageError(f"extreme index {sid} does not fit one byte")
        return sid
    if sid < -127:
        raise UsageError(f"extreme index {sid} does not fit one byte")
    return 128 - sid


def decode_extreme_id(byte: int) -> int:
    if byte == 0:
        return NULL_INDEX
    return byte if byte <= 128 else 128 - byte


def canonical_extreme_id(sid: int) -> int:
    # One byte holds 256 signed ids plus null; -m at m=128 is the symbol
    # that does not fit and degrades to the null (zero contribution) id.
    return NULL_INDEX if sid == -128 else sid


@dataclass(frozen=True)
class EdgeMeta:
    """Packed per-edge record: signed extreme ids, quantized weights and norms.

    ext_ids has L+1 entries led by the residual id, or L entries in
    compact mode (weights are then pinned to (1, 0) and not stored).
    """

    ext_ids: tuple
    w_reg_q: int
    w_res_q: int
    var_idx: int
    half_u_sq_q: int
    enorm_q: int
    quant: EdgeQuantizers
    compact: bool = False

    @property
    def w_reg(self) -> float:
        return self.w_reg_q / 255.0

    @property
    def w_res(self) -> float:
        return self.w_res_q / 255.0

    @property
    def half_u_sq(self) -> float:
        return float(self.quant.half_u_sq.decode(self.half_u_sq_q))

    @property
    def enorm(self) -> float:
        return float(self.quant.enorm.decode(self.enorm_q))

    @property
    def L(self) -> int:
        return len(self.ext_ids) if self.compact else len(self.ext_ids) - 1


def build_edge_meta(
    u: np.ndarray,
    v: np.ndarray,
    ens: ProjectionEnsemble,
    plan: PermutationPlan,
    quant: EdgeQuantizers,
    compact: bool = False,
) -> EdgeMeta:
    """Metadata for the directed edge v -> u built from the residual e = u - v."""
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
        canonical_extreme_id(extreme_index(ep[(i - 1) * dp : i * dp], ens, i))
        for i in range(1, ens.L + 1)
    ]
    if compact:
        w_reg_q, w_res_q = 255, 0
        var_idx = int(var_row_indices(1.0, 0.0, ens.L))
        ext_ids = tuple(ids)
    else:
        id0 = (
            canonical_extreme_id(extreme_index_full(dec.res, ens))
            if dec.w_res >= _RES_EPS
            else NULL_INDEX
        )
        w_reg_q = int(round(dec.w_reg * 255))
        w_res_q = int(round(dec.w_res * 255))
        var_idx = int(var_row_indices(dec.w_reg, dec.w_res, ens.L))
        ext_ids = (id0, *ids)
    half = 0.5 * float(np.dot(u, u))
    return EdgeMeta(
        ext_ids=ext_ids,
        w_reg_q=w_reg_q,
        w_res_q=w_res_q,
        var_idx=var_idx,
        half_u_sq_q=int(quant.half_u_sq.encode(half, "down")),
        enorm_q=int(quant.enorm.encode(float(np.linalg.norm(e)), "up")),
        quant=quant,
        compact=compact,
    )


# ---------------------------------------------------------------------------
# Threshold state and the routing tests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdState:
    """Pruning scalar r, distance threshold delta, and the cached v.q dot product."""

    r: float
    delta: float
    vq: float

    @classmethod
    def unbounded(cls, vq: float = 0.0) -> "ThresholdState":
        return cls(r=math.inf, delta=math.inf, vq=vq)

    @classmethod
    def for_l2(cls, delta: float, qnorm: float, vq: float) -> "ThresholdState":
        # delta^2 - 2r = |q|^2 when delta is the L2 distance to the worst result
        return cls(r=(delta * delta - qnorm * qnorm) / 2.0, delta=delta, vq=vq)


def compute_Ar(meta: EdgeMeta, ts: ThresholdState, qnorm: float, metric: Metric) -> float:
    """Query-dependent cosine threshold the edge must beat; -inf when unbounded."""
    if math.isinf(ts.r):
        return -math.inf
    enorm = meta.enorm
    if enorm <= 0.0:
        return -math.inf
    if metric == Metric.L2:
        num = meta.half_u_sq - ts.r - ts.vq
    else:
        num = -ts.r - ts.vq
    return num / (qnorm * enorm)


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
    tbl: QuantileTable,
    qpt: QueryProjectionTable,
    ts: ThresholdState,
    metric: Metric = Metric.L2,
) -> bool:
    """Pass iff the projected statistic clears the eps-quantile at x = A_r.

    A_r >= 1 cannot be beaten and always fails; A_r <= -1 is beaten by
    every neighbor and always passes. Every A_r in (-1, 1), negative
    ones included, is decided by the statistic against the table.
    """
    ar = compute_Ar(meta, ts, qpt.qnorm, metric)
    if ar >= 1.0:
        return False
    if ar <= -1.0:
        return True
    return bool(_edge_statistic(meta, qpt) >= tbl.threshold(meta.var_idx, ar))


@lru_cache(maxsize=8)
def _rceos_table(eps: float, m: int) -> QuantileTable:
    return build_quantile_table(eps, 1, m)


def rceos_test(
    meta: EdgeMeta,
    qpt: QueryProjectionTable,
    ts: ThresholdState,
    eps: float,
    m: int,
    metric: Metric = Metric.L2,
) -> bool:
    """The L=1 special case of the partitioned test, with its own cached table."""
    if meta.compact or meta.L != 1:
        raise UsageError("rceos_test needs single-block (L=1) metadata")
    return peos_test(meta, _rceos_table(eps, m), qpt, ts, metric)


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

_POPCOUNT8 = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1)


@dataclass(frozen=True)
class SimHashSketch:
    """n-bit sign signature of a vector under a shared Gaussian ensemble."""

    bits: np.ndarray  # packed uint8, big-endian bit order within bytes
    n: int


def generate_simhash_hashes(seed: int, d: int, n: int) -> np.ndarray:
    """n Gaussian hyperplanes from the same named stream family as the ensembles."""
    if n < 1 or d < 1:
        raise UsageError("need n >= 1 hash vectors of positive dimension")
    return _seeded_normal(seed, 2, (n, d))


def simhash_sketch(e: np.ndarray, hashes: np.ndarray) -> SimHashSketch:
    e = np.asarray(e, dtype=np.float64)
    hashes = np.asarray(hashes, dtype=np.float64)
    if hashes.ndim != 2 or hashes.shape[1] != e.shape[0]:
        raise UsageError("hash ensemble shape does not match the vector")
    bits = (hashes @ e) >= 0.0
    return SimHashSketch(bits=np.packbits(bits), n=hashes.shape[0])


def collision_count(a: SimHashSketch, b: SimHashSketch) -> int:
    if a.n != b.n:
        raise UsageError("sketch lengths differ")
    return a.n - int(_POPCOUNT8[np.bitwise_xor(a.bits, b.bits)].sum())


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


# ---------------------------------------------------------------------------
# Analysis quantities
# ---------------------------------------------------------------------------


def required_m_rceos(n: int, theta: float) -> float:
    """Projection count above which the extreme-value test beats an n-bit SimHash."""
    if not 0.0 < theta < math.pi:
        raise UsageError("theta must lie in (0, pi)")
    if n < 0:
        raise UsageError("negative hash count")
    return math.exp(n / (2.0 * theta * (math.pi - theta)))


@dataclass(frozen=True)
class PartitionStats:
    mean_w_reg: float
    mean_w_res_sq: float
    j_rel: float
    j_opt: float
    delta: float


def w_reg_lower_bound(d: int, L: int) -> float:
    """Closed-form lower bound on the expected regular weight for isotropic vectors."""
    dp = d // L
    if L < 1 or d % L != 0 or dp <= 3:
        raise UsageError("need d divisible by L with d/L > 3")
    return (dp - 1) * math.sqrt(2 * L * d - 3 * L) / ((d - 1) * math.sqrt(2 * dp + 2 * math.sqrt(3) - 6))


def estimate_partition_stats(d: int, L: int, samples: int, seed: int = 0) -> PartitionStats:
    """Monte-Carlo moments of the regular/residual weights over isotropic vectors."""
    if samples < 1:
        raise UsageError("need at least one sample")
    if L < 1 or d % L != 0:
        raise UsageError(f"d={d} not divisible by L={L}")
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(8,))))
    dp = d // L
    sum_w = 0.0
    sum_w2 = 0.0
    sum_res = 0.0
    done = 0
    while done < samples:
        chunk = min(samples - done, 1 << 16)
        g = gen.standard_normal((chunk, L, dp))
        bn = np.linalg.norm(g, axis=2)
        enorm = np.sqrt((bn**2).sum(axis=1))
        w_reg = bn.sum(axis=1) / (math.sqrt(L) * enorm)
        w_res_sq = np.clip(1.0 - w_reg**2, 0.0, 1.0)
        sum_w += float(w_reg.sum())
        sum_w2 += float(w_res_sq.sum())
        sum_res += float(np.sqrt(w_res_sq).sum())
        done += chunk
    mean_w_reg = sum_w / samples
    mean_w_res_sq = sum_w2 / samples
    return PartitionStats(
        mean_w_reg=mean_w_reg,
        mean_w_res_sq=mean_w_res_sq,
        j_rel=(1.0 + (L - 1) * mean_w_res_sq) / L,
        j_opt=1.0 / L,
        delta=abs(sum_res / samples - 1.0 / (L + 1)),
    )


# ---------------------------------------------------------------------------
# Batched evaluation
# ---------------------------------------------------------------------------


def table_offset_base(L: int, m: int) -> np.ndarray:
    """Where each id column's null id sits in a query's signed table.

    Column 0 (the residual id) reads the table's full-space row and column
    l its subspace row l, so the id in column l is stored as the flat
    offset base[l] + id.
    """
    return np.arange(L + 1) * (2 * m + 1) + m


class EdgeMetaBlock:
    """The edges of one popped node, as their slots in store-wide columns.

    half_u_sq and enorm are gathered for the block, as A_r needs them for
    every edge. The statistic's inputs stay whole: offsets (E x (L+1) flat
    offsets into the query's signed table, column 0 the residual id),
    weights (E x 2: w_reg and sqrt(L)*w_res) and var_idx are read at
    slots only for the edges A_r leaves to the test. enorm_min is the
    smallest enorm among all E edges; when it is positive, no edge of the
    block can have a zero norm. SimHash stores have no statistic columns.
    """

    __slots__ = ("slots", "half_u_sq", "enorm", "enorm_min", "offsets", "weights", "var_idx")

    def __init__(self, slots, half_u_sq, enorm, enorm_min, offsets=None, weights=None, var_idx=None):
        self.slots = slots
        self.half_u_sq = half_u_sq
        self.enorm = enorm
        self.enorm_min = enorm_min
        self.offsets = offsets
        self.weights = weights
        self.var_idx = var_idx

    def __len__(self) -> int:
        return len(self.slots)

    @classmethod
    def from_metas(cls, metas, m: int) -> "EdgeMetaBlock":
        """A block over a list of records, for query tables with m projections per space."""
        metas = list(metas)
        n = len(metas)
        L = metas[0].L if metas else 1
        ids = np.zeros((n, L + 1), dtype=np.int64)
        for k, meta in enumerate(metas):
            ids[k, int(meta.compact):] = meta.ext_ids
        enorm = np.array([meta.enorm for meta in metas])
        w_res = np.array([meta.w_res for meta in metas])
        return cls(
            slots=np.arange(n),
            half_u_sq=np.array([meta.half_u_sq for meta in metas]),
            enorm=enorm,
            enorm_min=float(enorm.min()) if n else math.inf,
            offsets=ids + table_offset_base(L, m),
            weights=np.column_stack(([meta.w_reg for meta in metas], math.sqrt(L) * w_res)),
            var_idx=np.array([meta.var_idx for meta in metas], dtype=np.intp),
        )


def batch_ar(block: EdgeMetaBlock, ts: ThresholdState, qnorm: float, metric: Metric) -> np.ndarray:
    n = len(block)
    if math.isinf(ts.r):
        return np.full(n, -math.inf)
    if metric == Metric.L2:
        num = block.half_u_sq - ts.r - ts.vq
    else:
        num = np.full(n, -ts.r - ts.vq)
    den = qnorm * block.enorm
    if qnorm * block.enorm_min > 0.0:  # then every den > 0
        return num / den
    out = np.full(n, -math.inf)
    ok = den > 0.0
    out[ok] = num[ok] / den[ok]
    return out


def batch_peos_test(
    metas,
    tbl: QuantileTable,
    qpt: QueryProjectionTable,
    ts: ThresholdState,
    metric: Metric = Metric.L2,
) -> np.ndarray:
    """Vectorized gate for one popped node's edge block; matches peos_test elementwise.

    A_r comes first; only edges with |A_r| < 1 read their offsets,
    weights and variance rows. Their statistic is one gather from the
    query's signed table, a row-sum over the L subspace entries and one
    multiply-add with the residual entry.
    """
    block = metas if isinstance(metas, EdgeMetaBlock) else EdgeMetaBlock.from_metas(metas, len(qpt.full_proj))
    ar = batch_ar(block, ts, qpt.qnorm, metric)
    mid = (np.abs(ar) < 1.0).nonzero()[0]
    if mid.size == 0:
        return ar <= -1.0
    whole = mid.size == ar.size  # the usual case: no auto-decided edge to merge back
    s = block.slots if whole else block.slots[mid]
    g = qpt.table.take(block.offsets.take(s, axis=0))
    w = block.weights.take(s, axis=0)
    h = w[:, 0] * g[:, 1:].sum(axis=1) + w[:, 1] * g[:, 0]
    tested = h >= tbl.q[block.var_idx.take(s), tbl.columns(ar if whole else ar[mid])]
    if whole:
        return tested
    passes = ar <= -1.0
    passes[mid] = tested
    return passes


def batch_simhash_test(
    sketches: np.ndarray,
    qsketch: SimHashSketch,
    ar: np.ndarray,
    eps: float,
) -> np.ndarray:
    """Vectorized SimHash gate over packed per-edge sketch rows."""
    passes = ar <= 0.0
    mid = np.nonzero((ar > 0.0) & (ar < 1.0))[0]
    if mid.size:
        xor = np.bitwise_xor(sketches[mid], qsketch.bits[None, :])
        col = qsketch.n - _POPCOUNT8[xor].sum(axis=1)
        theta = np.arccos(np.clip(ar[mid], -1.0, 1.0))
        thr = qsketch.n * (1.0 - theta / math.pi) - math.sqrt(
            qsketch.n * math.log(1.0 / eps) / 2.0
        )
        passes[mid] = col >= thr
    return passes
