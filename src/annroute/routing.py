"""Quantile tables, quantizers, and the batch routing gates.

Each gate takes a block of edges with their stored records, the query's
projections or sketch, and the hop's threshold (the worst result's key,
the popped node's key and its row term), and decides for every edge
whether the neighbor's exact distance is worth computing.
A gated neighbor whose true distance beats the threshold must pass with
probability at least 1 - eps.

Every quantization a gate reads but two rounds in the direction that
loosens the test (more false positives), never the direction that could
reject additional true positives:

* the variance row index rounds the edge variance up,
* the x column rounds the threshold down, and each cell holds the
  minimum of the quantile over that cell and every cell to its right,
* edge norms round up, the first exception: that lowers a positive A_r
  but raises a negative one toward 0, which can tighten the peos test
  (SimHash passes every A_r <= 0),
* the w_reg and w_res codes (edgestore._meta_chunk) round to nearest,
  the second exception: the statistic they weight can move either way,
* table cells are nudged a hair below the exact quantile,
* SimHash bounds on A_r are raised a hair above the exact cosine.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.special import ndtri

from .errors import UsageError
from .projections import QueryProjectionTable, _seeded_normal
from .vecstore import Metric

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
        """Settle aliases and unused fields: rceos is peos at L=1; SimHash has no subspaces, so L=1."""
        if self.mode == RoutingMode.NONE:
            return
        if self.mode == RoutingMode.SIMHASH:
            if not 0.0 < self.eps < 1.0:
                raise UsageError("SimHash error bound must lie in (0, 1)")
            if self.simhash_bits < 8 or self.simhash_bits % 8 != 0:
                raise UsageError("simhash_bits must be a positive multiple of 8")
            if self.compact:
                raise UsageError("compact records hold extreme ids; SimHash has no compact form")
            object.__setattr__(self, "L", 1)
            return
        if not 0.0 < self.eps <= 0.5:
            raise UsageError("error bound must lie in (0, 0.5]")
        if self.mode == RoutingMode.RCEOS and self.L != 1:
            raise UsageError("RCEOs is the L=1 mode; set L=1 or use peos")
        object.__setattr__(self, "mode", RoutingMode.PEOS)  # peos or its alias rceos
        if self.L < 1:
            raise UsageError("need at least one subspace")
        if not 2 <= self.m <= MAX_PROJECTIONS:
            raise UsageError(f"m must lie in [2, {MAX_PROJECTIONS}] to fit one-byte ids")
        if self.compact and not 2 <= self.L <= 4:
            raise UsageError("compact mode supports 2 <= L <= 4")


# ---------------------------------------------------------------------------
# Quantile table
# ---------------------------------------------------------------------------


# each cell's left and right edge, the last cell's right edge at 1; every k/512 is exact in binary
X_LEFT = np.arange(-X_COLS // 2, X_COLS // 2) / (X_COLS // 2)
X_RIGHT = np.append(X_LEFT[1:], 1.0)
X_LEFT.flags.writeable = X_RIGHT.flags.writeable = False


def x_columns(x):
    """Column of the cell that holds x: the count of right edges <= x, so x < -1 reads the
    first cell and x >= 1 the +inf column."""
    return np.searchsorted(X_RIGHT, x, side="right")


def variance_grid(L: int) -> np.ndarray:
    """Row values for the edge-variance grid over (0, 1 + (L-1)/4]."""
    vmax = 1.0 + (L - 1) * 0.25
    return vmax * np.arange(1, VAR_ROWS + 1) / VAR_ROWS


def var_row_indices(w_reg, w_res, L: int) -> np.ndarray:
    """Row of w_reg^2 + L*w_res^2 rounded up; values beyond the grid clamp to the top."""
    v = np.asarray(w_reg, dtype=np.float64) ** 2 + L * np.asarray(w_res, dtype=np.float64) ** 2
    return np.minimum(np.searchsorted(variance_grid(L), v, side="left"), VAR_ROWS - 1)


# a table is 2,099,200 B: 64 would pin 134 MB, and a few cover an eps sweep
@functools.lru_cache(maxsize=8)
def build_quantile_table(eps: float, L: int, m: int) -> np.ndarray:
    """Read-only (VAR_ROWS, X_COLS + 1) eps-quantiles of the gate statistic's null model.

    The null model at variance row v and threshold x = A_r is a normal
    with mean x*sqrt(2L ln m) and variance v - L*x^2/(L+1). It is
    symmetric in the cosine, so the columns cover x in [-1, 1) with the
    cells whose left edges are X_LEFT, then x >= 1 in one last +inf
    column; x_columns finds an A_r's column. Each cell stores the minimum
    of the exact quantile over its own cell and every cell to its right,
    nudged a hair lower: a lookup that rounds x down to its cell can only
    make the test easier to pass, and every row is non-decreasing in x.
    For x >= 0 the quantile increases in x, so those cells hold the exact
    value at their left edge.

    For x < 0 the exact quantile x*eta + z*sqrt(v - c*x^2), with
    c = L/(L+1), eta = sqrt(2L ln m) and z the eps-quantile of N(0, 1),
    is not monotone: it dips to a minimum at x* = -sqrt(v/(c + z^2 c^2/eta^2)).
    On any cell it is smallest at an edge or at x*, so the running
    minimum from the right over the edge values, taken together with the
    value at x* for the cells left of x*, lies at or below the exact
    quantile on all of [left edge, 1).

    The table is cached here, not on the attachment, so every index with
    the same (eps, L, m) shares one.
    """
    if not 0.0 < eps <= 0.5:
        raise UsageError("error bound must lie in (0, 0.5]")
    if L < 1 or m < 2:
        raise UsageError("need L >= 1 and m >= 2")
    v_grid = variance_grid(L)[:, None]
    eta = math.sqrt(2.0 * L * math.log(m))
    z = float(ndtri(eps))
    c = L / (L + 1.0)

    def exact(x):
        return x * eta + z * np.sqrt(np.clip(v_grid - c * x**2, 0.0, None))

    q = np.minimum.accumulate(exact(X_LEFT)[:, ::-1], axis=1)[:, ::-1]
    x_star = -np.sqrt(v_grid / (c + (z * c / eta) ** 2))
    q = np.where(X_LEFT <= x_star, np.minimum(q, exact(x_star)), q) - _QUANTILE_NUDGE
    q = np.concatenate((q, np.full((VAR_ROWS, 1), math.inf)), axis=1)
    q.flags.writeable = False
    return q


# ---------------------------------------------------------------------------
# Scalar quantizers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarQuantizer:
    """Affine min/max quantizer whose codes round up: a decoded value is never below its input."""

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

    def encode(self, x):
        x = np.asarray(x, dtype=np.float64)
        if self.hi <= self.lo:
            return np.zeros_like(x, dtype=np.int64)
        t = (x - self.lo) / (self.hi - self.lo) * self.levels
        return np.clip(np.ceil(t), 0, self.levels).astype(np.int64)

    def decode(self, code):
        code = np.asarray(code, dtype=np.float64)
        if self.hi <= self.lo:
            return np.full_like(code, self.lo)
        return self.lo + code * (self.hi - self.lo) / self.levels


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

_BOUND_NUDGE = 2.0**-50  # four ulps of 1.0, above the float error of a bound


@dataclass(frozen=True)
class SimHashSketch:
    """n-bit sign signature of a vector under a shared Gaussian ensemble.

    words views bits as the unsigned words the gate compares (see sketch_words).
    """

    bits: np.ndarray  # packed uint8, big-endian bit order within bytes
    n: int
    words: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "words", sketch_words(self.bits))


def sketch_words(packed: np.ndarray) -> np.ndarray:
    """C-contiguous packed sketch rows (..., n/8) uint8 viewed as unsigned words over the same buffer.

    The words are uint64 when n is a multiple of 64, else the widest
    unsigned type whose size divides n/8 bytes; a sketch of one word
    drops its last axis. Edge and query sketches of the same width get
    the same view, so the XOR of two views has the differing bits of
    the two sketches.
    """
    width = packed.shape[-1]
    size = next(s for s in (8, 4, 2, 1) if width % s == 0)
    words = packed.view(np.dtype(f"u{size}"))
    return words[..., 0] if width == size else words


@functools.lru_cache(maxsize=64)
def simhash_bounds(n: int, eps: float) -> np.ndarray:
    """Largest A_r an edge with k differing bits of n passes at, for k = 0..n.

    The Hoeffding test passes an edge with n - k colliding bits iff
    n - k >= n * (1 - theta / pi) - delta, with theta = arccos(A_r) and
    delta = sqrt(n ln(1/eps) / 2), that is iff A_r <= cos(pi * max(k -
    delta, 0) / n). Each bound is raised by _BOUND_NUDGE, so the float
    table can only loosen the test, then clamped to [0, nextafter(1, 0)]:
    A_r <= 0 passes and A_r >= 1 fails whatever k is. The table is read
    only and cached here, not on the attachment, so an index holds no
    more bytes for it.
    """
    if n < 1 or not 0.0 < eps < 1.0:
        raise UsageError("need n >= 1 bits and a SimHash error bound in (0, 1)")
    delta = math.sqrt(n * math.log(1.0 / eps) / 2.0)
    angle = np.pi * np.maximum(np.arange(n + 1) - delta, 0.0) / n
    bounds = np.clip(np.cos(angle) + _BOUND_NUDGE, 0.0, np.nextafter(1.0, 0.0))
    bounds.flags.writeable = False
    return bounds


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
    if L < 1 or d % L != 0 or d // L <= 3:
        raise UsageError("need d divisible by L with d/L > 3")
    dp = d // L
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


class EdgeMetaBlock:
    """The edges of one popped node, as their slots in the store's record arrays.

    row, each edge's target's row term (|u|^2 on L2, |u| on angular, None
    on IP, whose A_r does not read it), and enorm, its decoded edge norm,
    are gathered for the block. The statistic's inputs stay store-wide in
    record form and are read at slots: rec holds per edge the L+1
    extreme-id bytes in their wire encoding (column 0 the residual id),
    then the w_reg, w_res and var_idx codes; in compact mode it holds only
    the L subspace id bytes, the weights are (1, 0) and var_idx is the one
    variance row of every edge. rec_base, added to a gathered row, turns
    each id byte into its entry of the query's signed table and each
    weight code into its entry of w_tab (the decoded w_reg and
    sqrt(L)*w_res per code; None in compact mode), and leaves var_idx as
    it is. enorm_min is the smallest enorm in the store; when it is
    positive, no edge can have a zero norm. SimHash stores have no rec.
    """

    __slots__ = ("slots", "row", "enorm", "enorm_min", "rec", "rec_base", "w_tab", "var_idx")

    def __init__(self, slots, row, enorm, enorm_min, rec=None, rec_base=None, w_tab=None, var_idx=None):
        self.slots = slots
        self.row = row
        self.enorm = enorm
        self.enorm_min = enorm_min
        self.rec = rec
        self.rec_base = rec_base
        self.w_tab = w_tab
        self.var_idx = var_idx

    def __len__(self) -> int:
        return len(self.slots)


def batch_ar(block: EdgeMetaBlock, thr: tuple, qnorm: float, metric: Metric) -> np.ndarray:
    """A_r per edge v->u: u's key beats the worst key wk iff cos(e, q) > A_r; -inf at a zero |e|.

    thr is the hop's (wk, kv, row_v): the worst key, the popped node v's
    key and v's row term (HnswIndex._row). With u.q = v.q + |e||q|cos(e, q)
    and the keys of ordering_keys, A_r is
    (|u|^2 - |v|^2 + kv - wk) / (2|q||e|) on L2, (kv - wk) / (|q||e|) on IP,
    and ((1 - wk)|u| - (1 - kv)|v|) / |e| on angular.
    """
    wk, kv, row_v = thr
    if metric == Metric.L2:
        num, scale = block.row + (kv - row_v - wk), 2.0 * qnorm
    elif metric == Metric.ANGULAR:
        num, scale = (1.0 - wk) * block.row - (1.0 - kv) * row_v, 1.0
    else:
        num, scale = np.full(len(block), kv - wk), qnorm
    den = scale * block.enorm
    if scale * block.enorm_min > 0.0:  # then every den > 0
        return num / den
    out = np.full(len(block), -math.inf)
    ok = den > 0.0
    out[ok] = num[ok] / den[ok]
    return out


def batch_peos_test(
    block: EdgeMetaBlock,
    tbl: np.ndarray,
    qpt: QueryProjectionTable,
    thr: tuple,
    metric: Metric = Metric.L2,
) -> np.ndarray:
    """Vectorized gate for one popped node's edge block, at the hop's threshold thr (see batch_ar).

    Every edge's statistic is one gather from the query's signed table
    and one from the weight table, a row-sum over the L subspace entries
    and one multiply-add with the residual entry, compared with the table
    at its A_r column: A_r >= 1 reads the +inf column and fails. A_r <= -1
    passes whatever the statistic.
    """
    ar = batch_ar(block, thr, qpt.qnorm, metric)
    cols = x_columns(ar)
    r = block.rec.take(block.slots, axis=0) + block.rec_base
    if block.w_tab is None:
        h, row = qpt.table.take(r).sum(axis=1), block.var_idx
    else:
        n = r.shape[1] - 3  # the L+1 id columns
        g = qpt.table.take(r[:, :n])
        w = block.w_tab.take(r[:, n : n + 2])
        h, row = w[:, 0] * g[:, 1:].sum(axis=1) + w[:, 1] * g[:, 0], r[:, n + 2]
    return (h >= tbl[row, cols]) | (ar <= -1.0)


def batch_simhash_test(
    sketches: np.ndarray,
    qsketch: SimHashSketch,
    ar: np.ndarray,
    eps: float,
) -> np.ndarray:
    """Vectorized SimHash gate over the edges' sketch words (see sketch_words).

    The differing bits of each edge are the popcount of its words XOR the
    query's; an edge passes iff its A_r is at most the bound for that
    count. A_r <= 0 passes and A_r >= 1 fails through the bounds' clamp.
    """
    diff = np.bitwise_count(np.bitwise_xor(sketches, qsketch.words))
    if diff.ndim > 1:
        diff = diff.sum(axis=1, dtype=np.intp)
    return ar <= simhash_bounds(qsketch.n, eps).take(diff)
