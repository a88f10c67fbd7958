"""Dataset ingestion, distance metrics, and the dimension permutation planner.

Vectors are stored row-major as float32 (the on-disk fvecs precision);
all arithmetic runs in float64. The IP metric is represented as the
negated inner product so that every metric shares one "smaller is
better" ordering contract.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateInputError, FormatError, UsageError

_VEC_SPAN = 1 << 12  # fvecs/ivecs records read, or dataset rows checked, at a time


class Metric(str, Enum):
    L2 = "l2"
    ANGULAR = "angular"
    IP = "ip"


@dataclass
class Dataset:
    """An immutable n x d matrix of finite float32 vectors with implicit ids 0..n-1."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.vectors, dtype=np.float32)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise UsageError("dataset must be a non-empty 2-D array")
        # a span of rows at a time, so the check's mask is never the size of the matrix
        if not all(np.isfinite(v[lo : lo + _VEC_SPAN]).all() for lo in range(0, v.shape[0], _VEC_SPAN)):
            raise FormatError("dataset contains non-finite components")
        v.flags.writeable = False
        self.vectors = v

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def load_fvecs(path: str | os.PathLike) -> Dataset:
    """Load an fvecs file: per record, an int32 LE dimension prefix then d float32 LE."""
    return Dataset(_load_vecs(path, np.float32))


def save_fvecs(ds: Dataset | np.ndarray, path: str | os.PathLike) -> None:
    vectors = ds.vectors if isinstance(ds, Dataset) else np.asarray(ds, dtype=np.float32)
    _save_vecs(vectors.astype(np.float32, copy=False), path)


def load_ivecs(path: str | os.PathLike) -> np.ndarray:
    """Load an ivecs file (ground-truth neighbor id lists) as an int32 matrix."""
    return _load_vecs(path, np.int32)


def save_ivecs(ids: np.ndarray, path: str | os.PathLike) -> None:
    _save_vecs(np.asarray(ids, dtype=np.int32), path)


def _load_vecs(path, payload_dtype):
    """Read the records _VEC_SPAN at a time into one (n, d) array, checking each span's prefixes."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(4)
        if len(head) < 4:
            raise OSError(f"{path}: truncated file (no dimension prefix)")
        d = int(np.frombuffer(head, dtype="<i4")[0])
        if d < 1:
            raise FormatError(f"{path}: non-positive dimension prefix {d}")
        rec = 4 * (1 + d)
        if size % rec != 0:
            raise OSError(f"{path}: truncated file ({size} bytes, record size {rec})")
        n = size // rec
        out = np.empty((n, d), dtype=payload_dtype)
        span = np.empty((min(n, _VEC_SPAN), 1 + d), dtype="<i4")
        f.seek(0)
        for lo in range(0, n, _VEC_SPAN):
            rows = span[: min(_VEC_SPAN, n - lo)]
            if f.readinto(memoryview(rows).cast("B")) != rows.nbytes:
                raise OSError(f"{path}: truncated file (shorter than its {size} bytes)")
            if not np.all(rows[:, 0] == d):
                raise FormatError(f"{path}: inconsistent dimension prefixes")
            out[lo : lo + rows.shape[0]] = rows[:, 1:].view(np.dtype(payload_dtype).newbyteorder("<"))
    return out


def _save_vecs(mat: np.ndarray, path) -> None:
    if mat.ndim != 2 or mat.shape[1] < 1:
        raise UsageError("expected a non-empty 2-D array")
    n, d = mat.shape
    out = np.empty((n, 1 + d), dtype="<i4")
    out[:, 0] = d
    out[:, 1:] = mat.astype(mat.dtype.newbyteorder("<"), copy=False).view("<i4")
    with open(path, "wb") as f:
        f.write(out.tobytes())


def distance(a: np.ndarray, b: np.ndarray, metric: Metric) -> float:
    """Distance under the shared ordering contract: L2, 1 - cos, or -a.b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise UsageError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if metric == Metric.L2:
        return float(np.sqrt(np.sum((a - b) ** 2)))
    if metric == Metric.ANGULAR:
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na == 0.0 or nb == 0.0:
            raise DegenerateInputError("angular distance undefined for zero vectors")
        return float(1.0 - np.dot(a, b) / (na * nb))
    return float(-np.dot(a, b))


def normalize(q: np.ndarray) -> np.ndarray:
    """Unit-norm copy of q; rejects the zero vector."""
    q = np.asarray(q, dtype=np.float64)
    n = np.linalg.norm(q)
    if n == 0.0:
        raise DegenerateInputError("cannot normalize the zero vector")
    return q / n


@dataclass(frozen=True)
class PermutationPlan:
    """Bijection on dimensions grouping them into L equal-size subspace blocks.

    ``perm[k]`` is the original dimension placed at permuted position k;
    block i (0-based) occupies permuted positions [i*d/L, (i+1)*d/L), so
    dimension perm[k] belongs to subspace k // (d/L) + 1.
    """

    perm: np.ndarray
    L: int

    def __post_init__(self):
        perm = np.asarray(self.perm, dtype=np.int64)
        d = perm.shape[0]
        if self.L < 1 or d % self.L != 0:
            raise UsageError("dimension count must divide evenly into L subspaces")
        if not np.array_equal(np.sort(perm), np.arange(d)):
            raise UsageError("perm is not a bijection on dimensions")
        perm.flags.writeable = False
        object.__setattr__(self, "perm", perm)

    @property
    def dim(self) -> int:
        return self.perm.shape[0]

    @classmethod
    def identity(cls, d: int, L: int) -> "PermutationPlan":
        if L < 1 or d % L != 0:
            raise UsageError(f"d={d} not divisible by L={L}")
        return cls(np.arange(d), L)


def build_permutation(avgs: np.ndarray, L: int) -> PermutationPlan:
    """Greedy balanced allocation of dimensions to L subspaces.

    Dimensions are sorted ascending by their mean squared coordinate and
    handed out in d/L rounds of L; within a round each dimension goes to
    the not-yet-served set with the greatest current sum. Ties break to
    the lowest set index (and the sort breaks ties by lowest dimension
    id) so the plan is reproducible.
    """
    avgs = np.asarray(avgs, dtype=np.float64)
    d = avgs.shape[0]
    if L < 1 or d % L != 0:
        raise UsageError(f"d={d} not divisible by L={L}")
    order = np.argsort(avgs, kind="stable")
    sums = np.zeros(L)
    sets: list[list[int]] = [[] for _ in range(L)]
    for rnd in range(d // L):
        served = np.zeros(L, dtype=bool)
        for dim in order[rnd * L : (rnd + 1) * L]:
            masked = np.where(served, -np.inf, sums)
            i = int(np.argmax(masked))
            sets[i].append(int(dim))
            sums[i] += avgs[dim]
            served[i] = True
    perm = np.concatenate([np.sort(np.asarray(s, dtype=np.int64)) for s in sets])
    return PermutationPlan(perm, L)


def apply_permutation(x: np.ndarray, plan: PermutationPlan) -> np.ndarray:
    """Reorder coordinates so each subspace block is contiguous."""
    x = np.asarray(x)
    if x.shape[-1] != plan.dim:
        raise UsageError(f"vector dim {x.shape[-1]} does not match plan dim {plan.dim}")
    return x[..., plan.perm]
