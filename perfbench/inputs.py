"""Benchmark inputs made apart from the program under test.

The corpus recipe matches the desk set (isotropic Gaussians in a random
32-dimensional subspace of R^128 plus 0.1 ambient noise), but every
number here comes from this file's own generator, fvecs writer and
exhaustive float64 search, so a change to annroute's synthetic corpus,
brute-force oracle or recall can move neither a workload nor its
answer key.
"""

from __future__ import annotations

import glob
import hashlib
import inspect
import os
import time
from dataclasses import dataclass

import numpy as np

INTRINSIC_DIM = 32
AMBIENT_NOISE = 0.1
DIM = 128
DESK_FAMILY, BUILD_FAMILY = 0, 1  # corpora of different workloads never share a stream
DESK_SEED = 7  # the desk corpus is fixed; run seeds vary its queries
DESK_N = 50_000
DESK_M, DESK_EFC = 32, 120
BUILD_M, BUILD_EFC = 32, 120

_BASIS, _BASE, _QUERY = 0, 1, 2  # independent streams of one corpus


def _stream(family: int, corpus_seed: int, kind: int, run_seed: int = 0) -> np.random.Generator:
    key = [family, corpus_seed, kind, run_seed]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def _draw(gen: np.random.Generator, basis: np.ndarray, count: int) -> np.ndarray:
    pts = gen.standard_normal((count, basis.shape[1])) @ basis.T
    pts += AMBIENT_NOISE * gen.standard_normal((count, basis.shape[0]))
    return pts.astype(np.float32)


def corpus(corpus_seed: int, n: int, family: int = DESK_FAMILY,
           d: int = DIM) -> tuple[np.ndarray, np.ndarray]:
    """The corpus basis and its n float32 base vectors."""
    gen = _stream(family, corpus_seed, _BASIS)
    basis = np.linalg.qr(gen.standard_normal((d, INTRINSIC_DIM)))[0]
    return basis, _draw(_stream(family, corpus_seed, _BASE), basis, n)


def queries(corpus_seed: int, basis: np.ndarray, count: int, run_seed: int,
            family: int = DESK_FAMILY) -> np.ndarray:
    """Queries from the corpus distribution, drawn from a stream keyed by the run seed."""
    return _draw(_stream(family, corpus_seed, _QUERY, run_seed), basis, count)


def write_fvecs(vectors: np.ndarray, path: str) -> None:
    """fvecs: per record an int32 little-endian dimension, then d float32 little-endian."""
    n, d = vectors.shape
    rec = np.empty((n, 1 + d), dtype="<i4")
    rec[:, 0] = d
    rec[:, 1:] = np.ascontiguousarray(vectors, dtype="<f4").view("<i4")
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "wb") as f:
        f.write(rec.tobytes())
    os.replace(tmp, path)


def sq_dists(base: np.ndarray, q: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Exact squared L2 distances in float64 from differences, not the dot-product expansion."""
    diff = base[ids].astype(np.float64) - np.asarray(q, dtype=np.float64)
    return np.einsum("ij,ij->i", diff, diff)


def exact_topk(base: np.ndarray, qs: np.ndarray, K: int, margin: int = 64) -> np.ndarray:
    """True top-K ids per query, ascending by distance, ties to the lower id.

    A float64 dot-product scan picks K + margin candidates; their exact
    distances decide the order, so expansion rounding cannot reorder them.
    """
    X = base.astype(np.float64)
    sqn = np.einsum("ij,ij->i", X, X)
    c = min(K + margin, X.shape[0])
    out = np.empty((len(qs), K), dtype=np.int64)
    for i, q in enumerate(np.asarray(qs, dtype=np.float64)):
        keys = sqn - 2.0 * (X @ q)
        cand = np.argpartition(keys, c - 1)[:c] if c < X.shape[0] else np.arange(X.shape[0])
        d = sq_dists(base, q, cand)
        out[i] = cand[np.lexsort((cand, d))][:K]
    return out


# ---------------------------------------------------------------------------
# The desk graph cache
# ---------------------------------------------------------------------------


def build_code_tag(ar) -> str:
    """Hash of the source files that build, write and read a graph."""
    files = sorted({inspect.getsourcefile(f) for f in
                    (ar.build_hnsw, ar.save_index, ar.load_index, ar.Dataset, ar.load_fvecs)})
    h = hashlib.blake2b(digest_size=6)
    for path in files:
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


@dataclass(frozen=True)
class Desk:
    basis: np.ndarray
    base: np.ndarray
    fvecs: str
    graph: str


def prepare_desk(ar, cache_dir: str, log) -> Desk:
    """The desk vectors on disk and the cached desk graph, built first if this code has none.

    Every run calls this before anything is timed, so the one slow build
    falls in the first run in a checkout, whichever workload that is.
    """
    basis, base = corpus(DESK_SEED, DESK_N)
    fvecs = os.path.join(cache_dir, f"desk-{DESK_N}x{DIM}-s{DESK_SEED}.fvecs")
    write_fvecs(base, fvecs)
    data_tag = hashlib.blake2b(base.tobytes(), digest_size=6).hexdigest()
    key = f"desk-{DESK_N}x{DIM}-M{DESK_M}-efc{DESK_EFC}-s{DESK_SEED}-{data_tag}-{build_code_tag(ar)}"
    path = os.path.join(cache_dir, key + ".idx")
    if not os.path.exists(path):
        for old in glob.glob(os.path.join(cache_dir, "desk-*.idx")):  # graphs of other code
            os.unlink(old)
        t0 = time.perf_counter()
        idx = ar.build_hnsw(ar.load_fvecs(fvecs), DESK_M, DESK_EFC, ar.Metric.L2, DESK_SEED)
        tmp = f"{path}.{os.getpid()}.tmp"
        ar.save_index(idx, tmp)
        os.replace(tmp, path)
        log(f"built desk graph {os.path.basename(path)} in {time.perf_counter() - t0:.1f} s")
    return Desk(basis, base, fvecs, path)
