"""Index files, format 3: the header, the routing header if a gate is
attached, every graph level in one delta-coded layout, the edge records,
and a blake2b checksum. The vectors stay with the dataset; the file holds
its fingerprint.

Each fact is written once, and nothing load can derive is written: the
record count is the base layer's edge count, and the permutation's
subspaces follow from perm and L.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np

from .edgestore import EdgeMetaStore, RoutingAttachment, _norm_bits
from .errors import CorruptionError, FormatError, UsageError
from .hnsw import HnswIndex
from .projections import RNG_ID
from .routing import RoutingConfig, RoutingMode, ScalarQuantizer
from .vecstore import Dataset, Metric, PermutationPlan

INDEX_MAGIC = b"PEOS"
INDEX_VERSION = 3

_METRIC_CODE = {Metric.L2: 0, Metric.ANGULAR: 1, Metric.IP: 2}
_METRIC_FROM = {v: k for k, v in _METRIC_CODE.items()}
_MODE_CODE = {RoutingMode.NONE: 0, RoutingMode.PEOS: 1, RoutingMode.SIMHASH: 3}
_MODE_FROM = {v: k for k, v in _MODE_CODE.items()} | {2: RoutingMode.RCEOS}  # older files' rceos: peos at L=1


def dataset_fingerprint(ds: Dataset) -> int:
    # the vectors are C-contiguous, so the hash reads their buffer in place
    return int.from_bytes(hashlib.blake2b(memoryview(ds.vectors), digest_size=8).digest(), "little")


def save_index(idx: HnswIndex, path) -> None:
    """Serialize graph, header, and edge metadata; vectors stay with the dataset.

    Each section is hashed and written from its own buffer, in file
    order, so the file is never assembled in memory. A graph that load
    would refuse (an entry point or id outside [0, n), a degree above 2M
    on the base layer or M above it, a row that is not strictly
    ascending) raises UsageError before the file is opened.
    """
    parts: list = [INDEX_MAGIC, struct.pack("<I", INDEX_VERSION)]
    att = idx.routing
    parts.append(struct.pack(
        "<BIQIIQQIQ",
        _METRIC_CODE[idx.metric], idx.dim, idx.n, idx.M, idx.efc,
        idx.seed, idx.entry, idx.max_level, dataset_fingerprint(idx.dataset),
    ))
    parts.append(struct.pack("<B", _MODE_CODE[att.cfg.mode if att else RoutingMode.NONE]))
    if att is not None:
        cfg = att.cfg
        parts.append(struct.pack("<IIBIQ", cfg.L, cfg.m, int(cfg.compact), cfg.simhash_bits, att.seed))
        rng_id = RNG_ID.encode()
        parts.append(struct.pack("<H", len(rng_id)) + rng_id)
        q = att.store.quant
        parts.append(struct.pack("<ddB", q.lo, q.hi, q.bits))
        parts.append(att.plan.perm.astype("<u4"))

    if idx.entry >= idx.n:
        raise UsageError(f"entry point {idx.entry} is not a node of a {idx.n}-node graph")
    parts += _level_parts(idx.base_indptr, idx.base_indices, 2 * idx.M, idx.n, 0)
    for lev in range(1, idx.max_level + 1):
        nodes = sorted(idx.upper.get(lev, {}).items())
        if nodes and not (nodes[0][0] >= 0 and nodes[-1][0] < idx.n):
            raise UsageError(f"a level-{lev} node id is outside [0, {idx.n})")
        rows = [np.asarray(row, dtype=np.int64) for _, row in nodes]
        parts.append(struct.pack("<Q", len(nodes)))
        parts.append(np.array([v for v, _ in nodes], dtype="<u4"))
        indptr = np.cumsum([0] + [row.size for row in rows], dtype=np.int64)
        parts += _level_parts(indptr, np.concatenate([np.zeros(0, dtype=np.int64), *rows]), idx.M, idx.n, lev)
    if att is not None:
        parts.append(att.store.wire_records())
    h = hashlib.blake2b(digest_size=8)
    with open(path, "wb") as f:
        for part in parts:
            h.update(part)
            f.write(part)
        f.write(h.digest())


def _level_parts(indptr: np.ndarray, indices: np.ndarray, max_deg: int, n: int, lev: int) -> list[np.ndarray]:
    """One level's rows as written: every degree, then every row delta-coded.

    The rows are checked first against what _read_level accepts, so save
    refuses a graph that load would refuse.
    """
    degs = np.diff(indptr)
    delta, starts = _delta_encode(indices, indptr)
    _check_level(degs, indices, delta, starts, max_deg, n, lev)
    return [degs.astype("<u4"), delta.astype("<u4")]


def _check_level(degs: np.ndarray, indices: np.ndarray, delta: np.ndarray, starts: np.ndarray,
                 max_deg: int, n: int, lev: int) -> None:
    """Refuse a level that has a degree above max_deg, an id outside [0, n), or a row that is
    not strictly ascending: every step after a row's first id must be at least 1."""
    if degs.size and degs.max() > max_deg:
        raise UsageError(f"a level-{lev} degree exceeds {max_deg}")
    if indices.size and not 0 <= indices.min() <= indices.max() < n:
        raise UsageError(f"a level-{lev} neighbor id is outside [0, {n})")
    if np.count_nonzero(delta < 1) != np.count_nonzero(delta[starts] < 1):
        raise UsageError(f"a level-{lev} neighbor list is not strictly ascending")


def _delta_encode(indices: np.ndarray, indptr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each neighbor id minus the one before it in its row, as int64; a row's first id is
    stored as is. Also returns the offsets of the non-empty rows, where those first ids sit."""
    flat = indices.astype(np.int64)
    delta = np.diff(flat, prepend=0)
    starts = indptr[:-1][np.diff(indptr) > 0]
    delta[starts] = flat[starts]
    return delta, starts


class _Reader:
    """Fields, byte slices and array views of one buffer; nothing is copied."""

    def __init__(self, buf: memoryview):
        self.buf = buf
        self.pos = 0

    def take(self, fmt: str):
        try:
            vals = struct.unpack_from("<" + fmt, self.buf, self.pos)
        except struct.error as exc:
            raise FormatError("index file truncated") from exc
        self.pos += struct.calcsize("<" + fmt)
        return vals if len(vals) > 1 else vals[0]

    def bytes(self, count: int) -> memoryview:
        out = self.buf[self.pos : self.pos + count]
        if len(out) != count:
            raise FormatError("index file truncated")
        self.pos += count
        return out

    def array(self, dtype: str, count: int) -> np.ndarray:
        return np.frombuffer(self.bytes(count * np.dtype(dtype).itemsize), dtype=dtype)


def load_index(path, dataset: Dataset) -> HnswIndex:
    """Reload an index over dataset, the vectors it was built on; the attachment
    derives its projections or hyperplanes from the stored seed.

    The dataset's content hash must match the one recorded at save time.
    The file is read once; the checksum and every section read views of
    that one buffer, and each array the index keeps is copied out of it
    once, so none of them holds the file.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 16 or raw[:4] != INDEX_MAGIC:
        raise FormatError("not an index file (bad magic)")
    payload = memoryview(raw)[:-8]
    if hashlib.blake2b(payload, digest_size=8).digest() != raw[-8:]:
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
    if mode is None:
        raise FormatError("unknown routing mode")
    if mode != RoutingMode.NONE:
        L, m, compact, shbits, rt_seed = r.take("IIBIQ")
        if compact > 1:
            raise FormatError(f"bad routing header: compact flag {compact}")
        try:
            cfg = RoutingConfig(mode=mode, L=L, m=m, compact=bool(compact), simhash_bits=shbits)
        except UsageError as exc:
            raise FormatError(f"bad routing header: {exc}") from exc
        rng_len = r.take("H")
        stored_rng_id = bytes(r.bytes(rng_len)).decode(errors="replace")
        if stored_rng_id != RNG_ID:
            # regenerated projections would not match the stored extreme ids
            raise FormatError(
                f"index built with RNG stream {stored_rng_id!r}, this build uses {RNG_ID!r}"
            )
        enorm = _checked_enorm(*r.take("ddB"), _norm_bits(cfg.compact))
        try:
            plan = PermutationPlan(r.array("<u4", d).astype(np.int64), cfg.L)
        except UsageError as exc:
            raise FormatError(f"bad permutation: {exc}") from exc
        if cfg.mode == RoutingMode.SIMHASH:  # an older attach wrote a plan that SimHash never read
            plan = PermutationPlan.identity(d, 1)

    indptr, indices = _read_level(r, n, 2 * M, n)
    upper = {}
    for lev in range(1, max_level + 1):
        nodes = r.array("<u4", r.take("Q"))
        if nodes.size and (nodes[-1] >= n or np.any(nodes[1:] <= nodes[:-1])):
            raise FormatError(f"the level-{lev} node list is not ascending ids below n")
        bounds, ids = _read_level(r, nodes.size, M, n)
        bounds = bounds.tolist()
        upper[lev] = {v: ids[a:b] for v, a, b in zip(nodes.tolist(), bounds[:-1], bounds[1:])}

    if dataset.n != n or dataset.dim != d:
        raise FormatError("dataset shape does not match index header")
    if dataset_fingerprint(dataset) != ds_hash:
        raise FormatError("dataset content does not match index fingerprint")

    idx = HnswIndex(
        dataset=dataset, metric=metric, M=M, efc=efc, seed=seed, entry=int(entry), max_level=int(max_level),
        base_indptr=indptr, base_indices=indices, upper=upper,
    )
    if mode != RoutingMode.NONE:
        # the records fill the rest of the payload; from_wire checks their count and width
        store = EdgeMetaStore.from_wire(r.buf[r.pos :], idx, cfg, enorm)
        idx.routing = RoutingAttachment(cfg=cfg, seed=rt_seed, plan=plan, store=store)
    elif r.pos != len(payload):
        raise FormatError(f"{len(payload) - r.pos} bytes after the last section")
    return idx


def _checked_enorm(lo: float, hi: float, bits: int, want_bits: int) -> ScalarQuantizer:
    # the quantizer holds norms, so a valid range is ordered and non-negative, and
    # decode's code * (hi - lo) stays finite up to the top code
    if bits != want_bits:
        raise FormatError(f"edge-norm quantizer has {bits} bits, expected {want_bits}")
    quant = ScalarQuantizer(lo, hi, bits)
    if not (math.isfinite(lo) and math.isfinite(quant.levels * (hi - lo))) or lo < 0.0 or hi < lo:
        raise FormatError(f"bad edge-norm quantizer range [{lo}, {hi}]")
    return quant


def _read_level(r: _Reader, count: int, max_deg: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The CSR pair of a level of count rows, each of at most max_deg ids below n:
    int64 row offsets and int32 neighbor ids.

    Every row is strictly ascending: each step after a row's first id is
    at least 1, so a zero delta is refused unless it is a row's first id 0.
    """
    degs = r.array("<u4", count).astype(np.int64)
    if degs.size and degs.max() > max_deg:
        raise FormatError(f"a degree exceeds {max_deg}")
    indptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(degs, out=indptr[1:])
    deltas = r.array("<u4", int(indptr[-1]))
    starts = indptr[:-1][degs > 0]
    if np.count_nonzero(deltas == 0) != np.count_nonzero(deltas[starts] == 0):
        raise FormatError("a neighbor list repeats an id")
    ids = _delta_decode(deltas.astype(np.int64), starts)
    if ids.size and ids.max() >= n:
        raise FormatError("a neighbor id is out of range")
    return indptr, ids.astype(np.int32)


def _delta_decode(ids: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Decode int64 deltas in place into ids; starts are the offsets of the non-empty rows.

    A row stores its first id as is and every other id as the step from
    the one before. Each row's first entry becomes its first id minus the
    last id of the row before, which is that row's delta sum, so one
    running sum over all rows gives every id. The sums are exact in
    int64, nothing wraps, so the caller's range check sees each id as its
    row's delta sum.
    """
    if ids.size:
        last = np.add.reduceat(ids, starts)
        ids[starts[1:]] -= last[:-1]
        np.cumsum(ids, out=ids)
    return ids
