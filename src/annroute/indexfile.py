"""Index files: the header, the routing header if a gate is attached, the
delta-coded base and upper layers, the edge records, and a blake2b
checksum. The vectors stay with the dataset; the file holds its fingerprint.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np

from .edgestore import EdgeMetaStore, RoutingAttachment, _norm_bits
from .errors import CorruptionError, FormatError, UsageError
from .hnsw import HnswIndex
from .projections import RNG_ID, generate_ensemble
from .routing import EdgeQuantizers, RoutingConfig, RoutingMode, ScalarQuantizer, generate_simhash_hashes
from .vecstore import Dataset, Metric, PermutationPlan

INDEX_MAGIC = b"PEOS"
INDEX_VERSION = 2

_METRIC_CODE = {Metric.L2: 0, Metric.ANGULAR: 1, Metric.IP: 2}
_METRIC_FROM = {v: k for k, v in _METRIC_CODE.items()}
_MODE_CODE = {RoutingMode.NONE: 0, RoutingMode.PEOS: 1, RoutingMode.RCEOS: 2, RoutingMode.SIMHASH: 3}
_MODE_FROM = {v: k for k, v in _MODE_CODE.items()}


def dataset_fingerprint(ds: Dataset) -> int:
    # the vectors are C-contiguous, so the hash reads their buffer in place
    return int.from_bytes(hashlib.blake2b(memoryview(ds.vectors), digest_size=8).digest(), "little")


def save_index(idx: HnswIndex, path) -> None:
    """Serialize graph, header, and edge metadata; vectors stay with the dataset.

    Each section is hashed and written from its own buffer, in file
    order, so the file is never assembled in memory.
    """
    parts: list = [INDEX_MAGIC, struct.pack("<I", INDEX_VERSION)]
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
        parts.append(att.plan.perm.astype("<u4"))
        parts.append(att.plan.subspace_of.astype("<u4"))

    parts.append(np.diff(idx.base_indptr).astype("<u4"))
    parts.append(_delta_encode(idx.base_indices, idx.base_indptr))
    parts.append(struct.pack("<I", idx.max_level))
    for lev in range(1, idx.max_level + 1):
        nodes = sorted(idx.upper.get(lev, {}).items())
        parts.append(struct.pack("<Q", len(nodes)))
        for v, row in nodes:
            parts.append(struct.pack("<QI", v, len(row)))
            parts.append(np.diff(np.asarray(row, dtype=np.int64), prepend=0).astype("<u4"))
    if att is not None:
        parts.append(struct.pack("<Q", att.store.n_edges))
        parts.append(att.store.wire_records())
    h = hashlib.blake2b(digest_size=8)
    with open(path, "wb") as f:
        for part in parts:
            h.update(part)
            f.write(part)
        f.write(h.digest())


def _delta_encode(indices: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Each neighbor id minus the one before it in its row; a row's first id is stored as is."""
    flat = indices.astype(np.int64)
    delta = np.diff(flat, prepend=0)
    starts = indptr[:-1][np.diff(indptr) > 0]
    delta[starts] = flat[starts]
    return delta.astype("<u4")


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


def load_index(path, dataset: Dataset | None = None) -> HnswIndex:
    """Reload an index; projections regenerate from the stored seed.

    When a dataset is supplied its content hash must match the one
    recorded at save time. The file is read once; the checksum and every
    section read views of that one buffer, and each array the index
    keeps is copied out of it once, so none of them holds the file.
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
        try:
            cfg = RoutingConfig(mode=mode, L=L, m=m, compact=bool(compact), simhash_bits=shbits)
        except UsageError as exc:
            raise FormatError(f"bad routing header: {exc}") from exc
        if L < 1 or d % L:
            raise FormatError(f"bad routing header: L={L} does not divide d={d}")
        rng_len = r.take("H")
        stored_rng_id = bytes(r.bytes(rng_len)).decode(errors="replace")
        if stored_rng_id != RNG_ID:
            # regenerated projections would not match the stored extreme ids
            raise FormatError(
                f"index built with RNG stream {stored_rng_id!r}, this build uses {RNG_ID!r}"
            )
        bits = _norm_bits(cfg.compact)
        quant = EdgeQuantizers(_checked_quantizer("half_u_sq", *r.take("ddB"), bits),
                               _checked_quantizer("enorm", *r.take("ddB"), bits))
        perm = r.array("<u4", d).astype(np.int64)
        sub_of = r.array("<u4", d).astype(np.int64)
        try:
            plan = PermutationPlan(perm, sub_of, L)
        except UsageError as exc:
            raise FormatError(f"bad permutation: {exc}") from exc

    indptr, indices = _read_base_layer(r, n, M)
    upper = {lev: _read_upper_level(r, n, lev) for lev in range(1, r.take("I") + 1)}

    if dataset is None:
        raise UsageError("load_index needs the dataset the index was built on")
    if dataset.n != n or dataset.dim != d:
        raise FormatError("dataset shape does not match index header")
    if dataset_fingerprint(dataset) != ds_hash:
        raise FormatError("dataset content does not match index fingerprint")

    idx = HnswIndex(
        dataset=dataset, metric=metric, M=M, efc=efc, seed=seed, entry=int(entry), max_level=int(max_level),
        base_indptr=indptr, base_indices=indices, upper=upper,
    )
    if mode != RoutingMode.NONE:
        n_edges = r.take("Q")
        if n_edges != int(indptr[-1]):
            raise FormatError("edge metadata count does not match adjacency")
        # the records fill the rest of the payload; from_wire checks their count and width
        store = EdgeMetaStore.from_wire(r.buf[r.pos :], idx, mode, L, m, cfg.compact, shbits, quant)
        ens = None
        hashes = None
        if mode == RoutingMode.SIMHASH:
            hashes = generate_simhash_hashes(rt_seed, d, shbits)
        else:
            ens = generate_ensemble(rt_seed, d, L, m)
        idx.routing = RoutingAttachment(mode=mode, cfg=cfg, seed=rt_seed, plan=plan,
                                        store=store, ens=ens, hashes=hashes)
    elif r.pos != len(payload):
        raise FormatError(f"{len(payload) - r.pos} bytes after the last section")
    return idx


def _checked_quantizer(name: str, lo: float, hi: float, bits: int, want_bits: int) -> ScalarQuantizer:
    # both quantizers hold norms, so a valid range is ordered and non-negative, and
    # decode's code * (hi - lo) stays finite up to the top code
    if bits != want_bits:
        raise FormatError(f"{name} quantizer has {bits} bits, expected {want_bits}")
    quant = ScalarQuantizer(lo, hi, bits)
    if not (math.isfinite(lo) and math.isfinite(quant.levels * (hi - lo))) or lo < 0.0 or hi < lo:
        raise FormatError(f"bad {name} quantizer range [{lo}, {hi}]")
    return quant


def _read_base_layer(r: _Reader, n: int, M: int) -> tuple[np.ndarray, np.ndarray]:
    """The base layer's CSR pair: int64 row offsets and int32 neighbor ids."""
    degs = r.array("<u4", n).astype(np.int64)
    if degs.size and degs.max() > 2 * M:
        raise FormatError(f"a base-layer degree exceeds 2M={2 * M}")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degs, out=indptr[1:])
    ids = _delta_decode(r.array("<u4", int(indptr[-1])).astype(np.int64), indptr[:-1][degs > 0])
    if ids.size and ids.max() >= n:
        raise FormatError("a base-layer neighbor id is out of range")
    return indptr, ids.astype(np.int32)


_NODE_HEAD = struct.Struct("<QI")  # an upper-layer node's id and degree; its delta-coded row follows


def _read_upper_level(r: _Reader, n: int, lev: int) -> dict[int, np.ndarray]:
    """One upper level: the node headers are walked in Python, then every row decodes in one pass."""
    count = r.take("Q")
    start = pos = r.pos
    nodes, degs, at = [], [], []
    try:
        for _ in range(count):
            v, deg = _NODE_HEAD.unpack_from(r.buf, pos)
            pos += _NODE_HEAD.size
            nodes.append(v)
            degs.append(deg)
            at.append(pos)
            pos += 4 * deg
    except struct.error as exc:
        raise FormatError("index file truncated") from exc
    words = r.array("<u4", (pos - start) // 4)  # headers and rows alike are whole words
    in_row = np.ones(words.size, dtype=bool)
    # a header is the three words before its row: id low, id high, degree
    in_row[(np.asarray(at, dtype=np.int64)[:, None] - start) // 4 - (1, 2, 3)] = False
    degs = np.asarray(degs, dtype=np.int64)
    bounds = np.zeros(degs.size + 1, dtype=np.int64)
    np.cumsum(degs, out=bounds[1:])
    ids = _delta_decode(words[in_row].astype(np.int64), bounds[:-1][degs > 0])
    if (nodes and max(nodes) >= n) or (ids.size and ids.max() >= n):
        raise FormatError(f"an upper-layer id at level {lev} is out of range")
    ids = ids.astype(np.int32)  # each row is a slice of this one array
    return {v: ids[a:b] for v, a, b in zip(nodes, bounds[:-1].tolist(), bounds[1:].tolist())}


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
