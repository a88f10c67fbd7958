"""Fuzzed index files: only AnnRouteError may escape load_index, a search after it,
or an attach on the loaded graph.

Every edit below is resealed with a fresh checksum, so the file reaches
the validation and the decoding that follow the checksum test.
"""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from annroute import (
    AnnRouteError,
    FormatError,
    Metric,
    RoutingConfig,
    RoutingMode,
    SearchParams,
    attach,
    build_hnsw,
    load_index,
    save_fvecs,
    save_index,
    search,
    synthetic_dataset,
)
from annroute.cli import main
import annroute.edgestore as edgestore
from annroute.projections import RNG_ID

CONFIGS = {
    "peos": RoutingConfig(mode=RoutingMode.PEOS, eps=0.2, L=4, m=16),
    "compact": RoutingConfig(mode=RoutingMode.PEOS, eps=0.2, L=4, m=16, compact=True),
    "simhash": RoutingConfig(mode=RoutingMode.SIMHASH, eps=0.2, simhash_bits=32),
}

# the edge-norm quantizer (lo, hi, bits), see save_index
_HEADER = struct.calcsize("<4sIBIQIIQQIQB")
_QUANT_AT = _HEADER + struct.calcsize("<IIBIQH") + len(RNG_ID)
_QUANT_LEN = struct.calcsize("<ddB")


def _sections(idx, size: int) -> dict:
    """(start, length) of each section of the payload of a saved index, see save_index."""
    att = idx.routing
    deg_at = _HEADER if att is None else _QUANT_AT + _QUANT_LEN + 4 * idx.dim  # after perm
    delta_at = deg_at + 4 * idx.n
    upper_at = delta_at + 4 * idx.n_base_edges
    tail = 0 if att is None else att.store.wire_records().nbytes  # the records end the payload
    out = {"degrees": (deg_at, 4 * idx.n), "deltas": (delta_at, 4 * idx.n_base_edges),
           "upper": (upper_at, size - tail - upper_at)}
    if att is not None:
        out.update(records=(size - tail, tail), quantizers=(_QUANT_AT, _QUANT_LEN))
    return out


def _section(payload: bytes, at: tuple) -> bytes:
    return payload[at[0] : at[0] + at[1]]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Per mode, and for the graph with no gate: the payload of a saved file and its sections."""
    ds, queries = synthetic_dataset(300, 16, 3, seed=5)
    idx = build_hnsw(ds, M=4, efc=20, metric=Metric.L2, seed=5)
    work = tmp_path_factory.mktemp("fuzz")
    out = {}
    for name, cfg in {"none": RoutingConfig(), **CONFIGS}.items():
        path = work / f"{name}.idx"
        routed = attach(idx, cfg)
        save_index(routed, path)
        payload = path.read_bytes()[:-8]
        sections = _sections(routed, len(payload))
        # the offsets must hit their own fields, or an edit lands in the wrong one
        assert _section(payload, sections["degrees"]) == np.diff(idx.base_indptr).astype("<u4").tobytes()
        assert _section(payload, sections["upper"])[:8] == struct.pack("<Q", len(idx.upper[1]))
        if routed.routing is not None:
            q = routed.routing.store.quant
            assert _section(payload, sections["quantizers"]) == struct.pack("<ddB", q.lo, q.hi, q.bits)
            assert _section(payload, sections["records"]) == routed.routing.store.wire_records().tobytes()
        out[name] = (payload, sections)
    return ds, queries, work / "edited.idx", out


def _write(path, payload: bytes) -> None:
    path.write_bytes(payload + hashlib.blake2b(payload, digest_size=8).digest())


def _load_and_search(ds, queries, path, cfg) -> None:
    try:
        idx = load_index(path, ds)
        for q in queries:
            search(idx, q, SearchParams(K=5, efs=20, routing=cfg))
    except AnnRouteError:
        pass


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(list(CONFIGS)), section=st.sampled_from(["records", "quantizers"]),
       edits=st.lists(st.tuples(st.integers(0, 1 << 30), st.integers(0, 255)), min_size=1, max_size=8))
def test_random_byte_edits(files, name, section, edits):
    ds, queries, path, saved = files
    payload, sections = saved[name]
    raw = bytearray(payload)
    lo, size = sections[section]
    for pos, value in edits:
        raw[lo + pos % size] = value
    _write(path, bytes(raw))
    _load_and_search(ds, queries, path, CONFIGS[name])


def _attach_direct(idx, cfg):
    """attach with every edge's record computed from its own residual, none derived from its reverse."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(edgestore, "_reverse_pairs", lambda n, src, dst: (np.arange(src.size), src[:0], src[:0]))
        return attach(idx, cfg)


def _edit_words(path, payload: bytes, at: tuple, edits) -> None:
    """Overwrite 4-byte words of a section: every field of the adjacency sections is a multiple of 4 bytes."""
    words = np.frombuffer(payload, dtype="<u4", count=at[1] // 4, offset=at[0]).copy()
    for pos, value in edits:
        words[pos % words.size] = value
    _write(path, payload[: at[0]] + words.tobytes() + payload[at[0] + at[1] :])


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(["none", *CONFIGS]), section=st.sampled_from(["degrees", "deltas", "upper"]),
       edits=st.lists(st.tuples(st.integers(0, 1 << 30), st.integers(0, 8) | st.integers(0, (1 << 32) - 1)),
                      min_size=1, max_size=3))
def test_adjacency_edits(files, name, section, edits):
    """Edited base degrees, neighbor deltas or upper-layer rows: a graph that loads takes every gate.

    Deltas are unsigned and load refuses a zero step inside a row, so a
    loaded row is strictly ascending, but it may hold a self-loop. An attach that succeeds must write the records of
    computing every edge directly, in a file that loads back to them.
    """
    ds, queries, path, saved = files
    payload, sections = saved[name]
    _edit_words(path, payload, sections[section], edits)
    try:
        idx = load_index(path, ds)
    except AnnRouteError:
        return
    for cfg in CONFIGS.values():
        try:
            routed = attach(idx, cfg)
            for q in queries:
                search(routed, q, SearchParams(K=5, efs=20, routing=cfg))
        except AnnRouteError:
            continue
        wire = routed.routing.store.wire_records().tobytes()
        assert wire == _attach_direct(idx, cfg).routing.store.wire_records().tobytes()
        save_index(routed, path)
        loaded = load_index(path, ds)
        np.testing.assert_array_equal(loaded.base_indices, routed.base_indices)
        assert loaded.routing.store.wire_records().tobytes() == wire


def test_cli_bad_neighbor_delta_exits_2(files, tmp_path, capsys):
    """A neighbor id beyond n, resealed: attach on the command line reports a format error."""
    ds, _, path, saved = files
    payload, sections = saved["none"]
    _edit_words(path, payload, sections["deltas"], [(0, (1 << 32) - 1)])
    base, out = tmp_path / "base.fvecs", tmp_path / "out.idx"
    save_fvecs(ds, base)
    code = main(["attach", "--base", str(base), "--index", str(path), "--routing", "peos",
                 "--L", "4", "--m-proj", "16", "--out", str(out)])
    assert code == 2 and "format error" in capsys.readouterr().err
    assert not out.exists()


def test_cli_overflowing_quantizer_exits_2(files, tmp_path, capsys):
    """An edge-norm range whose top codes decode to inf, resealed: search on the command line reports a format error."""
    ds, queries, path, saved = files
    payload, sections = saved["peos"]
    raw = bytearray(payload)
    struct.pack_into("<d", raw, sections["quantizers"][0] + 8, 1.7e308)  # enorm hi
    _write(path, bytes(raw))
    base, qpath = tmp_path / "base.fvecs", tmp_path / "q.fvecs"
    save_fvecs(ds, base)
    save_fvecs(queries, qpath)
    code = main(["search", "--base", str(base), "--index", str(path), "--query", str(qpath), "--routing", "peos",
                 "--K", "5", "--efs", "20"])
    assert code == 2 and "format error" in capsys.readouterr().err


@pytest.mark.parametrize("name,column", [("peos", 1), ("peos", 0), ("compact", 0)])
@pytest.mark.parametrize("byte,valid", [
    (16, True), (17, False), (128, False), (129, True), (144, True), (145, False), (255, False),
])
def test_id_byte_beyond_m(files, name, column, byte, valid):
    """Byte b holds id +b for b <= 128 and id 128-b above; with m=16 only |id| <= 16 is valid."""
    ds, queries, path, saved = files
    payload, sections = saved[name]
    raw = bytearray(payload)
    raw[sections["records"][0] + column] = byte  # an id byte of the first edge's record
    _write(path, bytes(raw))
    if valid:
        idx = load_index(path, ds)
        assert int(idx.routing.store.ids[0, column]) == byte
        search(idx, queries[0], SearchParams(K=5, efs=20, routing=CONFIGS[name]))
    else:
        with pytest.raises(FormatError):
            load_index(path, ds)


def test_unedited_files_load(files):
    ds, queries, path, saved = files
    for name, cfg in CONFIGS.items():
        _write(path, saved[name][0])
        idx = load_index(path, ds)
        assert idx.routing.cfg.mode == cfg.mode
        ids, _ = search(idx, queries[0], SearchParams(K=5, efs=20, routing=cfg))
        assert np.unique(ids).size == 5
