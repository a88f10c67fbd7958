"""Fuzzed index files: only AnnRouteError may escape load_index or a search after it.

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
    save_index,
    search,
    synthetic_dataset,
)
from annroute.projections import RNG_ID

CONFIGS = {
    "peos": RoutingConfig(mode=RoutingMode.PEOS, eps=0.2, L=4, m=16),
    "compact": RoutingConfig(mode=RoutingMode.PEOS, eps=0.2, L=4, m=16, compact=True),
    "simhash": RoutingConfig(mode=RoutingMode.SIMHASH, eps=0.2, simhash_bits=32),
}

# the quantizer header (half_u_sq lo, hi, bits; enorm lo, hi, bits), see save_index
_QUANT_AT = struct.calcsize("<4sIBIQIIQQIQB") + struct.calcsize("<IIBIQH") + len(RNG_ID)
_QUANT_LEN = struct.calcsize("<ddBddB")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Per mode: the payload of a saved file and where its edge records start."""
    ds, queries = synthetic_dataset(300, 16, 3, seed=5)
    idx = build_hnsw(ds, M=4, efc=20, metric=Metric.L2, seed=5)
    work = tmp_path_factory.mktemp("fuzz")
    out = {}
    for name, cfg in CONFIGS.items():
        path = work / f"{name}.idx"
        routed = attach(idx, cfg)
        save_index(routed, path)
        payload = path.read_bytes()[:-8]
        out[name] = (payload, len(payload) - len(routed.routing.store.wire_bytes()))
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
    payload, records_at = saved[name]
    raw = bytearray(payload)
    lo, size = (records_at, len(raw) - records_at) if section == "records" else (_QUANT_AT, _QUANT_LEN)
    for pos, value in edits:
        raw[lo + pos % size] = value
    _write(path, bytes(raw))
    _load_and_search(ds, queries, path, CONFIGS[name])


@pytest.mark.parametrize("name,column", [("peos", 1), ("peos", 0), ("compact", 0)])
@pytest.mark.parametrize("byte,valid", [
    (16, True), (17, False), (128, False), (129, True), (144, True), (145, False), (255, False),
])
def test_id_byte_beyond_m(files, name, column, byte, valid):
    """Byte b holds id +b for b <= 128 and id 128-b above; with m=16 only |id| <= 16 is valid."""
    ds, queries, path, saved = files
    payload, records_at = saved[name]
    raw = bytearray(payload)
    raw[records_at + column] = byte  # an id byte of the first edge's record
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
    for name, (payload, _) in saved.items():
        _write(path, payload)
        idx = load_index(path, ds)
        assert idx.routing.mode == CONFIGS[name].mode
        ids, _ = search(idx, queries[0], SearchParams(K=5, efs=20, routing=CONFIGS[name]))
        assert np.unique(ids).size == 5
