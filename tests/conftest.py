"""Session fixtures: the desk-scale corpus and its routed indexes.

The 50k graph build is the expensive part of the suite, so it is built
once per session and cached on disk under tests/_cache, keyed by the
build parameters and a hash of the source files that define build_hnsw,
save_index, load_index and Dataset (the rule perfbench's desk graph
cache uses): a change to construction or to the file format invalidates
the cache, and so does a change to hnsw.py's search code
(HnswIndex._keys, and layer_search, the level loop that build runs too),
which shares the file with build_hnsw. A change to query.py or to attach
does not. A build deletes the cached graphs of the
same parameters that other code built.
"""

import glob
import hashlib
import inspect
import os

import pytest

import annroute as ar

DESK_N, DESK_D, DESK_NQ = 50_000, 128, 100
DESK_SEED = 7
DESK_M, DESK_EFC = 32, 120
DESK_K = 100

_CACHE_DIR = os.path.join(os.path.dirname(__file__), "_cache")


def _code_tag() -> str:
    h = hashlib.blake2b(digest_size=4)
    files = {inspect.getsourcefile(f) for f in (ar.build_hnsw, ar.save_index, ar.load_index, ar.Dataset)}
    for path in sorted(files):
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


@pytest.fixture(scope="session")
def desk_data():
    return ar.synthetic_dataset(DESK_N, DESK_D, DESK_NQ, seed=DESK_SEED)


@pytest.fixture(scope="session")
def desk_truth(desk_data):
    ds, queries = desk_data
    return ar.brute_force_all(ds, queries, DESK_K, ar.Metric.L2)


@pytest.fixture(scope="session")
def desk_index(desk_data):
    ds, _ = desk_data
    os.makedirs(_CACHE_DIR, exist_ok=True)
    stem = f"hnsw-{DESK_N}x{DESK_D}-M{DESK_M}-efc{DESK_EFC}-s{DESK_SEED}-"
    path = os.path.join(_CACHE_DIR, stem + _code_tag() + ".idx")
    if os.path.exists(path):
        try:
            return ar.load_index(path, ds)
        except ar.AnnRouteError:
            os.unlink(path)
    for old in glob.glob(os.path.join(_CACHE_DIR, glob.escape(stem) + "*.idx")):  # built by other code
        os.unlink(old)
    idx = ar.build_hnsw(ds, DESK_M, DESK_EFC, ar.Metric.L2, DESK_SEED)
    ar.save_index(idx, path)
    return idx


@pytest.fixture(scope="session")
def desk_peos_cfg():
    return ar.RoutingConfig(mode=ar.RoutingMode.PEOS, eps=0.2, L=8, m=128)


@pytest.fixture(scope="session")
def desk_peos(desk_index, desk_peos_cfg):
    return ar.attach(desk_index, desk_peos_cfg)


@pytest.fixture(scope="session")
def desk_rceos(desk_index):
    return ar.attach(desk_index, ar.RoutingConfig(mode=ar.RoutingMode.RCEOS, eps=0.2, L=1, m=128))


@pytest.fixture(scope="session")
def desk_simhash(desk_index):
    return ar.attach(desk_index, ar.RoutingConfig(mode=ar.RoutingMode.SIMHASH, eps=0.2, simhash_bits=64))
