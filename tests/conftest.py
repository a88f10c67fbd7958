"""Session fixtures: the desk-scale corpus and its routed indexes.

The 50k graph build is the expensive part of the suite, so it is built
once per session and cached on disk under tests/_cache, keyed by the
build parameters and a hash of the graph module source (any change to
construction code invalidates the cache). A build deletes the cached
graphs of the same parameters that other code built.
"""

import glob
import hashlib
import os

import numpy as np
import pytest

import annroute as ar
import annroute.graph

DESK_N, DESK_D, DESK_NQ = 50_000, 128, 100
DESK_SEED = 7
DESK_M, DESK_EFC = 32, 120
DESK_K = 100

_CACHE_DIR = os.path.join(os.path.dirname(__file__), "_cache")


def _code_tag() -> str:
    with open(annroute.graph.__file__, "rb") as f:
        return hashlib.blake2b(f.read(), digest_size=4).hexdigest()


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
