"""The benchmark's tracer finds every layer it wraps.

perfbench/tracing.py rebinds functions and methods of annroute by name;
a target that moved or was renamed is listed in ``missing`` and its
per-layer metrics read 0. Search must also score every exact distance
through ``HnswIndex._keys``, whose rows the tracer counts.
"""

import os

import pytest

import annroute as ar

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    tr = tracing.Tracer()
    tr.install()
    yield tr
    tr.uninstall()


def test_no_target_missing(tracer):
    assert tracer.missing == []


@pytest.mark.parametrize("mode", [ar.RoutingMode.NONE, ar.RoutingMode.PEOS, ar.RoutingMode.SIMHASH])
def test_distance_rows_match_counters(tracer, mode):
    ds, queries = ar.synthetic_dataset(400, 16, 3, seed=2)
    cfg = ar.RoutingConfig(mode=mode, eps=0.2, L=4, m=16, simhash_bits=32)
    routed = ar.attach(ar.build_hnsw(ds, 6, 30, ar.Metric.L2, 2), cfg)
    tracer.take_counts()
    total = 0
    for q in queries:
        _, st = ar.search(routed, q, ar.SearchParams(K=5, efs=20, routing=cfg))
        total += st.dist_computations
    assert tracer.take_counts()["dist_rows"] == total > 0
