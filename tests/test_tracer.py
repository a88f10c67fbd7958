"""The benchmark's tracer finds every layer it wraps.

perfbench/tracing.py rebinds functions and methods of annroute by name;
a target that moved or was renamed is listed in ``missing`` and its
per-layer metrics read 0. Search must also score every exact distance
through ``HnswIndex._keys``, whose rows the tracer counts, and the
tracer's gate bands must add up to the search counters on every query,
as the benchmark's traced runs check.
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


@pytest.fixture(scope="module", params=list(ar.Metric), ids=lambda m: m.value)
def small_graph(request):
    ds, queries = ar.synthetic_dataset(600, 16, 10, seed=3)
    return queries, ar.build_hnsw(ds, 6, 30, request.param, 3)


@pytest.mark.parametrize("mode", [ar.RoutingMode.NONE, ar.RoutingMode.PEOS, ar.RoutingMode.SIMHASH])
def test_every_query_satisfies_the_identities(tracer, small_graph, mode):
    """dist = passed + ungated and gated = auto-pass + auto-reject + tested-pass +
    tested-reject, the bands as the tracer counts them, hold query by query."""
    import checks
    import tracing

    queries, idx = small_graph
    cfg = ar.RoutingConfig(mode=mode, eps=0.2, L=4, m=16, simhash_bits=32)
    routed = ar.attach(idx, cfg)
    params = ar.SearchParams(K=5, efs=20, routing=cfg)
    tracer.take_counts()
    gated = 0
    for q in queries:
        _, st = ar.search(routed, q, params)
        c = tracer.take_counts()
        c = {k: c.get(k, 0) for k in ("dist_rows", *tracing.GATE_COUNTS)}
        checks.check_identities(st, c["dist_rows"], c, mode.value)
        gated += c["gated_edges"]
    assert (gated > 0) == (mode != ar.RoutingMode.NONE)
