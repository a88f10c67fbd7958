"""Graph construction, gated search, persistence, and oracle tests."""

import collections
import copy
import dataclasses
import hashlib
import math
import struct

import numpy as np
import pytest

from annroute import (
    CorruptionError,
    Dataset,
    DegenerateInputError,
    FormatError,
    Metric,
    RoutingConfig,
    RoutingMode,
    SearchParams,
    UsageError,
    attach,
    attach_routing,
    brute_force_knn,
    build_edge_meta,
    build_hnsw,
    compute_Ar,
    compute_recall,
    generate_ensemble,
    load_index,
    peos_test,
    save_index,
    search,
    synthetic_dataset,
)
import annroute.graph as graph_mod
from annroute.projections import RNG_ID
from annroute.vecstore import PermutationPlan

from oracles import brute_force_reference


@pytest.fixture(scope="module")
def small():
    ds, queries = synthetic_dataset(1500, 32, 25, seed=3)
    idx = build_hnsw(ds, M=8, efc=60, metric=Metric.L2, seed=3)
    return ds, queries, idx


@pytest.fixture(scope="module")
def small_peos(small):
    _, _, idx = small
    return attach(idx, RoutingConfig(mode=RoutingMode.PEOS, eps=0.2, L=4, m=64))


class TestBuild:
    def test_single_node(self):
        ds = Dataset(np.ones((1, 8), dtype=np.float32))
        idx = build_hnsw(ds, M=4, efc=10, metric=Metric.L2, seed=0)
        assert idx.n == 1 and idx.n_base_edges == 0
        ids, stats = search(idx, np.ones(8), SearchParams(K=1, efs=4))
        assert ids.tolist() == [0]

    def test_all_nodes_reachable_from_entry(self, small):
        _, _, idx = small
        seen = np.zeros(idx.n, dtype=bool)
        queue = collections.deque([idx.entry])
        seen[idx.entry] = True
        while queue:
            v = queue.popleft()
            for u in idx.neighbors(v):
                if not seen[u]:
                    seen[u] = True
                    queue.append(int(u))
        assert seen.all()

    def test_degree_bounds(self, small):
        _, _, idx = small
        degs = np.diff(idx.base_indptr)
        assert degs.max() <= 2 * idx.M
        for lev, nodes in idx.upper.items():
            for row in nodes.values():
                assert len(row) <= idx.M

    def test_neighbor_lists_sorted_no_self_loops(self, small):
        _, _, idx = small
        for v in range(idx.n):
            row = idx.neighbors(v)
            assert np.all(np.diff(row) > 0)
            assert v not in row

    def test_deterministic_rebuild(self, small):
        ds, _, idx = small
        idx2 = build_hnsw(ds, M=8, efc=60, metric=Metric.L2, seed=3)
        np.testing.assert_array_equal(idx.base_indices, idx2.base_indices)
        np.testing.assert_array_equal(idx.base_indptr, idx2.base_indptr)
        assert idx.entry == idx2.entry

    def test_angular_rejects_zero_rows(self):
        vecs = np.ones((10, 4), dtype=np.float32)
        vecs[3] = 0.0
        with pytest.raises(DegenerateInputError):
            build_hnsw(Dataset(vecs), M=4, efc=10, metric=Metric.ANGULAR, seed=0)


class TestAttach:
    def test_meta_count_matches_edges(self, small_peos):
        assert small_peos.routing.store.n_edges == small_peos.n_base_edges

    def test_reattach_byte_identical(self, small, small_peos):
        _, _, idx = small
        again = attach(idx, RoutingConfig(mode=RoutingMode.PEOS, eps=0.2, L=4, m=64))
        assert again.routing.store.wire_bytes() == small_peos.routing.store.wire_bytes()

    def test_spot_check_against_single_edge_builder(self, small, small_peos):
        ds, _, idx = small
        att = small_peos.routing
        rng = np.random.default_rng(4)
        src = np.repeat(np.arange(idx.n), np.diff(idx.base_indptr))
        for slot in rng.integers(0, idx.n_base_edges, size=100):
            v, u = int(src[slot]), int(idx.base_indices[slot])
            expect = build_edge_meta(
                ds.vectors[u].astype(np.float64), ds.vectors[v].astype(np.float64),
                att.ens, att.plan, att.store.quant,
            )
            assert att.store.meta_at(int(slot)) == expect

    def test_duplicate_points_get_null_meta(self):
        vecs = np.random.default_rng(0).standard_normal((40, 16)).astype(np.float32)
        vecs[7] = vecs[3]  # duplicate pair
        ds = Dataset(vecs)
        idx = build_hnsw(ds, M=4, efc=20, metric=Metric.L2, seed=1)
        peos = attach(idx, RoutingConfig(mode=RoutingMode.PEOS, eps=0.2, L=4, m=16))
        src = np.repeat(np.arange(idx.n), np.diff(idx.base_indptr))
        store = peos.routing.store
        dup_slots = [s for s in range(idx.n_base_edges)
                     if {int(src[s]), int(idx.base_indices[s])} == {3, 7}]
        if dup_slots:  # graph may or may not link the twins
            for s in dup_slots:
                assert np.all(store.ids[s] == 0)
        # search still works and finds the duplicates
        ids, _ = search(peos, vecs[3], SearchParams(K=2, efs=10,
                        routing=RoutingConfig(mode=RoutingMode.PEOS, eps=0.2, L=4, m=16)))
        assert set(ids.tolist()) == {3, 7}

    def test_mismatched_plan_rejected(self, small):
        _, _, idx = small
        ens = generate_ensemble(3, 32, 4, 64)
        plan = PermutationPlan.identity(32, 8)
        with pytest.raises(UsageError):
            attach_routing(idx, ens, plan, RoutingConfig(mode=RoutingMode.PEOS, L=4, m=64))


class TestSearch:
    def test_query_equal_to_point(self, small):
        ds, _, idx = small
        ids, _ = search(idx, ds.vectors[42], SearchParams(K=1, efs=10))
        assert ids[0] == 42

    def test_none_mode_identical_on_attached_index(self, small, small_peos):
        ds, queries, idx = small
        params = SearchParams(K=10, efs=50)
        for q in queries:
            plain, _ = search(idx, q, params)
            attached, _ = search(small_peos, q, params)
            np.testing.assert_array_equal(plain, attached)

    def test_gate_reduces_distance_computations(self, small, small_peos):
        _, queries, idx = small
        cfg = RoutingConfig(mode=RoutingMode.PEOS, eps=0.2, L=4, m=64)
        pn = SearchParams(K=10, efs=100)
        pp = SearchParams(K=10, efs=100, routing=cfg)
        for q in queries:
            _, s0 = search(idx, q, pn)
            _, s1 = search(small_peos, q, pp)
            assert s1.dist_computations <= s0.dist_computations

    def test_stats_identity_and_none_counters(self, small, small_peos):
        _, queries, idx = small
        cfg = RoutingConfig(mode=RoutingMode.PEOS, eps=0.2, L=4, m=64)
        for q in queries[:10]:
            _, s0 = search(idx, q, SearchParams(K=10, efs=40))
            assert s0.tests_passed == s0.tests_evaluated
            assert s0.dist_computations == s0.tests_passed + s0.ungated
            _, s1 = search(small_peos, q, SearchParams(K=10, efs=40, routing=cfg))
            assert s1.tests_passed <= s1.tests_evaluated
            assert s1.dist_computations == s1.tests_passed + s1.ungated

    def test_recall_on_small_set(self, small):
        ds, queries, idx = small
        truth = np.stack([brute_force_knn(ds, q, 10, Metric.L2) for q in queries])
        results = [search(idx, q, SearchParams(K=10, efs=100))[0] for q in queries]
        assert compute_recall(results, truth, 10) >= 0.95

    def test_deterministic(self, small_peos):
        cfg = RoutingConfig(mode=RoutingMode.PEOS, eps=0.2, L=4, m=64)
        q = np.random.default_rng(8).standard_normal(32)
        p = SearchParams(K=5, efs=30, routing=cfg)
        r1, s1 = search(small_peos, q, p)
        r2, s2 = search(small_peos, q, p)
        np.testing.assert_array_equal(r1, r2)
        assert s1 == s2

    def test_routing_without_attachment_rejected(self, small):
        _, _, idx = small
        cfg = RoutingConfig(mode=RoutingMode.PEOS, eps=0.2, L=4, m=64)
        with pytest.raises(UsageError):
            search(idx, np.zeros(32) + 1.0, SearchParams(K=1, efs=5, routing=cfg))

    def test_zero_query_rejected_for_gated_modes(self, small_peos):
        cfg = RoutingConfig(mode=RoutingMode.PEOS, eps=0.2, L=4, m=64)
        with pytest.raises(DegenerateInputError):
            search(small_peos, np.zeros(32), SearchParams(K=1, efs=5, routing=cfg))

    def test_efs_must_cover_K(self):
        with pytest.raises(UsageError):
            SearchParams(K=10, efs=5)

    def test_simhash_mode_runs(self, small):
        ds, queries, idx = small
        cfg = RoutingConfig(mode=RoutingMode.SIMHASH, eps=0.2, simhash_bits=64, L=4)
        sh = attach(idx, cfg)
        truth = np.stack([brute_force_knn(ds, q, 10, Metric.L2) for q in queries])
        results = []
        dist_none, dist_sh = 0, 0
        pn = SearchParams(K=10, efs=100)
        pp = SearchParams(K=10, efs=100, routing=cfg)
        for q in queries:
            _, s0 = search(idx, q, pn)
            ids, s1 = search(sh, q, pp)
            results.append(ids)
            dist_none += s0.dist_computations
            dist_sh += s1.dist_computations
        assert dist_sh <= dist_none
        assert compute_recall(results, truth, 10) >= 0.9

    def test_rceos_mode_runs(self, small):
        ds, queries, idx = small
        cfg = RoutingConfig(mode=RoutingMode.RCEOS, eps=0.2, L=1, m=64)
        rc = attach(idx, cfg)
        ids, stats = search(rc, queries[0], SearchParams(K=10, efs=100, routing=cfg))
        assert stats.tests_evaluated > 0


class TestMetricVariants:
    @pytest.mark.parametrize("metric", [Metric.ANGULAR, Metric.IP])
    def test_search_and_gate(self, metric):
        gen = np.random.default_rng(11)
        vecs = gen.standard_normal((800, 32)).astype(np.float32)
        if metric == Metric.ANGULAR:
            vecs /= np.linalg.norm(vecs.astype(np.float64), axis=1, keepdims=True).astype(np.float32)
        ds = Dataset(vecs)
        queries = gen.standard_normal((10, 32))
        idx = build_hnsw(ds, M=8, efc=60, metric=metric, seed=5)
        cfg = RoutingConfig(mode=RoutingMode.PEOS, eps=0.2, L=4, m=64)
        gated = attach(idx, cfg)
        truth = np.stack([brute_force_knn(ds, q, 10, metric) for q in queries])
        res_n, res_g = [], []
        dn = dg = 0
        for q in queries:
            i0, s0 = search(idx, q, SearchParams(K=10, efs=100))
            i1, s1 = search(gated, q, SearchParams(K=10, efs=100, routing=cfg))
            res_n.append(i0)
            res_g.append(i1)
            dn += s0.dist_computations
            dg += s1.dist_computations
        assert dg <= dn
        assert compute_recall(res_n, truth, 10) >= 0.9
        assert compute_recall(res_g, truth, 10) >= compute_recall(res_n, truth, 10) - 0.1


class TestBruteForce:
    def test_K_equals_n_sorted(self):
        ds, _ = synthetic_dataset(50, 8, 1, seed=9)
        q = np.zeros(8)
        ids = brute_force_knn(ds, q, 50, Metric.L2)
        dists = [float(np.linalg.norm(ds.vectors[i].astype(np.float64) - q)) for i in ids]
        assert dists == sorted(dists)
        assert sorted(ids.tolist()) == list(range(50))

    def test_agrees_with_independent_scan(self):
        ds, queries = synthetic_dataset(300, 12, 20, seed=10)
        for metric in Metric:
            for q in queries:
                mine = brute_force_knn(ds, q, 7, metric).tolist()
                ref = brute_force_reference(ds.vectors, q, 7, metric.value)
                assert mine == ref

    def test_query_equal_to_point_first(self):
        ds, _ = synthetic_dataset(100, 6, 1, seed=11)
        assert brute_force_knn(ds, ds.vectors[17], 3, Metric.L2)[0] == 17

    def test_K_bounds(self):
        ds, _ = synthetic_dataset(10, 4, 1, seed=12)
        with pytest.raises(UsageError):
            brute_force_knn(ds, np.zeros(4), 11, Metric.L2)


class TestPersistence:
    def test_save_load_save_fixed_point(self, small, small_peos, tmp_path):
        ds, _, _ = small
        p1, p2 = tmp_path / "a.idx", tmp_path / "b.idx"
        save_index(small_peos, p1)
        loaded = load_index(p1, ds)
        save_index(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_search_identical_after_roundtrip(self, small, small_peos, tmp_path):
        ds, queries, _ = small
        path = tmp_path / "c.idx"
        save_index(small_peos, path)
        loaded = load_index(path, ds)
        cfg = RoutingConfig(mode=RoutingMode.PEOS, eps=0.2, L=4, m=64)
        for q in queries[:10]:
            a, sa = search(small_peos, q, SearchParams(K=10, efs=60, routing=cfg))
            b, sb = search(loaded, q, SearchParams(K=10, efs=60, routing=cfg))
            np.testing.assert_array_equal(a, b)
            assert sa == sb

    def test_header_fields_survive(self, small, small_peos, tmp_path):
        ds, _, _ = small
        path = tmp_path / "d.idx"
        save_index(small_peos, path)
        loaded = load_index(path, ds)
        att = loaded.routing
        assert att.cfg.L == 4 and att.cfg.m == 64
        assert att.seed == small_peos.routing.seed
        assert loaded.M == small_peos.M and loaded.seed == small_peos.seed

    def test_checksum_detects_corruption(self, small, small_peos, tmp_path):
        ds, _, _ = small
        path = tmp_path / "e.idx"
        save_index(small_peos, path)
        raw = bytearray(path.read_bytes())
        raw[100] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptionError):
            load_index(path, ds)

    def test_bad_magic_rejected(self, small, tmp_path):
        ds, _, _ = small
        path = tmp_path / "f.idx"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(FormatError):
            load_index(path, ds)

    def test_dataset_mismatch_rejected(self, small, small_peos, tmp_path):
        path = tmp_path / "g.idx"
        save_index(small_peos, path)
        other, _ = synthetic_dataset(1500, 32, 1, seed=99)
        with pytest.raises(FormatError):
            load_index(path, other)

    def test_unattached_roundtrip(self, small, tmp_path):
        ds, queries, idx = small
        path = tmp_path / "h.idx"
        save_index(idx, path)
        loaded = load_index(path, ds)
        for q in queries[:5]:
            a, _ = search(idx, q, SearchParams(K=5, efs=30))
            b, _ = search(loaded, q, SearchParams(K=5, efs=30))
            np.testing.assert_array_equal(a, b)


@pytest.fixture(scope="module", params=[Metric.L2, Metric.ANGULAR, Metric.IP], ids=lambda m: m.value)
def twins(request):
    """A small graph whose points 0..9 each have an exact duplicate, so some edges have zero norm."""
    ds, queries = synthetic_dataset(600, 32, 20, seed=21)
    vecs = ds.vectors.copy()
    vecs[300:310] = vecs[:10]
    queries = np.vstack([queries, vecs[:10] + 0.01])
    return request.param, queries, build_hnsw(Dataset(vecs), M=6, efc=40, metric=request.param, seed=2)


class TestLiveGateEquivalence:
    """Every fused-gate call that real searches make agrees edge by edge with the scalar peos_test."""

    @pytest.mark.parametrize("cfg", [
        RoutingConfig(mode=RoutingMode.PEOS, eps=0.2, L=8, m=128),
        RoutingConfig(mode=RoutingMode.PEOS, eps=0.3, L=4, m=32, compact=True),
        RoutingConfig(mode=RoutingMode.RCEOS, eps=0.2, L=1, m=64),
    ], ids=["peos_L8", "compact_L4", "rceos_L1"])
    def test_matches_scalar_on_every_hop(self, twins, cfg, monkeypatch):
        metric, queries, idx = twins
        routed = attach(idx, cfg)
        store = routed.routing.store
        seen = collections.Counter()
        fused = graph_mod.batch_peos_test

        def checked(block, tbl, qpt, ts, metric=Metric.L2):
            out = fused(block, tbl, qpt, ts, metric)
            expect = [peos_test(store.meta_at(int(s)), tbl, qpt, ts, metric) for s in block.slots]
            np.testing.assert_array_equal(out, expect)
            ar = np.array([compute_Ar(store.meta_at(int(s)), ts, qpt.qnorm, metric) for s in block.slots])
            seen["edges"] += len(out)
            seen["tested"] += int(np.count_nonzero(np.abs(ar) < 1.0))
            seen["zero_norm"] += int(np.count_nonzero(ar == -math.inf))
            return out

        monkeypatch.setattr(graph_mod, "batch_peos_test", checked)
        params = SearchParams(K=5, efs=12, routing=cfg)
        for q in queries:
            search(routed, q, params)
        assert seen["tested"] >= 200 and seen["zero_norm"] > 0


# byte positions in the index header (see save_index)
_ENTRY_AT = struct.calcsize("<4sIBIQIIQ")
_M_AT = struct.calcsize("<4sIBIQ")
_L_AT = struct.calcsize("<4sIBIQIIQQIQB")
_PERM_AT = _L_AT + struct.calcsize("<IIBIQH") + len(RNG_ID) + struct.calcsize("<ddBddB")


def _reseal(path, at: int, fmt: str, value) -> None:
    """Overwrite one header field and recompute the checksum, so only validation can reject the file."""
    raw = bytearray(path.read_bytes()[:-8])
    struct.pack_into("<" + fmt, raw, at, value)
    path.write_bytes(bytes(raw) + hashlib.blake2b(bytes(raw), digest_size=8).digest())


def _bad_base_id(idx):
    bad = copy.copy(idx)
    bad.base_indices = idx.base_indices.copy()
    bad.base_indices[-1] = idx.n  # the last row stays sorted
    return bad


def _bad_upper_id(idx):
    bad = copy.copy(idx)
    bad.upper = {lev: dict(nodes) for lev, nodes in idx.upper.items()}
    v, row = next((v, row) for v, row in bad.upper[1].items() if row.size)
    bad.upper[1][v] = np.append(row[:-1], idx.n).astype(np.int32)
    return bad


class TestFailClosed:
    """Files with a valid checksum but impossible contents raise FormatError on load."""

    @pytest.mark.parametrize("at,fmt,value", [
        pytest.param(_ENTRY_AT, "Q", 10**6, id="entry"),
        pytest.param(_M_AT, "I", 1, id="degree_above_2M"),
        pytest.param(_L_AT, "I", 3, id="L_not_dividing_d"),
        pytest.param(_L_AT + 4, "I", 1, id="m_below_2"),
        pytest.param(_L_AT + 4, "I", 200, id="m_above_128"),
        pytest.param(_L_AT + 4, "I", 2, id="extreme_id_above_m"),
        pytest.param(_PERM_AT, "I", 1, id="permutation"),  # perm[0] = perm[1] = 1
    ])
    def test_bad_header_field(self, small, small_peos, tmp_path, at, fmt, value):
        ds, _, _ = small
        path = tmp_path / "bad.idx"
        save_index(small_peos, path)
        _reseal(path, at, fmt, value)
        with pytest.raises(FormatError):
            load_index(path, ds)

    @pytest.mark.parametrize("corrupt", [_bad_base_id, _bad_upper_id])
    def test_neighbor_id_out_of_range(self, small, tmp_path, corrupt):
        ds, _, idx = small
        path = tmp_path / "bad.idx"
        save_index(corrupt(idx), path)
        with pytest.raises(FormatError):
            load_index(path, ds)

    def test_truncated_header(self, small, tmp_path):
        ds, _, idx = small
        path = tmp_path / "short.idx"
        save_index(idx, path)
        raw = path.read_bytes()[:30]
        path.write_bytes(raw + hashlib.blake2b(raw, digest_size=8).digest())
        with pytest.raises(FormatError):
            load_index(path, ds)


# Recorded on the desk set with the per-hop EdgeMetaBlock gate, before the
# fused kernel replaced it; a gate rewrite must leave every decision as it was.
GOLDEN_PEOS_DIGEST = "9c313154506fa9b226ad74cb6cb3e5c2"


class TestBitStability:
    def test_golden_peos_ids(self, desk_data, desk_peos, desk_peos_cfg):
        _, queries = desk_data
        params = SearchParams(K=100, efs=500, routing=desk_peos_cfg)
        scratch = desk_peos.make_scratch()
        h = hashlib.blake2b(digest_size=16)
        for q in queries[:20]:
            ids, st = search(desk_peos, q, params, scratch=scratch)
            h.update(ids.astype("<i8").tobytes())
            h.update(np.array(dataclasses.astuple(st), dtype="<i8").tobytes())
        assert h.hexdigest() == GOLDEN_PEOS_DIGEST
