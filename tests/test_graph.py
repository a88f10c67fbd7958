"""Graph construction, gated search, persistence, and oracle tests."""

import collections
import copy
import hashlib
import math
import struct
import tracemalloc

import numpy as np
import pytest

from annroute import (
    CorruptionError,
    Dataset,
    DegenerateInputError,
    EdgeMetaBlock,
    FormatError,
    Metric,
    RoutingConfig,
    RoutingMode,
    SearchParams,
    SimHashSketch,
    UsageError,
    attach,
    brute_force_all,
    build_hnsw,
    compute_recall,
    load_index,
    save_index,
    search,
    synthetic_dataset,
)
import annroute.edgestore as edgestore
import annroute.hnsw as hnsw_mod
import annroute.indexfile as indexfile
import annroute.query as query_mod
from annroute.projections import RNG_ID, encode_id_bytes
from annroute.routing import batch_ar

from oracles import brute_force_reference, spread_norms
from scalar_gate import EdgeMeta, build_edge_meta, compute_Ar, meta_at, peos_test, simhash_test


@pytest.fixture(scope="module")
def small():
    ds, queries = synthetic_dataset(1500, 32, 25, seed=3)
    idx = build_hnsw(ds, M=8, efc=60, metric=Metric.L2, seed=3)
    return ds, queries, idx


@pytest.fixture(scope="module")
def small_peos(small):
    _, _, idx = small
    return attach(idx, RoutingConfig(mode=RoutingMode.PEOS, eps=0.2, L=4, m=64))


# blake2b-128 of save_index bytes for the twins graph of each metric (ten points have
# exact duplicates, so keys tie), recorded before build took the shared ordering-key
# kernel and upper-layer descent in place of its own copies. Format 2 re-recorded them
# as the same files with the version word set to 2 and the checksum resealed. Format 3
# re-recorded them once the graph each new file loads to (base offsets and ids, upper
# rows, entry, max_level) was shown equal to what format 2 loaded from its own file.
GOLDEN_BUILD = {
    Metric.L2: "18276e5261284345e5488d73a54d55e6",
    Metric.ANGULAR: "edeaff9e88f5499ac1da12fb6827cbbe",
    Metric.IP: "127b80598f531b92eef4039464f0faa8",
}


class TestBuild:
    def test_saved_bytes_pinned(self, twins, tmp_path):
        metric, _, idx = twins
        path = tmp_path / "twins.idx"
        save_index(idx, path)
        assert hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest() == GOLDEN_BUILD[metric]

    def test_repair_eviction_bytes_pinned(self, tmp_path):
        """Three exact copies of 133 points at M=4, efc=20: the repair pass's first round
        finds 19 orphans whose out-neighbors are all full, so each one evicts an entry.

        This graph still has 9 nodes unreachable from the entry (CHANGES.md): the
        repair pass only reconnects nodes with no incoming edge, and a cluster of
        copies larger than the base degree can link only to itself. A fix of that
        changes this digest on purpose; the bytes were recorded before build kept
        every level in one padded row form, and re-recorded for format 2 as the same
        file with the version word set to 2 and the checksum resealed.

        Re-recorded when build took search's tie rule (among equal keys the lower id
        stays, and an equal key with a lower id may enter): 14 of the 399 base rows
        changed, all among copies whose keys tie exactly (29, 162 and 295 are one
        point). No upper row changed, and 9 nodes are still unreachable.

        Re-recorded for format 3 once the graph this file loads to was shown equal
        to what format 2 loaded from its own file.
        """
        ds, _ = synthetic_dataset(133, 16, 1, seed=5)
        idx = build_hnsw(Dataset(np.tile(ds.vectors, (3, 1))), M=4, efc=20, metric=Metric.L2, seed=1)
        path = tmp_path / "copies.idx"
        save_index(idx, path)
        assert hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest() == "8117dbf295f31667b74bdb586becc73d"

    def test_served_dtypes(self, small, tmp_path):
        """Build holds its rows as intp; the built and the loaded graph serve them as int32."""
        ds, _, idx = small
        path = tmp_path / "g.idx"
        save_index(idx, path)
        for g in (idx, load_index(path, ds)):
            assert g.base_indices.dtype == np.int32 and g.base_indptr.dtype == np.int64
            assert g.max_level > 0
            assert {row.dtype for rows in g.upper.values() for row in rows.values()} == {np.dtype(np.int32)}

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
        assert again.routing.store.wire_records().tobytes() == small_peos.routing.store.wire_records().tobytes()

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
            assert meta_at(small_peos, int(slot)) == expect

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

    def test_unsorted_row_rejected(self, small):
        """attach finds reverse edges by binary search, which needs every row sorted."""
        _, _, idx = small
        bad = copy.copy(idx)
        bad.base_indices = idx.base_indices.copy()
        bad.base_indices[: idx.base_indptr[1]] = idx.neighbors(0)[::-1]
        with pytest.raises(UsageError):
            attach(bad, RoutingConfig(mode=RoutingMode.PEOS, eps=0.2, L=4, m=64))

    def test_simhash_honours_the_seed(self, small):
        """The seed derives SimHash's hyperplanes, as it derives peos's projections."""
        _, _, idx = small
        cfg = RoutingConfig(mode=RoutingMode.SIMHASH, eps=0.2, simhash_bits=64)
        a, b = (attach(idx, cfg, seed=s).routing for s in (5, 99))
        assert (a.seed, b.seed) == (5, 99)
        assert not np.array_equal(a.hashes, b.hashes)
        assert a.store.sketches.tobytes() != b.store.sketches.tobytes()

    def test_simhash_permute_writes_the_same_file(self, small, tmp_path):
        _, _, idx = small
        cfg = RoutingConfig(mode=RoutingMode.SIMHASH, eps=0.2, simhash_bits=64)
        paths = [tmp_path / "plain.idx", tmp_path / "permute.idx"]
        for path, permute in zip(paths, (False, True)):
            save_index(attach(idx, cfg, permute=permute), path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_permute_on_an_edgeless_graph(self, tmp_path):
        """A one-point graph has no edge to balance subspaces over: permute attaches the
        identity plan, so its file equals the unpermuted one, and both load and search."""
        ds = Dataset(np.ones((1, 8), dtype=np.float32))
        idx = build_hnsw(ds, M=4, efc=10, metric=Metric.L2, seed=0)
        cfg = RoutingConfig(mode=RoutingMode.PEOS, eps=0.2, L=4, m=16)
        paths = [tmp_path / "plain.idx", tmp_path / "permute.idx"]
        for path, permute in zip(paths, (False, True)):
            routed = attach(idx, cfg, permute=permute)
            np.testing.assert_array_equal(routed.routing.plan.perm, np.arange(8))
            save_index(routed, path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        ids, _ = search(load_index(paths[1], ds), np.ones(8), SearchParams(K=1, efs=4, routing=cfg))
        assert ids.tolist() == [0]

    def test_simhash_default_config_on_any_d(self, tmp_path):
        """d=30 is not a multiple of the default L=8, which SimHash does not read."""
        ds, queries = synthetic_dataset(500, 30, 3, seed=3)
        idx = build_hnsw(ds, M=8, efc=40, metric=Metric.L2, seed=3)
        cfg = RoutingConfig(mode=RoutingMode.SIMHASH)
        routed = attach(idx, cfg)
        path = tmp_path / "sh30.idx"
        save_index(routed, path)
        loaded = load_index(path, ds)
        assert loaded.routing.cfg == cfg
        params = SearchParams(K=5, efs=20, routing=cfg)
        for q in queries:
            (a, sa), (b, sb) = search(routed, q, params), search(loaded, q, params)
            np.testing.assert_array_equal(a, b)
            assert sa == sb and sa.tests_evaluated > 0


class TestSearch:
    def test_query_equal_to_point(self, small):
        ds, _, idx = small
        ids, _ = search(idx, ds.vectors[42], SearchParams(K=1, efs=10))
        assert ids[0] == 42

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("mode", [RoutingMode.NONE, RoutingMode.PEOS, RoutingMode.SIMHASH],
                             ids=lambda m: m.value)
    def test_non_finite_query_is_refused(self, small, mode, bad):
        """A query with one non-finite component has no distances to rank, under any gate."""
        _, queries, idx = small
        cfg = RoutingConfig(mode=mode, eps=0.2, L=4, m=16)
        q = queries[0].astype(np.float64)
        q[3] = bad
        with pytest.raises(UsageError, match="non-finite"):
            search(attach(idx, cfg), q, SearchParams(K=5, efs=20, routing=cfg))

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
        truth = brute_force_all(ds, queries, 10, Metric.L2)
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

    def test_boundary_ties_keep_lower_ids(self):
        """With every key equal, the result list keeps the lowest ids among the nodes it saw."""
        signs = np.random.default_rng(1).choice([-1.0, 1.0], size=(80, 16)).astype(np.float32)
        idx = build_hnsw(Dataset(signs), M=4, efc=20, metric=Metric.L2, seed=1)
        scratch = idx.make_scratch()
        ids, _ = search(idx, np.zeros(16), SearchParams(K=5, efs=10), scratch=scratch)
        seen = np.nonzero(scratch.visited == scratch.epoch)[0]
        assert seen.size > 10
        np.testing.assert_array_equal(ids, seen[:5])

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
        truth = brute_force_all(ds, queries, 10, Metric.L2)
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

    @pytest.mark.parametrize("mode", ["none", "peos", "simhash"])
    def test_keys_get_intp_ids(self, small, mode, monkeypatch):
        """Every distance call of a search, upper layers included, gets intp ids:
        numpy casts any other index dtype on each gather."""
        _, queries, idx = small
        cfg = RoutingConfig(mode=RoutingMode(mode), eps=0.2, L=4, m=64)
        routed = idx if mode == "none" else attach(idx, cfg)
        dtypes = collections.Counter()
        keys = hnsw_mod.HnswIndex._keys

        def recorded(self, q64, qsq, qnorm, ids):
            dtypes[ids.dtype] += 1
            return keys(self, q64, qsq, qnorm, ids)

        monkeypatch.setattr(hnsw_mod.HnswIndex, "_keys", recorded)
        params = SearchParams(K=5, efs=12, routing=cfg)
        tested = sum(search(routed, q, params)[1].tests_evaluated for q in queries)
        assert tested > 0 and idx.max_level > 0
        assert set(dtypes) == {np.dtype(np.intp)} and sum(dtypes.values()) > 2 * len(queries)

    def test_rceos_mode_runs(self, small):
        ds, queries, idx = small
        cfg = RoutingConfig(mode=RoutingMode.RCEOS, eps=0.2, L=1, m=64)
        rc = attach(idx, cfg)
        ids, stats = search(rc, queries[0], SearchParams(K=10, efs=100, routing=cfg))
        assert stats.tests_evaluated > 0


# ordering keys of a hand-made graph: node 0 links to 1-4 and node 1 to 5 and 6
_HAND_KEYS = {0: 5.0, 1: 1.0, 2: 1.0, 3: 1.0, 4: 2.0, 5: 1.0, 6: 0.5}


@pytest.fixture(scope="module", params=[Metric.L2, Metric.ANGULAR, Metric.IP], ids=lambda m: m.value)
def small_metric(small, request):
    ds, queries, idx = small
    if request.param != Metric.L2:
        idx = build_hnsw(ds, M=8, efc=60, metric=request.param, seed=3)
    return queries, idx


class TestLayerSearch:
    @pytest.mark.parametrize("first_row", [[1, 2, 3, 4], [3, 4, 2, 1]])
    def test_equal_keys_keep_the_lower_id(self, first_row):
        """Among equal keys the lower id stays (3 and 5 do not displace 2), and a newcomer
        with an equal key and a lower id enters (1 displaces 3 when 3 came first)."""
        rows = {0: first_row, 1: [5, 6]}
        worsts = []

        def score(v, kv, mask, fresh, worst):
            worsts.append(worst)
            return fresh, np.array([_HAND_KEYS[u] for u in fresh.tolist()])

        visited = np.zeros(7, dtype=np.int64)
        found, _ = hnsw_mod.layer_search([(5.0, 0)], 2, lambda v: np.array(rows.get(v, []), dtype=np.intp),
                                            score, visited, 1)
        assert found == [(0.5, 6), (1.0, 1)]
        assert worsts == [None, (-1.0, -2)]  # the list fills while node 0's row is offered
        assert visited.tolist() == [1] * 7

    def test_search_scores_each_upper_node_once_per_level(self, small, monkeypatch):
        """On an index with an empty base layer every distance call after the entry's
        scores the upper row fetched just before it; no level scores a node twice."""
        _, queries, idx = small
        upper_only = copy.copy(idx)
        upper_only.base_indptr = np.zeros(idx.n + 1, dtype=np.int64)
        upper_only.base_indices = np.empty(0, dtype=np.int32)
        state = {}
        scored = collections.defaultdict(list)
        upper_row, keys = hnsw_mod.HnswIndex.upper_row, hnsw_mod.HnswIndex._keys

        def recorded_row(self, lev, v):
            state["lev"] = lev
            return upper_row(self, lev, v)

        def recorded_keys(self, q64, qsq, qnorm, ids):
            lev = state.pop("lev", None)
            if lev is not None:
                scored[state["query"], lev].extend(ids.tolist())
            return keys(self, q64, qsq, qnorm, ids)

        monkeypatch.setattr(hnsw_mod.HnswIndex, "upper_row", recorded_row)
        monkeypatch.setattr(hnsw_mod.HnswIndex, "_keys", recorded_keys)
        for i, q in enumerate(queries):
            state["query"] = i
            state.pop("lev", None)
            _, st = search(upper_only, q, SearchParams(K=1, efs=1))
            assert st.dist_computations == st.ungated == 1 + sum(
                len(scored[i, lev]) for lev in range(1, idx.max_level + 1))
        assert idx.max_level > 1 and sum(len(ids) for ids in scored.values()) > 2 * len(queries)
        for ids in scored.values():
            assert len(ids) == len(set(ids))

    def test_cap_1_walks_like_greedy(self, small_metric):
        """layer_search(cap=1) stops where a greedy walk does, from the entry and from
        twenty more nodes on every upper level, for each metric. The walk rescores
        rows, and a matrix-vector product's last bit can depend on the rows beside
        it, so only the nodes are compared."""
        queries, idx = small_metric
        scratch = idx.make_scratch()
        walks = 0
        for q in queries[:8]:
            q64 = q.astype(np.float64)
            qsq = float(q64 @ q64)

            def keys_of(ids):
                return idx._keys(q64, qsq, math.sqrt(qsq), np.asarray(ids, dtype=np.intp))

            for lev in range(1, idx.max_level + 1):
                for v in [idx.entry, *sorted(idx.upper[lev])[:20]]:
                    u, uk = v, float(keys_of([v])[0])
                    while len(row := idx.upper_row(lev, u)):  # greedy: move to the best row entry while it improves
                        k = keys_of(row)
                        j = int(np.argmin(k))
                        if k[j] >= uk:
                            break
                        u, uk = int(row[j]), float(k[j])
                    found, _ = hnsw_mod.layer_search(
                        [(float(keys_of([v])[0]), v)], 1, lambda w: idx.upper_row(lev, w).astype(np.intp),
                        lambda w, kw, mask, fresh, worst: (fresh, keys_of(fresh)), scratch.visited, scratch.next_epoch())
                    assert [i for _, i in found] == [u]
                    walks += u != v
        assert walks > 0


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
        truth = brute_force_all(ds, queries, 10, metric)
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
        ids = brute_force_all(ds, q[None], 50, Metric.L2)[0]
        dists = [float(np.linalg.norm(ds.vectors[i].astype(np.float64) - q)) for i in ids]
        assert dists == sorted(dists)
        assert sorted(ids.tolist()) == list(range(50))

    def test_agrees_with_independent_scan(self):
        ds, queries = synthetic_dataset(300, 12, 20, seed=10)
        for metric in Metric:
            for q in queries:
                mine = brute_force_all(ds, q[None], 7, metric)[0].tolist()
                ref = brute_force_reference(ds.vectors, q, 7, metric.value)
                assert mine == ref

    def test_query_equal_to_point_first(self):
        ds, _ = synthetic_dataset(100, 6, 1, seed=11)
        assert brute_force_all(ds, ds.vectors[17][None], 3, Metric.L2)[0, 0] == 17

    def test_K_bounds(self):
        ds, _ = synthetic_dataset(10, 4, 1, seed=12)
        with pytest.raises(UsageError):
            brute_force_all(ds, np.zeros((1, 4)), 11, Metric.L2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_query_batch_is_refused(self, bad):
        ds, queries = synthetic_dataset(50, 4, 3, seed=12)
        queries = queries.astype(np.float64)
        queries[2, 1] = bad
        for metric in Metric:
            with pytest.raises(UsageError, match="non-finite"):
                brute_force_all(ds, queries, 3, metric)


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

    def test_rceos_mode_code_loads_as_peos_L1(self, small, tmp_path):
        """Older files write rceos as mode code 2; it loads as the peos L=1 attachment it is."""
        ds, queries, idx = small
        cfg = RoutingConfig(mode=RoutingMode.PEOS, eps=0.2, L=1, m=64)
        routed = attach(idx, cfg)
        path = tmp_path / "rceos.idx"
        save_index(routed, path)
        assert path.read_bytes()[_L_AT - 1] == 1
        _reseal(path, _L_AT - 1, "B", 2)
        loaded = load_index(path, ds)
        assert loaded.routing.cfg == cfg and loaded.routing.cfg.mode == RoutingMode.PEOS
        assert loaded.routing.store.wire_records().tobytes() == routed.routing.store.wire_records().tobytes()
        params = SearchParams(K=10, efs=60, routing=RoutingConfig(mode=RoutingMode.RCEOS, eps=0.2, L=1, m=64))
        np.testing.assert_array_equal(search(loaded, queries[0], params)[0], search(routed, queries[0], params)[0])

    def test_simhash_header_with_L8_and_a_plan_loads_as_L1(self, small, tmp_path):
        """Older attach wrote SimHash files with L=8 and, asked to permute, a plan it never read."""
        ds, _, idx = small
        routed = attach(idx, _STORE_CONFIGS["simhash_64"])
        path = tmp_path / "sh.idx"
        save_index(routed, path)
        _reseal(path, _L_AT, "I", 8)
        _reseal(path, _PERM_AT, "I", 1)
        _reseal(path, _PERM_AT + 4, "I", 0)  # dimensions 0 and 1 swapped
        loaded = load_index(path, ds).routing
        assert loaded.cfg.L == 1 and loaded.plan.L == 1
        np.testing.assert_array_equal(loaded.plan.perm, np.arange(idx.dim))
        assert loaded.store.wire_records().tobytes() == routed.routing.store.wire_records().tobytes()

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

    def test_top_level_of_one_node_with_empty_row(self, small, tmp_path):
        """A level of one node and no edges: its node list, one zero degree and no deltas."""
        ds, queries, idx = small
        one = copy.copy(idx)
        one.max_level = idx.max_level + 1
        one.upper = {**idx.upper, one.max_level: {idx.entry: np.zeros(0, dtype=np.int32)}}
        p1, p2 = tmp_path / "a.idx", tmp_path / "b.idx"
        save_index(one, p1)
        loaded = load_index(p1, ds)
        assert loaded.max_level == one.max_level and loaded.entry == idx.entry
        assert list(loaded.upper[one.max_level]) == [idx.entry] and loaded.upper[one.max_level][idx.entry].size == 0
        for lev, nodes in idx.upper.items():
            assert all(_same_bits(loaded.upper[lev][v], row) for v, row in nodes.items())
        save_index(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        for q in queries[:5]:
            np.testing.assert_array_equal(search(loaded, q, SearchParams(K=5, efs=30))[0],
                                          search(idx, q, SearchParams(K=5, efs=30))[0])


def _buffers(obj) -> list[np.ndarray]:
    """The distinct numpy buffers held in an object's attributes, each once."""
    roots = {}
    for val in vars(obj).values():
        if isinstance(val, np.ndarray):
            while isinstance(val.base, np.ndarray):
                val = val.base
            roots[id(val)] = val
    return list(roots.values())


_STORE_CONFIGS = {
    "peos_L4": RoutingConfig(mode=RoutingMode.PEOS, eps=0.2, L=4, m=64),
    "compact_L4": RoutingConfig(mode=RoutingMode.PEOS, eps=0.2, L=4, m=64, compact=True),
    "rceos_L1": RoutingConfig(mode=RoutingMode.RCEOS, eps=0.2, L=1, m=64),
    "simhash_64": RoutingConfig(mode=RoutingMode.SIMHASH, eps=0.2, simhash_bits=64),
}


class TestMemory:
    """The served index keeps one copy of each thing, in its stored form."""

    def test_no_float64_vector_copy(self, small, small_peos, tmp_path):
        ds, _, idx = small
        path = tmp_path / "peos.idx"
        save_index(small_peos, path)
        for index in (idx, small_peos, load_index(path, ds)):
            assert index.dataset.vectors.dtype == np.float32
            assert all(b.size < ds.vectors.size for b in _buffers(index))
            # beside the vectors: the squared norm of each, in float64; an L2 index keeps no norms
            assert sum(b.nbytes for b in _buffers(index) if b.dtype == np.float64) <= 8 * ds.n

    @pytest.mark.parametrize("name", list(_STORE_CONFIGS))
    def test_store_holds_wire_records(self, small, name, tmp_path):
        ds, _, idx = small
        routed = attach(idx, _STORE_CONFIGS[name])
        path = tmp_path / "routed.idx"
        save_index(routed, path)
        loaded = load_index(path, ds)
        for index in (routed, loaded):
            store = index.routing.store
            E, n = store.n_edges, ds.n
            assert E != n
            # the target array is the adjacency's, counted with the graph, and the L2 gate's
            # squared norms are the index's, counted with the vectors
            assert store.row is index._sqn
            held = [b for b in _buffers(store) if b is not index.base_indices and b is not index._sqn]
            record = store.wire_records().shape[1]
            per_edge = sum(b.nbytes for b in held if b.shape[:1] == (E,))
            fixed = sum(b.nbytes for b in held if b.shape[:1] != (E,))
            # the record fields, and nothing else per edge
            assert per_edge <= E * record
            # the edge norm at every 16-bit code and both weights at every byte; nothing per node
            assert not any(b.shape[:1] == (n,) for b in held)
            assert fixed <= 8 * (65536 + 512) + 1024


def _twin_graph(metric):
    """A small graph whose points 0..9 each have an exact duplicate, so some edges have zero norm."""
    ds, queries = synthetic_dataset(600, 32, 20, seed=21)
    vecs = ds.vectors.copy()
    vecs[300:310] = vecs[:10]
    queries = np.vstack([queries, vecs[:10] + 0.01])
    return queries, build_hnsw(Dataset(vecs), M=6, efc=40, metric=metric, seed=2)


@pytest.fixture(scope="module", params=[Metric.L2, Metric.ANGULAR, Metric.IP], ids=lambda m: m.value)
def twins(request):
    return (request.param, *_twin_graph(request.param))


def _array_roots(obj) -> list[np.ndarray]:
    """Every distinct numpy buffer reachable from obj through annroute objects, dicts, lists and tuples."""
    roots, seen = {}, set()

    def walk(x):
        if id(x) in seen:
            return
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            while isinstance(x.base, np.ndarray):
                x = x.base
            roots[id(x)] = x
        elif isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, (list, tuple)):
            for v in x:
                walk(v)
        elif type(x).__module__.startswith("annroute"):
            for v in getattr(x, "__dict__", {}).values():
                walk(v)

    walk(obj)
    return list(roots.values())


def _traced_load(path, ds):
    """load_index under tracemalloc: (peak bytes allocated while loading, the index)."""
    tracemalloc.start()
    try:
        idx = load_index(path, ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, idx


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


_LOAD_CONFIGS = {"none": RoutingConfig(), **_STORE_CONFIGS}


class TestLoadPath:
    """load_index reads the file once and keeps only owned copies of what the index holds."""

    @pytest.mark.parametrize("m", [128, 16])  # below m=128 the loader also scans every id byte
    def test_peos_peak_within_file_and_held_bytes(self, desk_data, desk_index, desk_peos, tmp_path, m):
        ds, _ = desk_data
        routed = desk_peos if m == 128 else attach(desk_index, RoutingConfig(mode=RoutingMode.PEOS, L=8, m=m))
        assert routed.n_base_edges >= 100_000
        path = tmp_path / "desk_peos.idx"
        save_index(routed, path)
        peak, loaded = _traced_load(path, ds)
        # the dataset was allocated before tracing began; everything else the index holds was not
        held = sum(b.nbytes for b in _array_roots(loaded) if b is not ds.vectors)
        assert peak <= path.stat().st_size + held + 5_000_000

    def test_plain_desk_graph_peak(self, desk_data, desk_index, tmp_path):
        ds, _ = desk_data
        path = tmp_path / "desk.idx"
        save_index(desk_index, path)
        peak, _ = _traced_load(path, ds)
        assert peak <= 40_000_000

    @pytest.mark.parametrize("name", list(_LOAD_CONFIGS))
    def test_loaded_arrays_own_their_memory(self, small, name, tmp_path):
        ds, _, idx = small
        path = tmp_path / "routed.idx"
        save_index(attach(idx, _LOAD_CONFIGS[name]), path)
        loaded = load_index(path, ds)
        # a view into the file's buffer would keep the whole file alive, uncounted
        assert all(b.flags.owndata for b in _array_roots(loaded))
        per_edge = [(loaded.base_indptr, np.int64), (loaded.base_indices, np.int32)]
        per_edge += [(row, np.int32) for nodes in loaded.upper.values() for row in nodes.values()]
        store = loaded.routing.store if loaded.routing else None
        if store is not None:
            norm_dtype = np.uint8 if store.cfg.compact else np.dtype("<u2")
            per_edge.append((store.enorm_q, norm_dtype))
            per_edge.append((store.sketches if store.rec is None else store.rec, np.uint8))
        for arr, dtype in per_edge:
            assert arr.dtype == dtype and arr.flags.c_contiguous

    @pytest.mark.parametrize("name", list(_LOAD_CONFIGS))
    def test_loaded_equals_saved_bitwise(self, twins, name, tmp_path, monkeypatch):
        metric, _, idx = twins
        routed = attach(idx, _LOAD_CONFIGS[name])
        path = tmp_path / "routed.idx"
        save_index(routed, path)
        monkeypatch.setattr(hnsw_mod, "_NORM_ROWS", idx.n - 1)  # the loaded norms end on a one-row span
        loaded = load_index(path, idx.dataset)
        vf = idx.dataset.vectors.astype(np.float64)
        assert _same_bits(loaded._sqn, np.einsum("ij,ij->i", vf, vf))
        for a, b in [(loaded._sqn, routed._sqn),
                     (loaded.base_indptr, routed.base_indptr), (loaded.base_indices, routed.base_indices)]:
            assert _same_bits(a, b)
        assert (loaded._norms is None) == (metric != Metric.ANGULAR) == (routed._norms is None)
        if metric == Metric.ANGULAR:  # the only metric whose keys read the norms
            assert _same_bits(loaded._norms, routed._norms)
        assert loaded.upper.keys() == routed.upper.keys()
        for lev, nodes in routed.upper.items():
            assert loaded.upper[lev].keys() == nodes.keys()
            assert all(_same_bits(loaded.upper[lev][v], row) for v, row in nodes.items())
        if routed.routing is None:
            assert loaded.routing is None
            return
        got, want = loaded.routing.store, routed.routing.store
        assert got.dst is loaded.base_indices and want.dst is routed.base_indices  # shared, not copied
        for field in ("rec", "sketches", "enorm_q", "enorm_tab"):
            a, b = getattr(got, field), getattr(want, field)
            assert (a is None and b is None) or _same_bits(a, b)
        if metric == Metric.L2:  # the gate's row terms are each index's own
            assert got.row is loaded._sqn and want.row is routed._sqn
        elif metric == Metric.ANGULAR:
            assert got.row is loaded._norms and want.row is routed._norms
        else:
            assert got.row is None and want.row is None

    @pytest.mark.parametrize("name", list(_LOAD_CONFIGS))
    def test_half_norm_is_exact_after_attach_and_load(self, twins, name, tmp_path):
        """The gate reads each target's row term from the index's own, whether attach built
        the store or load read it: the store keeps _sqn itself on L2 and _norms on angular,
        and a block gathers it bit for bit. IP stores keep no norms and gather none."""
        metric, _, idx = twins
        routed = attach(idx, _LOAD_CONFIGS[name])
        path = tmp_path / "routed.idx"
        save_index(routed, path)
        loaded = load_index(path, idx.dataset)
        if routed.routing is None:
            assert loaded.routing is None
            return
        for index in (routed, loaded):
            store = index.routing.store
            slots = np.arange(0, store.n_edges, 3)
            block = store.block(slots, store.dst[slots].astype(np.intp))
            if metric == Metric.L2:
                assert store.row is index._sqn and _same_bits(index._sqn, idx._sqn)
                assert _same_bits(block.row, idx._sqn[store.dst[slots]])
            elif metric == Metric.ANGULAR:
                assert store.row is index._norms and _same_bits(index._norms, idx._norms)
                assert _same_bits(block.row, idx._norms[store.dst[slots]])
            else:
                assert store.row is None and block.row is None


class TestLiveGateEquivalence:
    """Every batch-gate call that real searches make agrees edge by edge with the scalar reference."""

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
        fused = query_mod.batch_peos_test

        def checked(block, tbl, qpt, thr, metric=Metric.L2):
            out = fused(block, tbl, qpt, thr, metric)
            expect = [peos_test(meta_at(routed, int(s)), tbl, qpt, thr, metric) for s in block.slots]
            np.testing.assert_array_equal(out, expect)
            ar = np.array([compute_Ar(meta_at(routed, int(s)), thr, qpt.qnorm, metric) for s in block.slots])
            seen["edges"] += len(out)
            seen["tested"] += int(np.count_nonzero(np.abs(ar) < 1.0))
            seen["zero_norm"] += int(np.count_nonzero(ar == -math.inf))
            return out

        monkeypatch.setattr(query_mod, "batch_peos_test", checked)
        params = SearchParams(K=5, efs=12, routing=cfg)
        for q in queries:
            search(routed, q, params)
        assert seen["tested"] >= 200 and seen["zero_norm"] > 0

    @pytest.mark.parametrize("bits", [32, 64, 128])
    def test_simhash_matches_scalar_on_every_hop(self, twins, monkeypatch, bits):
        metric, queries, idx = twins
        cfg = RoutingConfig(mode=RoutingMode.SIMHASH, eps=0.2, simhash_bits=bits)
        routed = attach(idx, cfg)
        store = routed.routing.store
        seen = collections.Counter()
        hop = {}
        batch_ar, fused = query_mod.batch_ar, query_mod.batch_simhash_test

        def recorded_ar(block, thr, qnorm, m):
            hop.update(slots=block.slots, thr=thr, qnorm=qnorm)
            return batch_ar(block, thr, qnorm, m)

        def checked(sketches, qsketch, ar, eps):
            out = fused(sketches, qsketch, ar, eps)
            assert len(out) == hop["slots"].size
            for s, got in zip(hop["slots"].tolist(), out):
                # compute_Ar reads only the squared norm and the edge-norm code of a record
                meta = EdgeMeta(ext_ids=(), w_reg_q=255, w_res_q=0, var_idx=0,
                                u_sq=float(idx._sqn[store.dst[s]]), enorm_q=int(store.enorm_q[s]),
                                quant=store.quant)
                ar_ref = compute_Ar(meta, hop["thr"], hop["qnorm"], metric)
                sketch = SimHashSketch(bits=store.sketches[s], n=cfg.simhash_bits)
                assert got == simhash_test(sketch, qsketch, ar_ref, eps)
                seen["edges"] += 1
                seen["tested"] += 0.0 < ar_ref < 1.0
            return out

        monkeypatch.setattr(query_mod, "batch_ar", recorded_ar)
        monkeypatch.setattr(query_mod, "batch_simhash_test", checked)
        params = SearchParams(K=5, efs=12, routing=cfg)
        for q in queries:
            search(routed, q, params)
        if metric == Metric.IP:  # the popped node's key beats the worst result's, so every A_r <= 0
            assert seen["edges"] >= 200 and seen["tested"] == 0
        else:
            assert seen["tested"] >= 200

    def test_simhash_query_sketched_as_the_edges_are(self, monkeypatch):
        """Asked to permute, SimHash attach keeps the identity plan, and the sketch search makes
        of a vector equals the sketch attach stored for the same vector as an edge residual."""
        ds, _ = synthetic_dataset(600, 32, 1, seed=5)
        idx = build_hnsw(ds, M=8, efc=40, metric=Metric.L2, seed=5)
        cfg = RoutingConfig(mode=RoutingMode.SIMHASH, eps=0.2, simhash_bits=64)
        routed = attach(idx, cfg, permute=True)
        assert routed.routing.plan.L == 1
        np.testing.assert_array_equal(routed.routing.plan.perm, np.arange(idx.dim))
        made = []
        sketch = query_mod.simhash_sketch
        monkeypatch.setattr(query_mod, "simhash_sketch", lambda q, hashes: made.append(sketch(q, hashes)) or made[-1])
        store, V = routed.routing.store, ds.vectors.astype(np.float64)
        src = np.repeat(np.arange(idx.n), np.diff(idx.base_indptr))
        for s in range(0, idx.n_base_edges, idx.n_base_edges // 20):
            search(routed, V[store.dst[s]] - V[src[s]], SearchParams(K=5, efs=12, routing=cfg))
            np.testing.assert_array_equal(made[-1].bits, store.sketches[s])


@pytest.fixture(scope="module", params=list(Metric), ids=lambda m: m.value)
def spread_graph(request):
    """A 1,500-point graph of each metric over vectors whose norms spread from 0.3x to 3x."""
    ds, queries = synthetic_dataset(1500, 32, 12, seed=17)
    return request.param, queries, build_hnsw(Dataset(spread_norms(ds.vectors, 17)), M=8, efc=40,
                                              metric=request.param, seed=17)


class TestArGeometry:
    """A_r is the cosine cos(e, q) at which an edge's target ties the worst result."""

    def test_cosine_beyond_ar_decides_the_key(self, spread_graph, monkeypatch):
        """On every gated hop of real searches, with the block's edge norms exact in float64,
        an edge whose cos(e, q) beats A_r by 1e-9 has a target key below the worst key, and
        one whose cos(e, q) falls 1e-9 short of it has a target key above it."""
        metric, queries, idx = spread_graph
        cfg = RoutingConfig(mode=RoutingMode.PEOS, eps=0.2, L=4, m=16)
        routed = attach(idx, cfg)
        dst = routed.routing.store.dst
        V = idx.dataset.vectors.astype(np.float64)
        src = np.repeat(np.arange(idx.n), np.diff(idx.base_indptr))
        fused, query, seen = query_mod.batch_peos_test, {}, collections.Counter()

        def checked(block, tbl, qpt, thr, m=Metric.L2):
            q, u = query["q"], dst[block.slots]
            e = V[u] - V[src[block.slots]]
            enorm = np.linalg.norm(e, axis=1)
            ar = batch_ar(EdgeMetaBlock(block.slots, block.row, enorm, float(enorm.min())), thr, qpt.qnorm, m)
            cos = (e @ q) / (enorm * qpt.qnorm)
            keys = hnsw_mod.ordering_keys(m, V[u] @ q, idx._row[u], float(q @ q), qpt.qnorm)
            above, below = cos > ar + 1e-9, cos < ar - 1e-9
            assert np.all(keys[above] < thr[0]) and np.all(keys[below] > thr[0])
            seen["above"] += int(above.sum())
            seen["below"] += int(below.sum())
            return fused(block, tbl, qpt, thr, m)

        monkeypatch.setattr(query_mod, "batch_peos_test", checked)
        for q in queries:
            query["q"] = q.astype(np.float64)
            search(routed, q, SearchParams(K=10, efs=40, routing=cfg))
        assert min(seen.values()) >= 200, seen


# byte positions in the index header (see save_index)
_ENTRY_AT = struct.calcsize("<4sIBIQIIQ")
_M_AT = struct.calcsize("<4sIBIQ")
_L_AT = struct.calcsize("<4sIBIQIIQQIQB")  # also where a plain file's base degrees begin
_ENORM_AT = _L_AT + struct.calcsize("<IIBIQH") + len(RNG_ID)  # the edge-norm quantizer's lo, hi, bits
_PERM_AT = _ENORM_AT + struct.calcsize("<ddB")


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


def _repeated_base_id(idx):
    bad = copy.copy(idx)
    bad.base_indices = idx.base_indices.copy()
    beg = int(np.argmax(np.diff(idx.base_indptr) >= 2))
    bad.base_indices[beg + 1] = idx.base_indices[beg]  # the row stays sorted
    return bad


def _repeated_upper_id(idx):
    bad = copy.copy(idx)
    bad.upper = {lev: dict(nodes) for lev, nodes in idx.upper.items()}
    v, row = next((v, row) for v, row in bad.upper[1].items() if row.size >= 2)
    bad.upper[1][v] = np.concatenate((row[:1], row[:1], row[2:]))
    return bad


def _unsorted_base_row(idx):
    bad = copy.copy(idx)
    bad.base_indices = idx.base_indices.copy()
    beg = int(np.argmax(np.diff(idx.base_indptr) >= 2))
    bad.base_indices[beg : beg + 2] = idx.base_indices[beg : beg + 2][::-1]
    return bad


def _unsorted_upper_row(idx):
    bad = copy.copy(idx)
    bad.upper = {lev: dict(nodes) for lev, nodes in idx.upper.items()}
    v, row = next((v, row) for v, row in bad.upper[1].items() if row.size >= 2)
    bad.upper[1][v] = row[::-1].copy()
    return bad


def _negative_base_id(idx):
    bad = copy.copy(idx)
    bad.base_indices = idx.base_indices.copy()
    bad.base_indices[0] = -1  # the first row stays sorted
    return bad


def _base_degree_above_2M(idx):
    bad = copy.copy(idx)
    bad.M = idx.M // 2
    assert np.diff(idx.base_indptr).max() > 2 * bad.M
    return bad


def _upper_degree_above_M(idx):
    bad = copy.copy(idx)
    bad.upper = {lev: dict(nodes) for lev, nodes in idx.upper.items()}
    v = next(iter(bad.upper[1]))
    bad.upper[1][v] = np.array([u for u in range(idx.M + 2) if u != v][: idx.M + 1], dtype=np.int32)
    return bad


def _upper_node_out_of_range(idx):
    bad = copy.copy(idx)
    bad.upper = {lev: dict(nodes) for lev, nodes in idx.upper.items()}
    bad.upper[1][idx.n] = np.array([0], dtype=np.int32)
    return bad


def _entry_out_of_range(idx):
    bad = copy.copy(idx)
    bad.entry = idx.n
    return bad


def _save_unchecked(idx, path) -> None:
    """Write idx as save_index does but without its level checks, so a test can hand load
    a graph that save refuses."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(indexfile, "_check_level", lambda *args: None)
        save_index(idx, path)


def _upper_nodes_at(idx) -> int:
    """Where a plain file's level-1 node ids begin: after the base degrees and deltas, and the node count."""
    return _L_AT + 4 * idx.n + 4 * idx.n_base_edges + 8


def _v1_records(store, half_codes=None) -> np.ndarray:
    """store's records in format 1's layout: the lead fields, then the target's half-norm
    code (half_codes, zeros of its width by default) and the edge-norm code, each little-endian."""
    half_codes = np.zeros_like(store.enorm_q) if half_codes is None else half_codes
    codes = [a.view(np.uint8).reshape(store.n_edges, store.enorm_q.itemsize) for a in (half_codes, store.enorm_q)]
    return np.concatenate((store._lead(), *codes), axis=1)


def _v1_half_codes(store, sqn) -> np.ndarray:
    """Format 1's half-norm column: each edge's target |u|^2/2, half its squared norm in sqn,
    rounded down to a code of the min/max quantizer over the edges' targets, as wide as the
    edge-norm code."""
    half = (0.5 * sqn).take(store.dst)
    lo, hi = float(half.min()), float(half.max())
    if hi <= lo:
        return np.zeros_like(store.enorm_q)
    levels = (1 << (8 * store.enorm_q.itemsize)) - 1
    return np.clip(np.floor((half - lo) / (hi - lo) * levels), 0, levels).astype(store.enorm_q.dtype)


def _reseal_records(path, store, records: np.ndarray) -> None:
    """Replace the edge records of store's saved file, which end the payload, and recompute the checksum."""
    raw = path.read_bytes()[:-8]
    raw = raw[: len(raw) - store.wire_records().nbytes] + records.tobytes()
    path.write_bytes(raw + hashlib.blake2b(raw, digest_size=8).digest())


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
        pytest.param(_ENORM_AT, "d", math.nan, id="enorm_lo_nan"),
        pytest.param(_ENORM_AT + 8, "d", math.inf, id="enorm_hi_inf"),
        pytest.param(_ENORM_AT, "d", 1e30, id="enorm_hi_below_lo"),
        pytest.param(_ENORM_AT + 8, "d", 1.7e308, id="enorm_decode_overflows"),
        pytest.param(_ENORM_AT, "d", -1.0, id="enorm_lo_negative"),
        pytest.param(_ENORM_AT + 16, "B", 0, id="enorm_bits_0"),
        pytest.param(_ENORM_AT + 16, "B", 8, id="enorm_bits_8_not_compact"),
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
        _save_unchecked(corrupt(idx), path)
        with pytest.raises(FormatError):
            load_index(path, ds)

    @pytest.mark.parametrize("corrupt", [_repeated_base_id, _repeated_upper_id], ids=["base", "upper"])
    def test_repeated_neighbor_id(self, small, tmp_path, corrupt):
        """A row whose second id equals its first: search would return that id twice."""
        ds, _, idx = small
        path = tmp_path / "bad.idx"
        _save_unchecked(corrupt(idx), path)
        with pytest.raises(FormatError, match="repeats an id"):
            load_index(path, ds)

    def test_upper_degree_above_M(self, small, tmp_path):
        ds, _, idx = small
        path = tmp_path / "bad.idx"
        _save_unchecked(_upper_degree_above_M(idx), path)
        with pytest.raises(FormatError, match=f"degree exceeds {idx.M}"):
            load_index(path, ds)

    @pytest.mark.parametrize("corrupt,match", [
        pytest.param(_entry_out_of_range, "entry point", id="entry"),
        pytest.param(_bad_base_id, "level-0 neighbor id is outside", id="base_id_n"),
        pytest.param(_negative_base_id, "level-0 neighbor id is outside", id="base_id_negative"),
        pytest.param(_bad_upper_id, "level-1 neighbor id is outside", id="upper_id_n"),
        pytest.param(_repeated_base_id, "level-0 neighbor list is not strictly ascending", id="base_repeat"),
        pytest.param(_repeated_upper_id, "level-1 neighbor list is not strictly ascending", id="upper_repeat"),
        pytest.param(_unsorted_base_row, "level-0 neighbor list is not strictly ascending", id="base_unsorted"),
        pytest.param(_unsorted_upper_row, "level-1 neighbor list is not strictly ascending", id="upper_unsorted"),
        pytest.param(_base_degree_above_2M, "level-0 degree exceeds", id="base_degree"),
        pytest.param(_upper_degree_above_M, "level-1 degree exceeds", id="upper_degree"),
        pytest.param(_upper_node_out_of_range, "level-1 node id is outside", id="upper_node"),
    ])
    def test_save_refuses_what_load_refuses(self, small, tmp_path, corrupt, match):
        """save_index checks each level before it opens the file, so it writes nothing."""
        _, _, idx = small
        path = tmp_path / "bad.idx"
        with pytest.raises(UsageError, match=match):
            save_index(corrupt(idx), path)
        assert not path.exists()

    @pytest.mark.parametrize("second", ["first", "below_first"])
    def test_upper_node_list_not_ascending(self, small, tmp_path, second):
        """The second id of the level-1 node list made equal to, then lower than, the first."""
        ds, _, idx = small
        path = tmp_path / "bad.idx"
        save_index(idx, path)
        at = _upper_nodes_at(idx)
        first = struct.unpack_from("<I", path.read_bytes(), at)[0]
        assert first > 0
        _reseal(path, at + 4, "I", first if second == "first" else first - 1)
        with pytest.raises(FormatError, match="not ascending"):
            load_index(path, ds)

    def test_upper_node_out_of_range(self, small, tmp_path):
        ds, _, idx = small
        path = tmp_path / "bad.idx"
        save_index(idx, path)
        nodes_at = _upper_nodes_at(idx)
        _reseal(path, nodes_at + 4 * (len(idx.upper[1]) - 1), "I", idx.n)  # the last, highest id
        with pytest.raises(FormatError):
            load_index(path, ds)

    def test_compact_quantizer_needs_8_bits(self, small, tmp_path):
        ds, _, idx = small
        path = tmp_path / "compact.idx"
        save_index(attach(idx, RoutingConfig(mode=RoutingMode.PEOS, L=4, m=64, compact=True)), path)
        load_index(path, ds)
        _reseal(path, _ENORM_AT + 16, "B", 16)
        with pytest.raises(FormatError):
            load_index(path, ds)

    def test_compact_flag_above_1_refused(self, small, tmp_path):
        """The compact flag is a byte that holds 0 or 1; a compact file with 2 there would
        load as compact and save back a different file."""
        ds, _, idx = small
        path = tmp_path / "compact.idx"
        save_index(attach(idx, _STORE_CONFIGS["compact_L4"]), path)
        load_index(path, ds)
        _reseal(path, _L_AT + 8, "B", 2)
        with pytest.raises(FormatError, match="compact flag 2"):
            load_index(path, ds)

    def test_simhash_with_compact_flag_refused(self, small, tmp_path):
        """SimHash has no compact form. Older attach took the flag for SimHash and fitted 8-bit
        quantizers, and format 1 loaded such files; format 2 and 3 refuse the header."""
        ds, _, idx = small
        path = tmp_path / "sh.idx"
        save_index(attach(idx, _STORE_CONFIGS["simhash_64"]), path)
        load_index(path, ds)
        _reseal(path, _L_AT + 8, "B", 1)
        with pytest.raises(FormatError, match="bad routing header"):
            load_index(path, ds)
        _reseal(path, _ENORM_AT + 16, "B", 8)
        with pytest.raises(FormatError, match="bad routing header"):
            load_index(path, ds)

    def test_simhash_compact_rejected(self):
        with pytest.raises(UsageError):
            RoutingConfig(mode=RoutingMode.SIMHASH, eps=0.2, simhash_bits=64, compact=True)

    @pytest.mark.parametrize("routed", [False, True], ids=["plain", "peos"])
    def test_bytes_after_last_section(self, small, small_peos, tmp_path, routed):
        ds, _, idx = small
        path = tmp_path / "long.idx"
        save_index(small_peos if routed else idx, path)
        raw = path.read_bytes()[:-8] + bytes(16)
        path.write_bytes(raw + hashlib.blake2b(raw, digest_size=8).digest())
        with pytest.raises(FormatError):
            load_index(path, ds)

    @pytest.mark.parametrize("name", ["peos_L4", "compact_L4", "simhash_64"])
    def test_v1_record_width_refused(self, small, tmp_path, name):
        """A format-3 file resealed with format 1's records, one half-norm code wider each."""
        ds, _, idx = small
        path = tmp_path / "bad.idx"
        routed = attach(idx, _STORE_CONFIGS[name])
        save_index(routed, path)
        load_index(path, ds)
        _reseal_records(path, routed.routing.store, _v1_records(routed.routing.store))
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
# Re-recorded when the upper-layer descent began to score each node at most once
# per level: the ids and the base-layer counters (hops, tests_evaluated,
# tests_passed, and the since-deleted count of per-hop v.q products) are as
# before, and dist_computations and ungated fell by the same 2-18 per query. The
# counters are hashed by name, so a new SearchStats field leaves the digest as it
# is. Re-recorded when the gate began to read each target's exact half-norm in
# place of its 16-bit code rounded down: the 20 queries' ids are as before; on 5 of
# them dist_computations and tests_passed each fell by 1, and every other counter
# is as before. Re-recorded when the gate began to take A_r from the popped node's
# key and the v.q count went: the old code's digest over these five counters is
# this one, so no id or remaining counter moved.
GOLDEN_PEOS_DIGEST = "f8c7dad153d0df4d8798e87410409840"
GOLDEN_COUNTERS = ("dist_computations", "tests_evaluated", "tests_passed", "hops", "ungated")


class TestBitStability:
    def test_golden_peos_ids(self, desk_data, desk_peos, desk_peos_cfg):
        _, queries = desk_data
        params = SearchParams(K=100, efs=500, routing=desk_peos_cfg)
        scratch = desk_peos.make_scratch()
        h = hashlib.blake2b(digest_size=16)
        for q in queries[:20]:
            ids, st = search(desk_peos, q, params, scratch=scratch)
            h.update(ids.astype("<i8").tobytes())
            h.update(np.array([getattr(st, name) for name in GOLDEN_COUNTERS], dtype="<i8").tobytes())
        assert h.hexdigest() == GOLDEN_PEOS_DIGEST


def _handmade(idx):
    """The CSR of idx with one-way edges, a self-loop and repeated ids added; rows stay sorted."""
    rows = [idx.neighbors(v).tolist() for v in range(idx.n)]
    lo = [v for v in range(idx.n) if len(rows[v]) <= 2 * idx.M - 3]
    a, b, c, d, e = lo[:5]
    rows[a].append(a)  # self-loop
    u = next(u for u in rows[b] if b in rows[u])
    rows[b].append(u)  # a repeated id whose reverse edge exists once
    w = next(w for w in rows[c] if c in rows[w] and len(rows[w]) <= 2 * idx.M - 3)
    rows[c].append(w)  # a pair whose both ends repeat the other
    rows[w].append(c)
    for v in (d, e):  # one-way edges: drop the reverse of a reciprocal edge, add a new edge
        rows[next(x for x in rows[v] if v in rows[x])].remove(v)
        rows[v].append(next(x for x in range(idx.n - 1, v, -1) if x not in rows[v] and v not in rows[x]))
    out = copy.copy(idx)
    out.base_indptr = np.concatenate(([0], np.cumsum([len(r) for r in rows]))).astype(np.int64)
    out.base_indices = np.concatenate([sorted(r) for r in rows]).astype(np.int32)
    return out


@pytest.fixture(scope="module")
def golden_graphs(small):
    """The graphs the golden attach cases run on. The hand-made one repeats ids, which
    load refuses, so it is attached in memory."""
    _, _, idx = small
    return {"small": idx, "twins": _twin_graph(Metric.L2)[1], "handmade": _handmade(idx)}


# blake2b-128 of the store's records in format 1's layout (_v1_records) with format 1's
# half-norm codes, which _v1_half_codes derives from the vectors as attach once did; recorded with
# every edge's record computed from its own residual, before attach derived a reverse
# edge's record from its pair. The `small` cases were recorded with the 65,536-edge
# attach chunks, before attach streamed 1,024-edge chunks through a signed argmax/argmin
# pick.
# At m=128 the ids +128 and -128 occur, and -128 has no byte.
_PEOS_L8_M128 = RoutingConfig(mode=RoutingMode.PEOS, eps=0.2, L=8, m=128)
GOLDEN_ATTACH = {
    "peos_L4_m64": ("small", RoutingConfig(mode=RoutingMode.PEOS, eps=0.2, L=4, m=64), False,
                    "496b7268b10028686081d168dd3fe285"),
    "compact_L4": ("small", RoutingConfig(mode=RoutingMode.PEOS, eps=0.2, L=4, m=64, compact=True), False,
                   "d866bd0f1ebd8d89f9acdc005e31b543"),
    "rceos_L1": ("small", RoutingConfig(mode=RoutingMode.RCEOS, eps=0.2, L=1, m=64), False,
                 "57faf64cc9a382b8e7ed03e3c9e9066e"),
    "simhash_64": ("small", RoutingConfig(mode=RoutingMode.SIMHASH, eps=0.2, simhash_bits=64), False,
                   "591b351adf77ca3009bad9bdbbf54dcf"),
    "peos_permute": ("small", RoutingConfig(mode=RoutingMode.PEOS, eps=0.2, L=4, m=64), True,
                     "f7b2663d397ff70cc9b5497011415bed"),
    "twins_peos_L8_m128": ("twins", _PEOS_L8_M128, False, "613d227dc8ca58ce953359b4316dd83a"),
    "handmade_peos_L8_m128": ("handmade", _PEOS_L8_M128, True, "d854f13d77d4d0cfeb593809ef3a4050"),
    "handmade_compact_m128": ("handmade", RoutingConfig(mode=RoutingMode.PEOS, eps=0.2, L=4, m=128, compact=True),
                              False, "91c43e6eec461e50535fb2023b96bbb3"),
    "handmade_rceos_m128": ("handmade", RoutingConfig(mode=RoutingMode.RCEOS, eps=0.2, L=1, m=128), False,
                            "727834b04c14c237cba53af1450dfb52"),
    "handmade_simhash_64": ("handmade", RoutingConfig(mode=RoutingMode.SIMHASH, eps=0.2, simhash_bits=64),
                            False, "b591e4a25fab75514b1e0b3a8fb3b298"),
    "twins_simhash_64": ("twins", RoutingConfig(mode=RoutingMode.SIMHASH, eps=0.2, simhash_bits=64), False,
                         "25634467ca6beb2f932d6ce5cf16c33c"),
}


def _golden_routed(graphs, name):
    graph, cfg, permute, _ = GOLDEN_ATTACH[name]
    return attach(graphs[graph], cfg, permute=permute)


def _v1_digest(routed) -> str:
    store = routed.routing.store
    records = _v1_records(store, _v1_half_codes(store, routed._sqn))
    return hashlib.blake2b(records.tobytes(), digest_size=16).hexdigest()


class TestGoldenAttach:
    @pytest.mark.parametrize("name", list(GOLDEN_ATTACH))
    def test_wire_bytes(self, golden_graphs, name):
        routed = _golden_routed(golden_graphs, name)
        store = routed.routing.store
        assert _v1_digest(routed) == GOLDEN_ATTACH[name][3]
        # format 2 writes the lead fields, then the edge-norm code: format 1's records less the half-norm code
        width = store.enorm_q.itemsize
        np.testing.assert_array_equal(store.wire_records(),
                                      np.delete(_v1_records(store), np.s_[-2 * width : -width], axis=1))

    @pytest.mark.parametrize("tail", [None, 1], ids=["one_chunk", "tail_1"])
    def test_chunk_size_does_not_change_bytes(self, golden_graphs, monkeypatch, tail):
        """The old one-chunk size, and a chunk size that leaves a 1-edge tail."""
        E = golden_graphs["small"].n_base_edges
        chunk = 1 << 16 if tail is None else next(c for c in range(64, E) if E % c == tail)
        monkeypatch.setattr(edgestore, "_ATTACH_CHUNK", chunk)
        for name, (_, _, _, digest) in GOLDEN_ATTACH.items():
            assert _v1_digest(_golden_routed(golden_graphs, name)) == digest, name

    @pytest.mark.parametrize("name", list(GOLDEN_ATTACH))
    def test_half_norm_column_is_target_code(self, golden_graphs, name, tmp_path):
        """Format 1 wrote each edge's target half-norm code in its record; no file holds
        half-norms now. The golden graphs are L2, so the store reads the squared norms of
        the index it serves, after attach and after a save -> load round trip alike, and
        row[dst] is each edge's own target's exact |u|^2. The hand-made graph repeats ids,
        which no file may hold, so its records are read back in memory."""
        graph, cfg, permute, _ = GOLDEN_ATTACH[name]
        idx = golden_graphs[graph]
        routed = attach(idx, cfg, permute=permute)
        store = routed.routing.store
        if graph == "handmade":
            served = idx
            loaded = edgestore.EdgeMetaStore.from_wire(memoryview(store.wire_records().reshape(-1)), idx, cfg,
                                                       store.quant)
        else:
            path = tmp_path / "routed.idx"
            save_index(routed, path)
            served = load_index(path, idx.dataset)
            loaded = served.routing.store
        assert store.wire_records().shape[1] == store._lead().shape[1] + store.enorm_q.itemsize
        assert store.row is idx._sqn and loaded.row is served._sqn and _same_bits(loaded.row, idx._sqn)

    @pytest.mark.parametrize("name", list(GOLDEN_ATTACH))
    def test_reverse_edge_holds_negated_ids(self, golden_graphs, name):
        """The residual of v->u is minus that of u->v: every id flips sign, every other code is equal.

        The one exception is +-128: +128 has a byte and -128 does not, so a
        pair whose ids are +128 and -128 stores 128 on one side and the null
        byte 0 on the other. A SimHash bit is the sign of a product with the
        residual: where the forward product is non-zero the reverse edge
        holds the complement bit, and a zero product is a one bit both ways.
        """
        graph, cfg, permute, _ = GOLDEN_ATTACH[name]
        idx = golden_graphs[graph]
        att = attach(idx, cfg, permute=permute).routing
        store = att.store
        src = np.repeat(np.arange(idx.n), np.diff(idx.base_indptr)).tolist()
        dst = idx.base_indices.tolist()
        slots = collections.defaultdict(list)
        for s, edge in enumerate(zip(src, dst)):
            slots[edge].append(s)
        pairs = [(s, r) for s, (v, u) in enumerate(zip(src, dst)) for r in slots[u, v]]
        fwd, rev = np.array(pairs).T
        np.testing.assert_array_equal(store.enorm_q[fwd], store.enorm_q[rev])
        if cfg.mode == RoutingMode.SIMHASH:
            V = idx.dataset.vectors.astype(np.float64)
            e = V[np.array(dst)[fwd]] - V[np.array(src)[fwd]]
            prod = e[:, att.plan.perm] @ att.hashes[:, att.plan.perm].T
            a, b = (np.unpackbits(store.sketches[x], axis=1).astype(bool) for x in (fwd, rev))
            assert np.all((b == ~a) | (prod == 0.0)) and np.all(a[prod == 0.0] & b[prod == 0.0])
            zero = ~e.any(axis=1)  # the twins' duplicated points and the hand-made self-loop
            assert zero.any() == (graph != "small")
            assert np.all(a[zero]) and np.all(b[zero])
            return
        a, b = store.ids[fwd].astype(np.int16), store.ids[rev].astype(np.int16)
        negated = np.where(a == 0, 0, np.where(a <= 128, 128 + a, a - 128))
        flip = (a == 128) & (b == 0) | (a == 0) & (b == 128)
        assert np.all((b == negated) & (a != 128) | flip)
        assert flip.any() == (cfg.m == 128)
        width = store.ids.shape[1]  # the weight and variance codes follow the ids
        np.testing.assert_array_equal(store.rec[fwd, width:], store.rec[rev, width:])
        if graph == "twins":  # the duplicated points give zero residuals: null ids on both sides
            assert np.any(store.enorm_q[fwd] == 0) and np.all(a[store.enorm_q[fwd] == 0] == 0)
        if graph == "handmade":  # the self-loop is its own reverse
            assert np.any(fwd == rev)

    @pytest.mark.parametrize("n_edges", [0, 1, 700, 1024, 1025, 3000, 4096])
    def test_every_span_is_full_length(self, n_edges):
        """A matmul of few rows rounds differently, so no span may be a short tail."""
        full = min(edgestore._ATTACH_CHUNK, n_edges)
        covered = np.zeros(n_edges, dtype=bool)
        for lo, hi in edgestore._attach_spans(n_edges):
            assert hi - lo == full
            covered[lo:hi] = True
        assert covered.all()


def _reference_signed_pick(prods):
    """The signed pick as argmax of |prods|, the rule the ids were defined with."""
    j = np.argmax(np.abs(prods), axis=1)
    signs = np.where(prods[np.arange(prods.shape[0]), j] >= 0.0, 1, -1)
    return (signs * (j + 1)).astype(np.int16)


class TestSignedPick:
    @pytest.mark.parametrize("row,expect", [
        ([3.0, -3.0, 1.0], 1),  # |max| == |min|, max first
        ([-3.0, 3.0, 1.0], -1),  # |max| == |min|, min first
        ([1.0, 5.0, 5.0, -2.0], 2),  # repeated maxima
        ([-5.0, 1.0, -5.0], -1),  # repeated minima
        ([2.0, -1.0, -7.0, 7.0], -3),
        ([0.0, 0.0, 0.0], 1),
        ([-0.0, -0.0], 1),  # -0.0 >= 0.0
        ([-0.0, 0.0, -0.0], 1),
    ])
    def test_rows(self, row, expect):
        prods = np.array([row])
        assert edgestore._signed_argmax_rows(prods)[0] == expect
        np.testing.assert_array_equal(edgestore._signed_argmax_rows(prods), _reference_signed_pick(prods))

    def test_minus_128_maps_to_null(self):
        """The pick keeps -128; its encoding, of the pick or of a negated +128, is the null byte."""
        prods = np.zeros((2, 128))
        prods[0, 127] = -2.0  # id -128 does not fit a byte
        prods[1, 127] = 2.0  # id +128 does
        out = edgestore._signed_argmax_rows(prods)
        assert out.dtype == np.int16
        np.testing.assert_array_equal(out, [-128, 128])
        np.testing.assert_array_equal(encode_id_bytes(out), [0, 128])
        np.testing.assert_array_equal(encode_id_bytes(-out), [128, 0])

    @pytest.mark.parametrize("width", [2, 16, 128])
    def test_matches_abs_argmax_on_random_rows(self, width):
        rng = np.random.default_rng(width)
        smooth = rng.standard_normal((500, width))
        ties = rng.integers(-3, 4, size=(500, width)).astype(np.float64)  # many |max| == |min| ties
        ties[ties == 0.0] = -0.0
        for prods in (smooth, ties, -ties):
            np.testing.assert_array_equal(edgestore._signed_argmax_rows(prods), _reference_signed_pick(prods))
