"""Benchmark harness tests on tiny datasets."""

import numpy as np
import pytest

from annroute import (
    BenchmarkSpec,
    Dataset,
    Metric,
    RoutingConfig,
    RoutingMode,
    UsageError,
    brute_force_all,
    build_hnsw,
    compute_recall,
)
from annroute import bench as bench_mod
from annroute.bench import CSV_HEADER, load_inputs, run_audit, run_sweep, synthetic_dataset
from annroute.edgestore import attach


class TestComputeRecall:
    def test_perfect(self):
        truth = np.arange(20).reshape(2, 10)
        assert compute_recall([truth[0], truth[1]], truth, 10) == 1.0

    def test_disjoint(self):
        truth = np.arange(20).reshape(2, 10)
        res = [truth[0] + 100, truth[1] + 100]
        assert compute_recall(res, truth, 10) == 0.0

    def test_half_overlap(self):
        truth = np.arange(10).reshape(1, 10)
        res = [np.array([0, 1, 2, 3, 4, 50, 51, 52, 53, 54])]
        assert compute_recall(res, truth, 10) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(UsageError):
            compute_recall([np.arange(5)], np.arange(10).reshape(2, 5), 5)


@pytest.fixture(scope="module")
def tiny_spec():
    return BenchmarkSpec(
        routings=(RoutingConfig(), RoutingConfig(mode=RoutingMode.PEOS, eps=0.2, L=4, m=64)),
        efs_list=(50, 100, 200),
        K=10,
        M=8,
        efc=60,
        seed=5,
        synthetic=(1200, 32, 15),
    )


@pytest.fixture(scope="module")
def tiny_rows(tiny_spec):
    return run_sweep(tiny_spec)


class TestRunSweep:
    def test_grid_shape(self, tiny_rows):
        assert len(tiny_rows) == 6  # 2 routings x 3 efs

    def test_csv_schema(self, tiny_rows, tmp_path):
        path = tmp_path / "out.csv"
        bench_mod.write_csv(tiny_rows, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 7
        assert all(len(line.split(",")) == len(CSV_HEADER.split(",")) for line in lines[1:])

    def test_csv_columns_as_documented(self):
        """The README's column list, and each cell written as its field's declared type."""
        assert CSV_HEADER == "mode,epsilon,L,m,compact,efs,K,recall,qps,dist_comps,pass_frac,wall_ms"
        row = bench_mod.RunResult("peos", 0.2, 4, 64, True, 50, 10, 0.95, 1234.5678, 100.0, 0.5, 12.3456789)
        assert row.csv_row() == "peos,0.2,4,64,1,50,10,0.95,1234.57,100,0.5,12.3457"

    def test_peos_rows_do_fewer_distance_computations(self, tiny_rows):
        by_key = {(r.mode, r.efs): r for r in tiny_rows}
        for efs in (50, 100, 200):
            assert by_key[("peos", efs)].dist_comps < by_key[("none", efs)].dist_comps

    def test_deterministic_rerun(self, tiny_spec, tiny_rows):
        again = run_sweep(tiny_spec)
        for a, b in zip(tiny_rows, again):
            assert a.recall == b.recall and a.dist_comps == b.dist_comps

    def test_none_pass_frac_is_one(self, tiny_rows):
        for r in tiny_rows:
            if r.mode == "none":
                assert r.pass_frac == 1.0

    def test_recall_close_to_none(self, tiny_rows):
        by_key = {(r.mode, r.efs): r for r in tiny_rows}
        for efs in (50, 100, 200):
            assert by_key[("peos", efs)].recall >= by_key[("none", efs)].recall - 0.05


class TestEasyQueriesTopOne:
    def test_efs_equals_K_equals_1(self):
        # greedy descent needs a well-connected graph to hit 95% at efs=1
        ds, _ = synthetic_dataset(1000, 16, 1, seed=8)
        rng = np.random.default_rng(9)
        picks = rng.integers(0, 1000, size=100)
        queries = ds.vectors[picks].astype(np.float64)
        queries += 0.005 * rng.standard_normal(queries.shape)  # easy: near-duplicates
        idx = build_hnsw(ds, M=24, efc=200, metric=Metric.L2, seed=8)
        from annroute import SearchParams, search
        hit = 0
        for pick, q in zip(picks, queries):
            ids, _ = search(idx, q, SearchParams(K=1, efs=1))
            truth = int(brute_force_all(ds, q[None, :], 1, Metric.L2)[0, 0])
            assert truth == pick
            hit += int(ids[0] == truth)
        assert hit >= 0.95 * len(picks)


class TestAudit:
    def test_none_rate_is_one(self):
        ds, queries = synthetic_dataset(1200, 32, 20, seed=6)
        idx = build_hnsw(ds, M=8, efc=60, metric=Metric.L2, seed=6)
        rep = run_audit(idx, queries, RoutingConfig(), efs=200, K=10, min_evaluations=1000)
        assert rep.pass_rate == 1.0 and rep.ok

    def test_eps_half_rate(self):
        ds, queries = synthetic_dataset(1200, 32, 20, seed=6)
        idx = build_hnsw(ds, M=8, efc=60, metric=Metric.L2, seed=6)
        cfg = RoutingConfig(mode=RoutingMode.PEOS, eps=0.5, L=4, m=64)
        gated = attach(idx, cfg)
        rep = run_audit(gated, queries, cfg, efs=200, K=10, min_evaluations=1000)
        assert rep.evaluations >= 1000
        assert rep.pass_rate >= 0.48

    @pytest.mark.parametrize("mode", ["none", "simhash"])
    def test_no_true_improvement_is_refused(self, mode):
        """On copies of one point no gated neighbor beats its threshold, so there is no rate
        to hold to the bound: the audit refuses, as for too few evaluations."""
        point = np.random.default_rng(2).standard_normal(8).astype(np.float32)
        ds = Dataset(np.tile(point, (3000, 1)))
        idx = build_hnsw(ds, M=16, efc=100, metric=Metric.L2, seed=1)
        cfg = RoutingConfig(mode=RoutingMode(mode), eps=0.2, simhash_bits=64)
        with pytest.raises(UsageError, match="none of .* gated evaluations beat its threshold"):
            run_audit(attach(idx, cfg), np.tile(point, (200, 1)), cfg, efs=10, K=10, min_evaluations=1000)

    def test_trials_floor(self):
        ds, queries = synthetic_dataset(500, 16, 5, seed=1)
        idx = build_hnsw(ds, M=4, efc=30, metric=Metric.L2, seed=1)
        with pytest.raises(UsageError):
            run_audit(idx, queries, RoutingConfig(), efs=50, K=5, min_evaluations=100)

    def test_audit_reads_no_answer_key(self, monkeypatch, tmp_path):
        """audit_guarantee loads the corpus and queries alone: no brute-force answers are
        computed, and a truth path that names no file is not written."""
        def refuse(*args):
            raise AssertionError("audit computed an answer key")
        monkeypatch.setattr(bench_mod, "brute_force_all", refuse)
        truth = tmp_path / "gt.ivecs"
        spec = BenchmarkSpec(routings=(RoutingConfig(mode=RoutingMode.PEOS, L=4, m=64),), efs_list=(200,), K=10,
                             M=8, efc=60, seed=6, synthetic=(1200, 32, 20), truth=str(truth))
        (report,) = bench_mod.audit_guarantee(spec, trials=1000)
        assert report.evaluations >= 1000 and not truth.exists()

    def test_shadow_evaluation_changes_no_results(self):
        from annroute import AuditTrace, SearchParams, search
        ds, queries = synthetic_dataset(1200, 32, 10, seed=6)
        idx = build_hnsw(ds, M=8, efc=60, metric=Metric.L2, seed=6)
        cfg = RoutingConfig(mode=RoutingMode.PEOS, eps=0.2, L=4, m=64)
        gated = attach(idx, cfg)
        params = SearchParams(K=10, efs=100, routing=cfg)
        trace = AuditTrace()
        for q in queries:
            plain, _ = search(gated, q, params)
            shadow, _ = search(gated, q, params, audit=trace)
            np.testing.assert_array_equal(plain, shadow)
        assert trace.n_evaluations > 0


class TestLoadInputs:
    def test_truth_cached_as_ivecs(self, tmp_path):
        truth_path = tmp_path / "gt.ivecs"
        spec = BenchmarkSpec(
            routings=(RoutingConfig(),),
            efs_list=(20,),
            K=5,
            seed=3,
            synthetic=(300, 16, 4),
            truth=str(truth_path),
        )
        ds, queries, truth = load_inputs(spec)
        assert truth_path.exists()
        _, _, truth2 = load_inputs(spec)  # second load reads the cache
        np.testing.assert_array_equal(truth, truth2)

    def test_fvecs_paths(self, tmp_path):
        from annroute import save_fvecs
        ds, queries = synthetic_dataset(200, 8, 6, seed=4)
        base, qpath = tmp_path / "b.fvecs", tmp_path / "q.fvecs"
        save_fvecs(ds, base)
        save_fvecs(queries, qpath)
        spec = BenchmarkSpec(
            routings=(RoutingConfig(),), efs_list=(10,), K=5,
            base=str(base), query=str(qpath), seed=4,
        )
        ds2, q2, truth = load_inputs(spec)
        np.testing.assert_array_equal(ds2.vectors, ds.vectors)
        assert truth.shape == (6, 5)

    def test_spec_validation(self):
        with pytest.raises(UsageError):
            BenchmarkSpec(routings=(), efs_list=(10,))
        with pytest.raises(UsageError):
            BenchmarkSpec(routings=(RoutingConfig(),), efs_list=(10,), K=20)
