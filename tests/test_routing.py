"""Routing test suite: decomposition, quantile tables, gates, and analysis quantities."""

import math
from dataclasses import replace

import numpy as np
import pytest

from annroute import (
    Dataset,
    Metric,
    PermutationPlan,
    RoutingConfig,
    RoutingMode,
    ScalarQuantizer,
    SearchParams,
    UsageError,
    attach,
    batch_peos_test,
    build_hnsw,
    build_quantile_table,
    estimate_partition_stats,
    generate_ensemble,
    generate_simhash_hashes,
    project_query,
    required_m_rceos,
    search,
    simhash_sketch,
    synthetic_dataset,
    w_reg_lower_bound,
)
import annroute.query as query_mod
from annroute.hnsw import ordering_keys
from annroute.projections import decode_id_bytes, encode_id_bytes
from annroute.routing import (
    VAR_ROWS,
    X_COLS,
    X_LEFT,
    SimHashSketch,
    batch_ar,
    batch_simhash_test,
    simhash_bounds,
    sketch_words,
    variance_grid,
    var_row_indices,
    x_columns,
)

from oracles import expected_max_abs_normal, inv_norm_cdf, make_gate_trials
from scalar_gate import (
    _edge_statistic,
    build_edge_meta,
    collision_count,
    compute_Ar,
    decompose,
    meta_at,
    peos_test,
    simhash_test,
    simhash_threshold,
)


def exact_enorm(value):
    """An edge-norm quantizer that decodes value exactly (degenerate range)."""
    return ScalarQuantizer(value, value, 16)


class TestDecompose:
    def test_equal_block_norms_collapse(self):
        e = np.tile([3.0, 4.0], 4)  # every block has norm 5
        dec = decompose(e, 4)
        assert dec.w_reg == pytest.approx(1.0)
        assert dec.w_res == pytest.approx(0.0)
        np.testing.assert_allclose(dec.res, 0.0, atol=1e-12)

    def test_orthogonality_and_weight_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            e = rng.standard_normal(32)
            dec = decompose(e, 4)
            reg = np.linalg.norm(e) * dec.w_reg * dec.reg_dir
            assert abs(float(reg @ dec.res)) <= 1e-6 * float(e @ e)
            assert dec.w_reg**2 + dec.w_res**2 == pytest.approx(1.0, abs=1e-9)
            np.testing.assert_allclose(reg + dec.res, e, atol=1e-9)

    def test_isotropic_mean_w_reg_bound(self):
        # d=128, L=8: expected regular weight at least 0.978
        rng = np.random.default_rng(1)
        samples = rng.standard_normal((10_000, 8, 16))
        bn = np.linalg.norm(samples, axis=2)
        w = bn.sum(axis=1) / (math.sqrt(8) * np.linalg.norm(samples.reshape(-1, 128), axis=1))
        assert w.mean() >= 0.978

    def test_single_block_collapse(self):
        e = np.random.default_rng(2).standard_normal(16)
        dec = decompose(e, 1)
        assert dec.w_reg == pytest.approx(1.0)
        np.testing.assert_allclose(dec.reg_dir, e / np.linalg.norm(e))

    def test_zero_block_renormalized(self):
        e = np.array([3.0, 4.0, 0.0, 0.0])
        dec = decompose(e, 2)
        # only one live block: reg_dir is e-hat on that block, zero elsewhere
        np.testing.assert_allclose(dec.reg_dir, [0.6, 0.8, 0.0, 0.0])
        assert dec.w_reg == pytest.approx(1.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(UsageError):
            decompose(np.zeros(8), 2)


class TestQuantileTable:
    def test_eps_half_gives_means(self):
        tbl = build_quantile_table(0.5, 4, 64)
        eta = math.sqrt(2 * 4 * math.log(64))
        means = np.broadcast_to(X_LEFT * eta, (VAR_ROWS, X_COLS))
        np.testing.assert_allclose(tbl[:, :X_COLS], means, atol=1e-8)
        assert tbl.shape == (VAR_ROWS, X_COLS + 1) and np.all(tbl[:, X_COLS] == math.inf)

    def test_L1_x0_entry_is_normal_quantile(self):
        tbl = build_quantile_table(0.2, 1, 128)
        row = int(var_row_indices(1.0, 0.0, 1))
        assert variance_grid(1)[row] == pytest.approx(1.0)
        assert tbl[row, x_columns(1e-9)] == pytest.approx(inv_norm_cdf(0.2), abs=1e-6)
        assert inv_norm_cdf(0.2) == pytest.approx(-0.8416, abs=1e-4)

    def test_monotone_in_x(self):
        tbl = build_quantile_table(0.2, 8, 128)
        assert np.all(np.diff(tbl, axis=1) >= 0)

    def test_conservative_vs_oracle(self):
        tbl = build_quantile_table(0.25, 8, 128)
        z = inv_norm_cdf(0.25)
        eta = math.sqrt(2 * 8 * math.log(128))
        veff = np.maximum(variance_grid(8)[:, None] - 8.0 * X_LEFT**2 / 9.0, 0.0)
        assert np.all(tbl[:, :X_COLS] <= X_LEFT * eta + z * np.sqrt(veff))

    def test_eps_out_of_range(self):
        with pytest.raises(UsageError):
            build_quantile_table(0.7, 4, 64)
        with pytest.raises(UsageError):
            build_quantile_table(0.0, 4, 64)

    def test_var_row_rounds_up(self):
        grid = variance_grid(8)
        for v in (0.3, 1.0, 1.37, 2.74):
            row = int(var_row_indices(math.sqrt(v), 0.0, 8))
            assert grid[row] >= v - 1e-12

    def test_lookup_rounds_x_down(self):
        tbl = build_quantile_table(0.2, 2, 32)
        # any x inside a cell maps to the value of the cell whose left edge is <= x,
        # which lies strictly below the value of the next cell up
        for x in (0.126, -0.3):
            col = int(np.nonzero(X_LEFT <= x)[0][-1])
            assert X_LEFT[col] < x < X_LEFT[col + 1]
            assert tbl[-1, x_columns(x)] == tbl[-1, col] < tbl[-1, col + 1]

    @pytest.mark.parametrize("x_cols", [X_COLS])
    def test_arithmetic_column_matches_searchsorted(self, x_cols):
        """Inside [-1, 1) the column of x is the last cell whose left edge is <= x, on every
        cell edge, its float neighbours, -1, -0.0 and the float just below 1."""
        assert X_LEFT.size == x_cols
        xs = np.concatenate([X_LEFT, np.nextafter(X_LEFT, -2.0), np.nextafter(X_LEFT, 2.0),
                             [-1.0, -0.0, np.nextafter(1.0, 0.0)]])
        xs = xs[(xs >= -1.0) & (xs < 1.0)]
        expect = np.searchsorted(X_LEFT, xs, side="right") - 1
        np.testing.assert_array_equal(x_columns(xs), expect)
        assert [int(x_columns(float(x))) for x in xs] == expect.tolist()

    @pytest.mark.parametrize("x_cols", [X_COLS])
    def test_column_is_the_floor_rule(self, x_cols):
        """The column of x equals floor(clip(x, -1, 1) * half) + half, the column of an exact
        k/half grid, on a dense grid over [-1.5, 1.5], every cell edge and its float
        neighbours, +-1 and theirs, and +-inf; a scalar x reads the column an array does."""
        half = x_cols // 2
        np.testing.assert_array_equal(X_LEFT * half, np.arange(-half, half))
        ends = np.array([-1.0, 1.0])
        edges = np.concatenate([X_LEFT, np.nextafter(X_LEFT, -2.0), np.nextafter(X_LEFT, 2.0), ends,
                                np.nextafter(ends, -2.0), np.nextafter(ends, 2.0), [-0.0, -math.inf, math.inf]])
        xs = np.concatenate([np.linspace(-1.5, 1.5, 100_001), edges])
        want = (np.floor(xs.clip(-1.0, 1.0) * half) + half).astype(np.intp)
        np.testing.assert_array_equal(x_columns(xs), want)
        assert [int(x_columns(float(x))) for x in edges] == want[-edges.size :].tolist()

    def test_x_at_or_beyond_the_ends_reads_the_end_columns(self):
        """x >= 1 reads the last column, which is +inf, so no statistic passes there;
        x <= -1 reads the first cell."""
        tbl = build_quantile_table(0.2, 2, 32)
        assert tbl.shape == (VAR_ROWS, X_COLS + 1) and np.all(tbl[:, X_COLS] == math.inf)
        assert np.all(np.isfinite(tbl[:, :X_COLS]))
        high = np.array([1.0, np.nextafter(1.0, 2.0), 1.5, 2.0, 1e300, np.finfo(np.float64).max, math.inf])
        np.testing.assert_array_equal(x_columns(high), X_COLS)
        assert [int(x_columns(float(x))) for x in high] == [X_COLS] * high.size
        low = np.array([-1.0, np.nextafter(-1.0, -2.0), -2.0, -1e300, -math.inf])
        np.testing.assert_array_equal(x_columns(low), 0)
        assert int(x_columns(np.nextafter(1.0, 0.0))) == X_COLS - 1

    def test_conservative_inside_cells(self):
        # a lookup anywhere in a cell returns that cell's value, so the cell must
        # stay below the exact quantile off the grid too: at the midpoint, just
        # below the right edge, and at the dip x* of the quantile for x < 0
        for eps, L in ((0.2, 8), (0.2, 1), (0.05, 4), (0.5, 2)):
            tbl = build_quantile_table(eps, L, 128)
            z = inv_norm_cdf(eps)
            eta = math.sqrt(2 * L * math.log(128))
            c = L / (L + 1.0)
            v = variance_grid(L)[:, None]

            def exact(x):
                return x * eta + z * np.sqrt(np.clip(v - c * x**2, 0.0, None))

            cells = tbl[:, :X_COLS]
            assert np.all(tbl[:, X_COLS:] == math.inf)
            width = X_LEFT[1] - X_LEFT[0]
            right = np.nextafter(X_LEFT + width, -np.inf)
            for x in (X_LEFT + 0.5 * width, right):
                assert np.all(cells <= exact(x[None, :]))
            x_star = -np.sqrt(v / (c + (z * c / eta) ** 2))
            inside = X_LEFT[None, :] <= x_star
            assert np.all(np.where(inside, cells <= exact(x_star), True))

    def test_nonnegative_columns_hold_exact_quantile(self):
        # for x >= 0 the quantile rises with x, so each cell is the exact value at its left edge
        tbl = build_quantile_table(0.2, 8, 128)
        x = X_LEFT[X_LEFT >= 0.0]
        assert x.size == X_COLS // 2 and x[1] == pytest.approx(1 / 512)
        eta = math.sqrt(2 * 8 * math.log(128))
        veff = np.clip(variance_grid(8)[:, None] - (8.0 / 9.0) * x[None, :] ** 2, 0.0, None)
        exact = x[None, :] * eta + inv_norm_cdf(0.2) * np.sqrt(veff)
        np.testing.assert_allclose(tbl[:, :X_COLS][:, X_LEFT >= 0.0], exact, rtol=0.0, atol=1e-8)
        assert tbl.shape[1] == X_COLS + 1 and np.all(tbl[:, X_COLS] == math.inf)


class TestScalarQuantizer:
    def test_roundtrip_within_one_step(self):
        rng = np.random.default_rng(3)
        vals = rng.uniform(2.0, 9.0, 10_000)
        q = ScalarQuantizer.fit(vals, 16)
        step = (q.hi - q.lo) / q.levels
        up = q.decode(q.encode(vals))
        assert np.all(up >= vals - 1e-12) and np.all(up - vals <= step + 1e-9)

    def test_degenerate_range(self):
        q = ScalarQuantizer(5.0, 5.0, 8)
        assert q.decode(q.encode(5.0)) == 5.0

    def test_eight_bit(self):
        vals = np.linspace(0, 1, 100)
        q = ScalarQuantizer.fit(vals, 8)
        err = np.abs(q.decode(q.encode(vals)) - vals)
        assert err.max() <= 1.0 / 255 + 1e-12


class TestExtremeIdCodec:
    def test_roundtrip_all_representable(self):
        sids = np.array([0, *range(1, 129), *range(-1, -128, -1)])
        b = encode_id_bytes(sids)
        assert b.dtype == np.uint8 and np.unique(b).size == 256
        np.testing.assert_array_equal(decode_id_bytes(b), sids)


class TestBuildEdgeMeta:
    def setup_method(self):
        self.ens = generate_ensemble(17, 32, 4, 16)
        self.plan = PermutationPlan.identity(32, 4)
        rng = np.random.default_rng(5)
        self.u = rng.standard_normal(32)
        self.v = rng.standard_normal(32)

    def test_L1_collapse(self):
        ens1 = generate_ensemble(17, 32, 1, 16)
        meta = build_edge_meta(self.u, self.v, ens1, PermutationPlan.identity(32, 1),
                               exact_enorm(1.0))
        assert len(meta.ext_ids) == 2
        assert meta.w_reg_q == 255 and meta.w_res_q == 0
        assert meta.ext_ids[0] == 0  # residual vanishes at L=1

    def test_weight_invariant(self):
        quant = ScalarQuantizer.fit(np.array([0.1, 12.0]), 16)
        meta = build_edge_meta(self.u, self.v, self.ens, self.plan, quant)
        step = 1.0 / 255
        assert 1 - 2 * step <= meta.w_reg**2 + meta.w_res**2 <= 1 + 2 * step

    def test_recompute_with_regenerated_ensemble(self):
        quant = ScalarQuantizer.fit(np.array([0.1, 12.0]), 16)
        meta1 = build_edge_meta(self.u, self.v, self.ens, self.plan, quant)
        ens2 = generate_ensemble(17, 32, 4, 16)  # regenerate from the same seed
        meta2 = build_edge_meta(self.u, self.v, ens2, self.plan, quant)
        assert meta1 == meta2

    def test_degenerate_edge_rejected(self):
        from annroute import DegenerateInputError
        with pytest.raises(DegenerateInputError):
            build_edge_meta(self.u, self.u, self.ens, self.plan, exact_enorm(1.0))

    def test_compact_layout(self):
        ens = generate_ensemble(3, 32, 2, 16)
        meta = build_edge_meta(self.u, self.v, ens, PermutationPlan.identity(32, 2),
                               exact_enorm(1.0), compact=True)
        assert len(meta.ext_ids) == 2  # L ids, no residual slot
        assert meta.compact and meta.w_reg == 1.0 and meta.w_res == 0.0


class TestComputeAr:
    def test_unbounded_gives_minus_inf(self):
        ens = generate_ensemble(2, 8, 2, 4)
        meta = build_edge_meta(np.ones(8), np.zeros(8), ens, PermutationPlan.identity(8, 2),
                               exact_enorm(math.sqrt(8.0)))
        for metric in Metric:
            assert compute_Ar(meta, (math.inf, 0.0, 1.0), 1.0, metric) == -math.inf

    def test_worked_example(self):
        # q=(1,0), v=(0,0), u=(0,2), p=(3,0): r=1.5, A_r=0.25
        ens = generate_ensemble(2, 2, 1, 4)
        u, v, q, p = np.array([0.0, 2.0]), np.zeros(2), np.array([1.0, 0.0]), np.array([3.0, 0.0])
        meta = build_edge_meta(u, v, ens, PermutationPlan.identity(2, 1),
                               exact_enorm(2.0))
        delta = float(np.linalg.norm(p - q))
        thr = (delta * delta, float((v - q) @ (v - q)), 0.0)  # worst key 4, v's key 1, |v|^2 = 0
        ar = compute_Ar(meta, thr, 1.0, Metric.L2)
        assert ar == pytest.approx(0.25)
        assert np.linalg.norm(u - q) > delta  # oracle: u does not beat delta

    def test_candidate_equals_furthest_telescopes_to_cosine(self):
        """With u itself the worst result, A_r is cos(e, q) under every metric."""
        rng = np.random.default_rng(8)
        u, v, q = rng.standard_normal(16), rng.standard_normal(16), rng.standard_normal(16)
        e = u - v
        ens = generate_ensemble(4, 16, 2, 8)
        meta = build_edge_meta(u, v, ens, PermutationPlan.identity(16, 2),
                               exact_enorm(float(np.linalg.norm(e))))
        qsq = float(q @ q)
        cos = float(e @ q) / (np.linalg.norm(e) * np.linalg.norm(q))
        for metric in Metric:
            row_u, row_v = (u @ u, v @ v) if metric == Metric.L2 else (np.linalg.norm(u), np.linalg.norm(v))
            thr = (float(ordering_keys(metric, u @ q, row_u, qsq, math.sqrt(qsq))),
                   float(ordering_keys(metric, v @ q, row_v, qsq, math.sqrt(qsq))), float(row_v))
            assert compute_Ar(meta, thr, math.sqrt(qsq), metric) == pytest.approx(cos, abs=1e-9), metric


class TestPeosTest:
    def setup_method(self):
        self.ens = generate_ensemble(23, 32, 4, 32)
        self.tbl = build_quantile_table(0.2, 4, 32)
        rng = np.random.default_rng(9)
        self.q = rng.standard_normal(32)
        self.qpt = project_query(self.q, self.ens)
        self.u = rng.standard_normal(32)
        self.v = rng.standard_normal(32)
        e = self.u - self.v
        self.meta = build_edge_meta(self.u, self.v, self.ens, PermutationPlan.identity(32, 4),
                                    exact_enorm(float(np.linalg.norm(e))))

    def _thr_at(self, x):
        """An L2 threshold (wk, kv, |v|^2) whose worst key wk puts A_r at x (the stored norms
        decode exactly)."""
        row_v = float(self.v @ self.v)
        kv = float(self.q @ self.q) + row_v - 2.0 * float(self.v @ self.q)
        wk = self.meta.u_sq - row_v + kv - 2.0 * x * self.qpt.qnorm * self.meta.enorm
        thr = (wk, kv, row_v)
        assert compute_Ar(self.meta, thr, self.qpt.qnorm, Metric.L2) == pytest.approx(x)
        return thr

    def _const_table(self, value):
        return np.full_like(self.tbl, value)

    def test_auto_pass_when_ar_nonpositive(self):
        _, kv, row_v = self._thr_at(0.0)
        assert peos_test(self.meta, self.tbl, self.qpt, (math.inf, kv, row_v)) is True
        # at A_r <= -1 every neighbor beats the threshold: pass even against a table that rejects all
        h = _edge_statistic(self.meta, self.qpt)
        assert peos_test(self.meta, self._const_table(h + 1.0), self.qpt, self._thr_at(-1.5)) is True

    def test_statistic_decides_when_ar_negative(self):
        h = _edge_statistic(self.meta, self.qpt)
        for x in (-0.5, -0.05):
            thr = self._thr_at(x)
            assert peos_test(self.meta, self._const_table(h), self.qpt, thr) is True
            assert peos_test(self.meta, self._const_table(h + 1e-6), self.qpt, thr) is False

    def test_auto_fail_when_ar_at_least_one(self):
        # a worst key so low that the numerator overwhelms the denominator
        thr = self._thr_at(5.0)
        assert compute_Ar(self.meta, thr, self.qpt.qnorm, Metric.L2) >= 1.0
        assert peos_test(self.meta, self.tbl, self.qpt, thr) is False

    def test_tie_passes(self):
        # force H == T by building a constant table equal to the statistic
        h = _edge_statistic(self.meta, self.qpt)
        const = self._const_table(h)
        thr = self._thr_at(0.5)
        assert 0.0 < compute_Ar(self.meta, thr, self.qpt.qnorm, Metric.L2) < 1.0
        assert peos_test(self.meta, const, self.qpt, thr) is True


class GateHarness:
    """Shared Monte-Carlo harness: true-positive pass rates for any gate."""

    def __init__(self, d=128, L=8, m=128, eps=0.2, trials=10_000, seed=99, **trial_kw):
        self.d, self.L, self.m, self.eps = d, L, m, eps
        self.trials = make_gate_trials(trials, d, seed, **trial_kw)
        self.ens = generate_ensemble(31, d, L, m)
        self.plan = PermutationPlan.identity(d, L)
        self.quant = ScalarQuantizer.fit(self.trials["enorm"], 16)

    def peos_pass_rate(self):
        t = self.trials
        tbl = build_quantile_table(self.eps, self.L, self.m)
        passes = 0
        n = len(t["u"])
        for i in range(n):
            meta = build_edge_meta(t["u"][i], t["v"][i], self.ens, self.plan, self.quant)
            qpt = project_query(t["q"][i], self.ens)
            passes += peos_test(meta, tbl, qpt, (t["wk"][i], t["kv"][i], t["vsq"][i]))
        return passes / n

    def simhash_pass_rate(self, n_bits=64):
        t = self.trials
        hashes = generate_simhash_hashes(77, self.d, n_bits)
        passes = 0
        n = len(t["u"])
        for i in range(n):
            e = t["u"][i] - t["v"][i]
            ar = (0.5 * float(t["u"][i] @ t["u"][i]) - t["r"][i] - t["vq"][i]) / (
                t["qnorm"][i] * np.linalg.norm(e))
            ok = simhash_test(simhash_sketch(e, hashes), simhash_sketch(t["q"][i], hashes),
                              float(ar), self.eps)
            passes += ok
        return passes / n


@pytest.fixture(scope="module")
def gate_harness():
    return GateHarness(trials=10_000)


@pytest.fixture(scope="module")
def gate_harness_L1():
    return GateHarness(d=128, L=1, m=128, trials=10_000, seed=101)


# true positives whose threshold A_r lies in (-1, 0): neighbors at an obtuse or
# right angle to the query that still beat the result-list threshold
NEGATIVE_BAND = dict(x_lo=-0.6, x_hi=0.0, x_floor=-0.999)


@pytest.fixture(scope="module")
def gate_harness_neg():
    return GateHarness(trials=10_000, seed=103, **NEGATIVE_BAND)


@pytest.fixture(scope="module")
def gate_harness_L1_neg():
    return GateHarness(d=128, L=1, m=128, trials=10_000, seed=105, **NEGATIVE_BAND)


class TestGuaranteeMonteCarlo:
    def test_peos_true_positive_rate(self, gate_harness):
        rate = gate_harness.peos_pass_rate()
        assert rate >= 0.78

    def test_rceos_true_positive_rate(self, gate_harness_L1):
        rate = gate_harness_L1.peos_pass_rate()
        assert rate >= 0.78

    def test_simhash_true_positive_rate(self, gate_harness):
        rate = gate_harness.simhash_pass_rate(64)
        assert rate >= 0.78

    def test_peos_true_positive_rate_negative_band(self, gate_harness_neg):
        assert np.all((gate_harness_neg.trials["x"] > -1.0) & (gate_harness_neg.trials["x"] < 0.0))
        rate = gate_harness_neg.peos_pass_rate()
        assert rate >= 0.78

    def test_rceos_true_positive_rate_negative_band(self, gate_harness_L1_neg):
        assert np.all(gate_harness_L1_neg.trials["x"] < 0.0)
        rate = gate_harness_L1_neg.peos_pass_rate()
        assert rate >= 0.78


@pytest.fixture(scope="module")
def collapse_graphs():
    """A 1,000-point graph of each metric and 40 queries, for the rceos/peos L=1 comparison."""
    ds, queries = synthetic_dataset(1000, 32, 40, seed=13)
    return {metric: (queries, build_hnsw(ds, M=8, efc=40, metric=metric, seed=13)) for metric in Metric}


class TestRceosCollapse:
    """RCEOs is the L=1 case of the partitioned gate: attach and search cannot tell the two configs apart."""

    M = 64

    def _cfg(self, mode, L=1):
        return RoutingConfig(mode=mode, eps=0.2, L=L, m=self.M)

    def test_decision_equality_with_L1_peos(self, collapse_graphs):
        rc_cfg, pe_cfg = self._cfg(RoutingMode.RCEOS), self._cfg(RoutingMode.PEOS)
        for metric, (queries, idx) in collapse_graphs.items():
            rc, pe = attach(idx, rc_cfg), attach(idx, pe_cfg)
            assert rc.routing.store.wire_records().tobytes() == pe.routing.store.wire_records().tobytes()
            evaluated = 0
            for q in queries:
                a, sa = search(rc, q, SearchParams(K=10, efs=64, routing=rc_cfg))
                b, sb = search(pe, q, SearchParams(K=10, efs=64, routing=pe_cfg))
                np.testing.assert_array_equal(a, b)
                assert sa == sb
                evaluated += sa.tests_evaluated
            assert evaluated >= 10_000, metric

    def test_rceos_auto_pass_when_unbounded(self, collapse_graphs):
        """An infinite worst key puts every A_r at -inf, so every edge passes."""
        queries, idx = collapse_graphs[Metric.L2]
        att = attach(idx, self._cfg(RoutingMode.RCEOS)).routing
        block = att.store.block(np.arange(att.store.n_edges), att.store.dst)
        out = batch_peos_test(block, build_quantile_table(0.2, 1, self.M),
                              project_query(queries[0], att.ens), (math.inf, 0.0, 0.0))
        assert out.shape == (att.store.n_edges,) and out.all()

    def test_rceos_rejects_multiblock_meta(self, collapse_graphs):
        """search refuses rceos params on an index whose projection records have L > 1 blocks."""
        queries, idx = collapse_graphs[Metric.L2]
        routed = attach(idx, self._cfg(RoutingMode.PEOS, L=4))
        with pytest.raises(UsageError, match="L=1"):
            search(routed, queries[0], SearchParams(K=10, efs=64, routing=self._cfg(RoutingMode.RCEOS)))

    PEOS4 = RoutingConfig(mode=RoutingMode.PEOS, eps=0.2, L=4, m=64)
    SIMHASH = RoutingConfig(mode=RoutingMode.SIMHASH, eps=0.2, simhash_bits=64)

    @pytest.mark.parametrize("attached, query, message", [
        (RoutingConfig(mode=RoutingMode.PEOS, L=8, m=64), PEOS4, "peos query L=4 does not match the attachment's L=8"),
        (PEOS4, replace(PEOS4, m=16), "peos query m=16 does not match the attachment's m=64"),
        (PEOS4, replace(PEOS4, compact=True), "peos query compact=True does not match the attachment's compact=False"),
        (SIMHASH, replace(SIMHASH, simhash_bits=128),
         "simhash query simhash_bits=128 does not match the attachment's simhash_bits=64"),
    ], ids=["peos-L", "peos-m", "peos-compact", "simhash-bits"])
    def test_query_must_match_the_attachment(self, collapse_graphs, attached, query, message):
        """The records, projections and hyperplanes are the attachment's, so a query that
        differs in a field its gate reads is refused."""
        queries, idx = collapse_graphs[Metric.L2]
        with pytest.raises(UsageError, match=message):
            search(attach(idx, attached), queries[0], SearchParams(K=10, efs=64, routing=query))

    @pytest.mark.parametrize("attached, query", [
        (PEOS4, replace(PEOS4, eps=0.3)),
        (PEOS4, replace(PEOS4, simhash_bits=128)),
        (SIMHASH, replace(SIMHASH, m=16)),
    ], ids=["eps", "peos-simhash_bits", "simhash-m"])
    def test_query_may_differ_where_the_gate_does_not_read(self, collapse_graphs, attached, query):
        """eps is the query's own, and a field the gate does not read is not compared: the query
        runs as it would on an index attached with the query's own config."""
        queries, idx = collapse_graphs[Metric.L2]
        params = SearchParams(K=10, efs=64, routing=query)
        a, b = attach(idx, attached), attach(idx, query)
        for q in queries[:5]:
            (ia, sa), (ib, sb) = search(a, q, params), search(b, q, params)
            np.testing.assert_array_equal(ia, ib)
            assert sa == sb and sa.tests_evaluated > 0


class TestSharedQuantileTable:
    """Search reads the quantile table from one cache in routing.py, not from the attachment."""

    def test_equal_configs_share_one_read_only_table(self, collapse_graphs, monkeypatch):
        seen = []

        def spy(block, tbl, *args, **kwargs):
            seen.append(tbl)
            return batch_peos_test(block, tbl, *args, **kwargs)

        monkeypatch.setattr(query_mod, "batch_peos_test", spy)
        cfg = RoutingConfig(mode=RoutingMode.PEOS, eps=0.2, L=4, m=64)
        for metric in (Metric.L2, Metric.ANGULAR):
            queries, idx = collapse_graphs[metric]
            search(attach(idx, cfg), queries[0], SearchParams(K=10, efs=64, routing=cfg))
        assert seen and all(tbl is seen[0] for tbl in seen)
        assert seen[0] is build_quantile_table(0.2, 4, 64) and not seen[0].flags.writeable


class TestSimHash:
    def test_opposite_vector_flips_all_bits(self):
        hashes = generate_simhash_hashes(3, 16, 64)
        e = np.random.default_rng(0).standard_normal(16)
        a = simhash_sketch(e, hashes)
        b = simhash_sketch(-e, hashes)
        assert collision_count(a, b) == 0

    def test_parallel_full_collision(self):
        hashes = generate_simhash_hashes(4, 16, 64)
        e = np.random.default_rng(1).standard_normal(16)
        assert collision_count(simhash_sketch(e, hashes), simhash_sketch(3.0 * e, hashes)) == 64

    def test_orthogonal_collision_fraction(self):
        # theta = pi/2: collision probability exactly 1/2 per hyperplane
        n, trials = 256, 1000
        rng = np.random.default_rng(2)
        fracs = np.empty(trials)
        for t in range(trials):
            hashes = rng.standard_normal((n, 8))
            e = np.zeros(8)
            q = np.zeros(8)
            e[0] = 1.0
            q[1] = 1.0
            fracs[t] = collision_count(simhash_sketch(e, hashes), simhash_sketch(q, hashes)) / n
        se = math.sqrt(0.25 / (n * trials))
        assert abs(fracs.mean() - 0.5) < 3 * se

    def test_threshold_arithmetic(self):
        # theta=pi/2, n=64, eps=0.2: threshold = 32 - sqrt(64 ln 5 / 2) ~ 24.83
        thr = simhash_threshold(64, 0.0, 0.2)
        assert thr == pytest.approx(32 - math.sqrt(64 * math.log(5) / 2), abs=1e-9)
        assert thr == pytest.approx(24.83, abs=0.01)
        assert math.ceil(thr) == 25

    def test_eps_to_one_limit(self):
        thr = simhash_threshold(64, 0.0, 1.0 - 1e-12)
        assert thr == pytest.approx(64 * 0.5, abs=1e-4)

    def test_collision_fraction_tracks_angle(self):
        # Lemma check: E[#Col]/n = 1 - theta/pi at a non-trivial angle
        n, trials, theta = 128, 2000, 1.1
        rng = np.random.default_rng(5)
        e = np.zeros(8)
        e[0] = 1.0
        q = np.zeros(8)
        q[0], q[1] = math.cos(theta), math.sin(theta)
        total = 0
        for _ in range(trials):
            hashes = rng.standard_normal((n, 8))
            total += collision_count(simhash_sketch(e, hashes), simhash_sketch(q, hashes))
        frac = total / (n * trials)
        p = 1.0 - theta / math.pi
        se = math.sqrt(p * (1 - p) / (n * trials))
        assert abs(frac - p) < 3 * se


def _sketches_for_every_count(n: int, seed: int):
    """A query sketch of n bits, and n + 1 packed edge sketches whose k-th differs from it in k bits."""
    rng = np.random.default_rng(seed)
    q = rng.random(n) < 0.5
    flips = np.tril(np.ones((n + 1, n), dtype=bool), -1)[:, rng.permutation(n)]  # row k flips k bits
    return SimHashSketch(bits=np.packbits(q), n=n), np.ascontiguousarray(np.packbits(q ^ flips, axis=1))


# the bounds are raised four ulps of 1.0 above the exact cosine, and the float
# evaluation of either test errs by under two more: only in this window below a
# bound may the table pass an edge that the arccos reference rejects
_ROUND_UP_WINDOW = 2.0**-48


class TestSimHashBounds:
    @pytest.mark.parametrize("bits", [8, 32, 64, 128])
    @pytest.mark.parametrize("eps", [0.05, 0.2, 0.6])
    def test_batch_matches_scalar_for_every_count(self, bits, eps):
        """Every differing-bit count k against a dense A_r grid, A_r = 0, 1 and -inf, and the
        float neighbours of each bound: the word-popcount gate decides as the per-edge
        arccos reference does, except in the round-up window, where the gate passes."""
        qsketch, packed = _sketches_for_every_count(bits, seed=bits)
        edges = [SimHashSketch(bits=row, n=bits) for row in packed]
        words = sketch_words(packed)
        bounds = simhash_bounds(bits, eps)
        grid = [np.full(bits + 1, a) for a in np.concatenate((np.linspace(-0.5, 1.5, 801), [0.0, 1.0, -np.inf]))]
        below, above = np.nextafter(bounds, -np.inf), np.nextafter(bounds, np.inf)
        neighbours = [bounds - _ROUND_UP_WINDOW, np.nextafter(below, -np.inf), below, bounds, above,
                      np.nextafter(above, np.inf)]
        in_window = 0
        for ar in grid + neighbours:
            got = batch_simhash_test(words, qsketch, ar, eps)
            want = np.array([simhash_test(e, qsketch, a, eps) for e, a in zip(edges, ar.tolist())])
            window = (ar > bounds - _ROUND_UP_WINDOW) & (ar <= bounds)
            assert np.all((got == want) | (got & window))
            in_window += int(np.count_nonzero(got != want))
        assert np.all(batch_simhash_test(words, qsketch, bounds, eps))
        assert not np.any(batch_simhash_test(words, qsketch, above, eps))
        assert in_window < 4 * (bits + 1)  # about the three probes at or just below each bound, at most

    @pytest.mark.parametrize("bits", [8, 24, 32, 64, 128, 256])
    def test_bounds_never_reject_what_exact_arithmetic_passes(self, bits):
        """At 40 digits, an edge with k differing bits passes iff A_r <= cos(pi * max(k - delta, 0) / n),
        for A_r in (0, 1). Each table bound lies at or above that cosine (or at the largest
        float below 1, where the cosine is 1), and at most _ROUND_UP_WINDOW above it."""
        mp = pytest.importorskip("mpmath")
        top = np.nextafter(1.0, 0.0)
        for eps in (1e-6, 0.01, 0.2, 0.5, 0.9):
            bounds = simhash_bounds(bits, eps)
            assert not bounds.flags.writeable
            assert bounds[0] == top and bounds.min() >= 0.0
            with mp.workdps(40):
                delta = mp.sqrt(bits * mp.log(1 / mp.mpf(eps)) / 2)
                for k, b in enumerate(bounds.tolist()):
                    exact = mp.cos(mp.pi * max(k - delta, 0) / bits)
                    assert mp.mpf(b) >= min(exact, mp.mpf(top)), (eps, k)
                    if 0 < exact < top:
                        assert mp.mpf(b) - exact <= _ROUND_UP_WINDOW, (eps, k)

    @pytest.mark.parametrize("n,eps", [(0, 0.2), (64, 0.0), (64, 1.0)])
    def test_bounds_refuse_bad_arguments(self, n, eps):
        with pytest.raises(UsageError):
            simhash_bounds(n, eps)

    @pytest.mark.parametrize("bits,dtype,shape", [(8, np.uint8, (5,)), (24, np.uint8, (5, 3)),
                                                  (48, np.uint16, (5, 3)), (64, np.uint64, (5,)),
                                                  (96, np.uint32, (5, 3)), (128, np.uint64, (5, 2))])
    def test_sketch_words_share_the_buffer(self, bits, dtype, shape):
        packed = np.zeros((5, bits // 8), dtype=np.uint8)
        words = sketch_words(packed)
        assert words.dtype == dtype and words.shape == shape and np.shares_memory(words, packed)
        packed[3, -1] = 1
        assert np.count_nonzero(words) == 1


class TestRequiredM:
    def test_table_row(self):
        val = required_m_rceos(64, math.pi / 2)
        assert 4.28e5 < val < 4.30e5

    def test_symmetry(self):
        assert required_m_rceos(32, 0.7) == pytest.approx(required_m_rceos(32, math.pi - 0.7))

    def test_zero_hashes(self):
        assert required_m_rceos(0, 1.0) == 1.0

    def test_domain(self):
        with pytest.raises(UsageError):
            required_m_rceos(64, 0.0)


class TestPartitionStats:
    def test_single_block_exact(self):
        ps = estimate_partition_stats(16, 1, 1000, seed=0)
        assert ps.mean_w_reg == pytest.approx(1.0)
        assert ps.j_rel == pytest.approx(1.0) and ps.j_opt == pytest.approx(1.0)

    def test_d128_L8_paper_value(self):
        ps = estimate_partition_stats(128, 8, 100_000, seed=1)
        assert ps.mean_w_reg >= 0.978

    def test_lemma_lower_bound_holds(self):
        for d, L in ((128, 8), (384, 16), (960, 16)):
            ps = estimate_partition_stats(d, L, 40_000, seed=2)
            assert ps.mean_w_reg >= w_reg_lower_bound(d, L)

    @pytest.mark.parametrize("L", [0, -4])
    def test_lower_bound_refuses_a_non_positive_L(self, L):
        with pytest.raises(UsageError, match="divisible by L"):
            w_reg_lower_bound(16, L)

    def test_j_rel_dominates_j_opt(self):
        for L in (2, 4, 8):
            ps = estimate_partition_stats(64, L, 5_000, seed=3)
            assert ps.j_rel >= ps.j_opt


@pytest.fixture(scope="module")
def routed_L4():
    """A real edge store: a graph of 400 Gaussian points with peos L=4 m=16 attached."""
    rng = np.random.default_rng(11)
    ds = Dataset(rng.standard_normal((400, 32)).astype(np.float32))
    idx = attach(build_hnsw(ds, M=6, efc=30, metric=Metric.L2, seed=11),
                 RoutingConfig(mode=RoutingMode.PEOS, eps=0.2, L=4, m=16))
    return ds, idx


class TestBatchPeos:
    """The fused gate on blocks of a real store against the scalar peos_test on its records."""

    def _setup(self, routed, seed):
        ds, idx = routed
        store = idx.routing.store
        rng = np.random.default_rng(seed)
        q = rng.standard_normal(32)
        i = int(rng.integers(ds.n))
        qpt = project_query(q, idx.routing.ens)
        row_v = float(idx._sqn[i])
        kv = float(q @ q) + row_v - 2.0 * float(ds.vectors[i].astype(np.float64) @ q)
        # the worst key spread so that A_r lands on both sides of 0 and of +-1
        wk = kv - row_v + float(np.median(idx._sqn.take(store.dst))) - rng.uniform(-1.5, 1.5) * qpt.qnorm * 10.0
        return store, qpt, (wk, kv, row_v)

    def test_bitmap_matches_elementwise(self, routed_L4):
        tbl = build_quantile_table(0.2, 4, 16)
        seen = {"tested": 0, "passed": 0, "edges": 0}
        for seed in range(40):
            store, qpt, thr = self._setup(routed_L4, seed + 1)
            slots = np.sort(np.random.default_rng(seed).choice(store.n_edges, 16, replace=False))
            block = store.block(slots, store.dst[slots])
            bitmap = batch_peos_test(block, tbl, qpt, thr)
            single = np.array([peos_test(meta_at(routed_L4[1], int(s)), tbl, qpt, thr) for s in slots])
            np.testing.assert_array_equal(bitmap, single)
            ar = np.array([compute_Ar(meta_at(routed_L4[1], int(s)), thr, qpt.qnorm, Metric.L2) for s in slots])
            seen["tested"] += int(np.count_nonzero(np.abs(ar) < 1.0))
            seen["passed"] += int(bitmap.sum())
            seen["edges"] += len(slots)
        assert seen["edges"] == 640 and seen["tested"] >= 200
        assert 0 < seen["passed"] < seen["edges"]

    def test_empty_block(self, routed_L4):
        tbl = build_quantile_table(0.2, 4, 16)
        store, qpt, thr = self._setup(routed_L4, 5)
        empty = np.empty(0, dtype=np.intp)
        out = batch_peos_test(store.block(empty, store.dst[empty]), tbl, qpt, thr)
        assert out.shape == (0,)

    def test_identical_edges_uniform(self, routed_L4):
        tbl = build_quantile_table(0.2, 4, 16)
        store, qpt, thr = self._setup(routed_L4, 9)
        slots = np.full(16, 7)
        out = batch_peos_test(store.block(slots, store.dst[slots]), tbl, qpt, thr)
        assert out.shape == (16,) and len(set(out.tolist())) == 1


_BAND_EDGES = [-math.inf, -1.0, float(np.nextafter(-1.0, 0.0)), float(np.nextafter(1.0, 0.0)), 1.0, math.inf]


@pytest.fixture(scope="module", params=[(False, Metric.L2), (True, Metric.L2), (False, Metric.ANGULAR),
                                        (True, Metric.ANGULAR)],
                ids=["full-l2", "compact-l2", "full-angular", "compact-angular"])
def band_graph(request):
    """A real store with full or compact records: 400 Gaussian points, peos L=4 m=16."""
    compact, metric = request.param
    ds = Dataset(np.random.default_rng(12).standard_normal((400, 32)).astype(np.float32))
    cfg = RoutingConfig(mode=RoutingMode.PEOS, eps=0.2, L=4, m=16, compact=compact)
    return attach(build_hnsw(ds, M=6, efc=30, metric=metric, seed=12), cfg)


class TestBandEdges:
    """The fused gate at and beside A_r = -1 and A_r = 1 on a real block, against the scalar gate.

    A_r <= -1 passes untested and A_r >= 1 fails through the table's +inf column; the
    edges a search meets rarely sit there, so each band edge is put on an edge by the
    popped node's key.
    """

    @staticmethod
    def _thr_at(idx, block, j, qnorm, target):
        """A threshold (wk, kv, row_v) that puts edge j's A_r at target exactly, or None.

        With wk = row_v = 0, L2's A_r is (|u|^2 + kv) / (2|q||e|); with wk = row_v = 1,
        angular's (1 - wk)|u| vanishes and A_r is -(1 - kv) / |e|. Either rises with kv,
        so steps of kv walk it onto target. None happens beside +-1: there the floats can
        be denser than the quotients a step of kv reaches, so some edges cannot sit there.
        """
        if target == -math.inf:
            return math.inf, 0.0, 0.0
        if target == math.inf:
            return -math.inf, 0.0, 0.0
        enorm = float(block.enorm[j])
        if idx.metric == Metric.L2:
            wk, row_v, kv = 0.0, 0.0, target * 2.0 * qnorm * enorm - float(block.row[j])
        else:
            wk, row_v, kv = 1.0, 1.0, 1.0 + target * enorm
        for _ in range(64):
            thr = (wk, kv, row_v)
            ar = batch_ar(block, thr, qnorm, idx.metric)[j]
            if ar == target:
                return thr
            kv = float(np.nextafter(kv, -math.inf if ar > target else math.inf))
        return None

    def test_band_edges_match_scalar(self, band_graph):
        idx = band_graph
        att, store = idx.routing, idx.routing.store
        v = int(np.argmax(np.diff(idx.base_indptr)))
        slots = np.arange(idx.base_indptr[v], idx.base_indptr[v + 1])
        block = store.block(slots, store.dst[slots].astype(np.intp))
        assert len(block) >= 6 and store.enorm_min > 0.0
        q = np.random.default_rng(13).standard_normal(32)
        qpt = project_query(q, att.ens)
        real = build_quantile_table(0.2, 4, 16)
        # a table every tested edge passes, and one every tested edge fails
        open_q = np.concatenate((np.full((VAR_ROWS, X_COLS), -math.inf), real[:, X_COLS:]), axis=1)
        tables = [real, open_q, np.full(real.shape, math.inf)]
        hits = dict.fromkeys(_BAND_EDGES, 0)
        for j in range(len(block)):
            for target in _BAND_EDGES:
                thr = self._thr_at(idx, block, j, qpt.qnorm, target)
                if thr is None:
                    continue
                hits[target] += 1
                meta = meta_at(idx, int(slots[j]))
                assert compute_Ar(meta, thr, qpt.qnorm, idx.metric) == target
                for k, tbl in enumerate(tables):
                    got = batch_peos_test(block, tbl, qpt, thr, idx.metric)
                    want = [peos_test(meta_at(idx, int(s)), tbl, qpt, thr, idx.metric) for s in slots]
                    np.testing.assert_array_equal(got, want)
                    if k == 1:  # open table: every A_r below 1 passes
                        assert got[j] == (target < 1.0)
                    elif k == 2:  # closed table: only A_r <= -1 passes
                        assert got[j] == (target <= -1.0)
        assert min(hits.values()) >= 2, hits


class TestStatisticDistribution:
    """Distributional invariants of the summed block statistic."""

    L, M, S = 8, 128, 10_000

    def _h1_samples(self, e, q, seed):
        # distributional simulation per block (rotation invariance in each block)
        L = self.L
        d = e.shape[0]
        dp = d // L
        eb = e.reshape(L, dp)
        qb = q.reshape(L, dp)
        gen = np.random.default_rng(seed)
        out = np.zeros(self.S)
        for i in range(L):
            en = np.linalg.norm(eb[i])
            qn = np.linalg.norm(qb[i])
            if en == 0 or qn == 0:
                continue
            cos = float(eb[i] @ qb[i]) / (en * qn)
            x = gen.standard_normal((self.S, self.M))
            z = gen.standard_normal((self.S, self.M))
            j = np.argmax(np.abs(x), axis=1)
            rows = np.arange(self.S)
            xw, zw = x[rows, j], z[rows, j]
            out += np.sign(xw) * qn * (cos * xw + math.sqrt(max(0.0, 1 - cos**2)) * zw)
        return out

    def test_h1_mean_and_variance(self):
        rng = np.random.default_rng(31)
        e = rng.standard_normal(128)
        q = rng.standard_normal(128)
        e /= np.linalg.norm(e)
        q /= np.linalg.norm(q)
        h1 = self._h1_samples(e, q, 17)
        eb = e.reshape(self.L, -1)
        qb = q.reshape(self.L, -1)
        qn = np.linalg.norm(qb, axis=1)
        cos = np.einsum("ij,ij->i", eb, qb) / (np.linalg.norm(eb, axis=1) * qn)
        target_sum = float((qn * cos).sum())
        exact_mean = target_sum * expected_max_abs_normal(self.M)
        asym_mean = target_sum * math.sqrt(2 * math.log(self.M))
        se = float(np.std(h1)) / math.sqrt(self.S)
        # tight check against the finite-m oracle...
        assert abs(float(np.mean(h1)) - exact_mean) < 3 * se
        # ...and the asymptotic formula inside the documented bias band
        bias = abs(asym_mean - exact_mean)
        assert abs(float(np.mean(h1)) - asym_mean) < bias + 3 * se
        assert float(np.var(h1)) <= 1.0

    def test_equal_block_norm_mean(self):
        # blocks with equal norms: mean of H1 = cos(theta) sqrt(2 L ln m)
        rng = np.random.default_rng(33)
        L, dp = self.L, 16
        blocks = rng.standard_normal((L, dp))
        blocks /= np.linalg.norm(blocks, axis=1)[:, None] * math.sqrt(L)
        e = blocks.reshape(-1)
        q = rng.standard_normal(L * dp)
        q /= np.linalg.norm(q)
        h1 = self._h1_samples(e, q, 19)
        cos = float(e @ q)
        exact = cos * math.sqrt(self.L) * expected_max_abs_normal(self.M)
        asym = cos * math.sqrt(2 * self.L * math.log(self.M))
        se = float(np.std(h1)) / math.sqrt(self.S)
        assert abs(float(np.mean(h1)) - exact) < 3 * se
        assert abs(float(np.mean(h1)) - asym) < abs(asym - exact) + 3 * se

    def test_variance_sandwich(self):
        # Var[H/sqrt(2L ln m)] - sin^2/(2L ln m) within the stated band,
        # widened by Monte-Carlo error and the finite-m extreme-value variance
        rng = np.random.default_rng(35)
        L, m, dp = self.L, self.M, 16
        d = L * dp
        e = rng.standard_normal(d)
        e /= np.linalg.norm(e)
        dec_blocks = e.reshape(L, dp)
        # nudge block norms toward equality so w_res stays below 1/(L+1)
        dec_blocks = dec_blocks / np.linalg.norm(dec_blocks, axis=1)[:, None]
        e = (dec_blocks / math.sqrt(L)).reshape(-1)
        e += 0.02 * rng.standard_normal(d)
        e /= np.linalg.norm(e)
        dec = decompose(e, L)
        assert dec.w_res <= 1.0 / (L + 1)
        q = rng.standard_normal(d)
        q /= np.linalg.norm(q)
        cos = float(e @ q)
        h1 = self._h1_samples(e, q, 21)
        # residual term: w_res is tiny here so H ~ w_reg * H1
        h = dec.w_reg * h1
        tau = 2 * L * math.log(m)
        var_h = float(np.var(h)) / tau
        var_opt = (1 - cos**2) / tau
        diff = var_h - var_opt
        lo = -(L + 2) / (L * (L + 1) ** 2 * math.log(m))
        hi = 1.0 / ((L + 1) ** 2 * math.log(m))
        mc = 4.0 * float(np.var(h)) * math.sqrt(2.0 / self.S) / tau
        finite_m_excess = 0.2 * cos**2 / tau  # Var(max|N|) at m=128 is ~0.15, not 0
        assert lo - mc - finite_m_excess <= diff <= hi + mc + finite_m_excess


class TestRoutingConfig:
    def test_rceos_requires_L1(self):
        with pytest.raises(UsageError):
            RoutingConfig(mode=RoutingMode.RCEOS, L=4)

    def test_rceos_is_peos_at_L1(self):
        cfg = RoutingConfig(mode=RoutingMode.RCEOS, L=1, m=64)
        assert cfg.mode == RoutingMode.PEOS and cfg == RoutingConfig(mode=RoutingMode.PEOS, L=1, m=64)

    @pytest.mark.parametrize("L", [3, 8])
    def test_simhash_holds_L1(self, L):
        assert RoutingConfig(mode=RoutingMode.SIMHASH, L=L).L == 1

    def test_compact_range(self):
        with pytest.raises(UsageError):
            RoutingConfig(mode=RoutingMode.PEOS, L=8, compact=True)
        RoutingConfig(mode=RoutingMode.PEOS, L=4, compact=True)

    def test_eps_range(self):
        with pytest.raises(UsageError):
            RoutingConfig(mode=RoutingMode.PEOS, eps=0.6)
        RoutingConfig(mode=RoutingMode.SIMHASH, eps=0.6)

    def test_m_byte_limit(self):
        with pytest.raises(UsageError):
            RoutingConfig(mode=RoutingMode.PEOS, m=256)
