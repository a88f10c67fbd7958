"""Routing test suite: decomposition, quantile tables, gates, and analysis quantities."""

import math

import numpy as np
import pytest

from annroute import (
    EdgeMetaBlock,
    EdgeQuantizers,
    Metric,
    PermutationPlan,
    QuantileTable,
    RoutingConfig,
    RoutingMode,
    ScalarQuantizer,
    ThresholdState,
    UsageError,
    batch_peos_test,
    build_edge_meta,
    build_quantile_table,
    collision_count,
    compute_Ar,
    decompose,
    estimate_partition_stats,
    generate_ensemble,
    generate_simhash_hashes,
    peos_test,
    project_query,
    rceos_test,
    required_m_rceos,
    simhash_sketch,
    simhash_test,
    w_reg_lower_bound,
)
from annroute.routing import (
    _edge_statistic,
    canonical_extreme_id,
    decode_extreme_id,
    encode_extreme_id,
    simhash_threshold,
    variance_grid,
    var_row_indices,
)

from oracles import expected_max_abs_normal, inv_norm_cdf, make_gate_trials


def exact_quantizers(*values, bits=16):
    """Quantizers that decode every listed value exactly (degenerate range)."""
    return EdgeQuantizers(
        half_u_sq=ScalarQuantizer(values[0], values[0], bits),
        enorm=ScalarQuantizer(values[1], values[1], bits),
    )


def fitted_quantizers(half_vals, enorm_vals, bits=16):
    return EdgeQuantizers(
        half_u_sq=ScalarQuantizer.fit(np.asarray(half_vals), bits),
        enorm=ScalarQuantizer.fit(np.asarray(enorm_vals), bits),
    )


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
        tbl = build_quantile_table(0.5, 4, 64, var_rows=32, x_cols=64)
        eta = math.sqrt(2 * 4 * math.log(64))
        means = np.broadcast_to(tbl.x_grid[None, :] * eta, tbl.q.shape)
        np.testing.assert_allclose(tbl.q, means, atol=1e-8)

    def test_L1_x0_entry_is_normal_quantile(self):
        tbl = build_quantile_table(0.2, 1, 128)
        row = tbl.var_index(1.0)
        assert tbl.v_grid[row] == pytest.approx(1.0)
        assert tbl.threshold(row, 1e-9) == pytest.approx(inv_norm_cdf(0.2), abs=1e-6)
        assert inv_norm_cdf(0.2) == pytest.approx(-0.8416, abs=1e-4)

    def test_monotone_in_x(self):
        tbl = build_quantile_table(0.2, 8, 128, var_rows=64, x_cols=128)
        assert np.all(np.diff(tbl.q, axis=1) >= 0)

    def test_conservative_vs_oracle(self):
        tbl = build_quantile_table(0.25, 8, 128, var_rows=32, x_cols=64)
        z = inv_norm_cdf(0.25)
        eta = math.sqrt(2 * 8 * math.log(128))
        for vi, v in enumerate(tbl.v_grid):
            for xi, x in enumerate(tbl.x_grid):
                veff = max(v - 8.0 * x * x / 9.0, 0.0)
                exact = x * eta + z * math.sqrt(veff)
                assert tbl.q[vi, xi] <= exact

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
        tbl = build_quantile_table(0.2, 2, 32, var_rows=8, x_cols=16)
        # any x inside a cell maps to the value of the cell whose left edge is <= x,
        # which lies strictly below the value of the next cell up
        for x in (0.126, -0.3):
            col = int(np.nonzero(tbl.x_grid <= x)[0][-1])
            assert tbl.x_grid[col] < x < tbl.x_grid[col + 1]
            assert tbl.threshold(4, x) == tbl.q[4, col] < tbl.q[4, col + 1]

    @pytest.mark.parametrize("x_cols", [16, 32, 64, 128, 256, 512, 1024])
    def test_arithmetic_column_matches_searchsorted(self, x_cols):
        tbl = build_quantile_table(0.2, 2, 32, var_rows=4, x_cols=x_cols)
        edges = tbl.x_grid
        xs = np.concatenate([edges, np.nextafter(edges, -2.0), np.nextafter(edges, 2.0),
                             [-1.0, -0.0, np.nextafter(1.0, 0.0)]])
        xs = xs[(xs >= -1.0) & (xs < 1.0)]
        expect = np.searchsorted(tbl.x_grid, xs, side="right") - 1
        np.testing.assert_array_equal(tbl.columns(xs), expect)
        assert [int(tbl.columns(float(x))) for x in xs] == expect.tolist()

    @pytest.mark.parametrize("x_cols", [6, 24, 96, 1000])
    def test_x_cols_must_be_twice_a_power_of_two(self, x_cols):
        with pytest.raises(UsageError):
            build_quantile_table(0.2, 2, 32, x_cols=x_cols)

    def test_conservative_inside_cells(self):
        # a lookup anywhere in a cell returns that cell's value, so the cell must
        # stay below the exact quantile off the grid too: at the midpoint, just
        # below the right edge, and at the dip x* of the quantile for x < 0
        for eps, L in ((0.2, 8), (0.2, 1), (0.05, 4), (0.5, 2)):
            tbl = build_quantile_table(eps, L, 128)
            z = inv_norm_cdf(eps)
            eta = math.sqrt(2 * L * math.log(128))
            c = L / (L + 1.0)
            v = tbl.v_grid[:, None]

            def exact(x):
                return x * eta + z * np.sqrt(np.clip(v - c * x**2, 0.0, None))

            width = tbl.x_grid[1] - tbl.x_grid[0]
            right = np.nextafter(tbl.x_grid + width, -np.inf)
            for x in (tbl.x_grid + 0.5 * width, right):
                assert np.all(tbl.q <= exact(x[None, :]))
            x_star = -np.sqrt(v / (c + (z * c / eta) ** 2))
            inside = tbl.x_grid[None, :] <= x_star
            assert np.all(np.where(inside, tbl.q <= exact(x_star), True))

    def test_nonnegative_columns_hold_exact_quantile(self):
        # for x >= 0 the quantile rises with x, so each cell is the exact value at its left edge
        tbl = build_quantile_table(0.2, 8, 128)
        x = tbl.x_grid[tbl.x_grid >= 0.0]
        assert x.size == len(tbl.x_grid) // 2 and x[1] == pytest.approx(1 / 512)
        eta = math.sqrt(2 * 8 * math.log(128))
        veff = np.clip(tbl.v_grid[:, None] - (8.0 / 9.0) * x[None, :] ** 2, 0.0, None)
        exact = x[None, :] * eta + inv_norm_cdf(0.2) * np.sqrt(veff)
        np.testing.assert_allclose(tbl.q[:, tbl.x_grid >= 0.0], exact, rtol=0.0, atol=1e-8)


class TestScalarQuantizer:
    def test_roundtrip_within_one_step(self):
        rng = np.random.default_rng(3)
        vals = rng.uniform(2.0, 9.0, 10_000)
        q = ScalarQuantizer.fit(vals, 16)
        step = (q.hi - q.lo) / q.levels
        down = q.decode(q.encode(vals, "down"))
        up = q.decode(q.encode(vals, "up"))
        assert np.all(down <= vals + 1e-12) and np.all(vals - down <= step + 1e-9)
        assert np.all(up >= vals - 1e-12) and np.all(up - vals <= step + 1e-9)

    def test_degenerate_range(self):
        q = ScalarQuantizer(5.0, 5.0, 8)
        assert q.decode(q.encode(5.0, "down")) == 5.0

    def test_eight_bit(self):
        vals = np.linspace(0, 1, 100)
        q = ScalarQuantizer.fit(vals, 8)
        err = np.abs(q.decode(q.encode(vals, "down")) - vals)
        assert err.max() <= 1.0 / 255 + 1e-12


class TestExtremeIdCodec:
    def test_roundtrip_all_representable(self):
        for sid in [0, *range(1, 129), *range(-1, -128, -1)]:
            assert decode_extreme_id(encode_extreme_id(sid)) == sid

    def test_minus_128_canonicalizes_to_null(self):
        assert canonical_extreme_id(-128) == 0
        assert canonical_extreme_id(128) == 128
        assert canonical_extreme_id(-127) == -127

    def test_unencodable_rejected(self):
        with pytest.raises(UsageError):
            encode_extreme_id(-128)
        with pytest.raises(UsageError):
            encode_extreme_id(129)


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
                               exact_quantizers(1.0, 1.0))
        assert len(meta.ext_ids) == 2
        assert meta.w_reg_q == 255 and meta.w_res_q == 0
        assert meta.ext_ids[0] == 0  # residual vanishes at L=1

    def test_weight_invariant(self):
        quant = fitted_quantizers([0.0, 60.0], [0.1, 12.0])
        meta = build_edge_meta(self.u, self.v, self.ens, self.plan, quant)
        step = 1.0 / 255
        assert 1 - 2 * step <= meta.w_reg**2 + meta.w_res**2 <= 1 + 2 * step

    def test_recompute_with_regenerated_ensemble(self):
        quant = fitted_quantizers([0.0, 60.0], [0.1, 12.0])
        meta1 = build_edge_meta(self.u, self.v, self.ens, self.plan, quant)
        ens2 = generate_ensemble(17, 32, 4, 16)  # regenerate from the same seed
        meta2 = build_edge_meta(self.u, self.v, ens2, self.plan, quant)
        assert meta1 == meta2

    def test_degenerate_edge_rejected(self):
        from annroute import DegenerateInputError
        with pytest.raises(DegenerateInputError):
            build_edge_meta(self.u, self.u, self.ens, self.plan, exact_quantizers(1.0, 1.0))

    def test_compact_layout(self):
        ens = generate_ensemble(3, 32, 2, 16)
        meta = build_edge_meta(self.u, self.v, ens, PermutationPlan.identity(32, 2),
                               exact_quantizers(1.0, 1.0), compact=True)
        assert len(meta.ext_ids) == 2  # L ids, no residual slot
        assert meta.compact and meta.w_reg == 1.0 and meta.w_res == 0.0


class TestComputeAr:
    def test_unbounded_gives_minus_inf(self):
        ens = generate_ensemble(2, 8, 2, 4)
        meta = build_edge_meta(np.ones(8), np.zeros(8), ens, PermutationPlan.identity(8, 2),
                               exact_quantizers(4.0, math.sqrt(8.0)))
        ar = compute_Ar(meta, ThresholdState.unbounded(), 1.0, Metric.L2)
        assert ar == -math.inf

    def test_worked_example(self):
        # q=(1,0), v=(0,0), u=(0,2), p=(3,0): r=1.5, A_r=0.25
        ens = generate_ensemble(2, 2, 1, 4)
        u, v, q, p = np.array([0.0, 2.0]), np.zeros(2), np.array([1.0, 0.0]), np.array([3.0, 0.0])
        meta = build_edge_meta(u, v, ens, PermutationPlan.identity(2, 1),
                               exact_quantizers(2.0, 2.0))
        delta = np.linalg.norm(p - q)
        ts = ThresholdState.for_l2(float(delta), 1.0, vq=0.0)
        assert ts.r == pytest.approx(1.5)
        ar = compute_Ar(meta, ts, 1.0, Metric.L2)
        assert ar == pytest.approx(0.25)
        assert np.linalg.norm(u - q) > delta  # oracle: u does not beat delta

    def test_candidate_equals_furthest_telescopes_to_cosine(self):
        rng = np.random.default_rng(8)
        u, v, q = rng.standard_normal(16), rng.standard_normal(16), rng.standard_normal(16)
        e = u - v
        ens = generate_ensemble(4, 16, 2, 8)
        meta = build_edge_meta(u, v, ens, PermutationPlan.identity(16, 2),
                               exact_quantizers(0.5 * float(u @ u), float(np.linalg.norm(e))))
        r = 0.5 * float(u @ u) - float(u @ q)  # p == u
        ts = ThresholdState(r=r, delta=math.nan, vq=float(v @ q))
        ar = compute_Ar(meta, ts, float(np.linalg.norm(q)), Metric.L2)
        cos = float(e @ q) / (np.linalg.norm(e) * np.linalg.norm(q))
        assert ar == pytest.approx(cos, abs=1e-9)


def _meta_for(u, v, ens, quant, compact=False):
    return build_edge_meta(u, v, ens, PermutationPlan.identity(ens.d, ens.L), quant, compact)


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
        self.meta = _meta_for(self.u, self.v, self.ens,
                              exact_quantizers(0.5 * float(self.u @ self.u),
                                               float(np.linalg.norm(e))))

    def _ts_at(self, scale):
        # r such that A_r = -scale (the stored norms decode exactly)
        enorm = self.meta.enorm
        r = self.meta.half_u_sq - float(self.v @ self.q) + scale * self.qpt.qnorm * enorm
        ts = ThresholdState(r=r, delta=math.nan, vq=float(self.v @ self.q))
        assert compute_Ar(self.meta, ts, self.qpt.qnorm, Metric.L2) == pytest.approx(-scale)
        return ts

    def _const_table(self, value):
        return QuantileTable(
            eps=0.2, L=4, m=32, x_grid=self.tbl.x_grid, v_grid=self.tbl.v_grid,
            q=np.full_like(self.tbl.q, value),
        )

    def test_auto_pass_when_ar_nonpositive(self):
        ts = ThresholdState.unbounded(vq=float(self.v @ self.q))
        assert peos_test(self.meta, self.tbl, self.qpt, ts) is True
        # at A_r <= -1 every neighbor beats the threshold: pass even against a table that rejects all
        h = _edge_statistic(self.meta, self.qpt)
        assert peos_test(self.meta, self._const_table(h + 1.0), self.qpt, self._ts_at(1.5)) is True

    def test_statistic_decides_when_ar_negative(self):
        h = _edge_statistic(self.meta, self.qpt)
        for scale in (0.5, 0.05):
            ts = self._ts_at(scale)
            assert peos_test(self.meta, self._const_table(h), self.qpt, ts) is True
            assert peos_test(self.meta, self._const_table(h + 1e-6), self.qpt, ts) is False

    def test_auto_fail_when_ar_at_least_one(self):
        # choose r so the numerator overwhelms the denominator
        enorm = self.meta.enorm
        r = self.meta.half_u_sq - float(self.v @ self.q) - 5.0 * self.qpt.qnorm * enorm
        ts = ThresholdState(r=r, delta=math.nan, vq=float(self.v @ self.q))
        assert compute_Ar(self.meta, ts, self.qpt.qnorm, Metric.L2) >= 1.0
        assert peos_test(self.meta, self.tbl, self.qpt, ts) is False

    def test_tie_passes(self):
        # force H == T by building a constant table equal to the statistic
        h = _edge_statistic(self.meta, self.qpt)
        const = self._const_table(h)
        enorm = self.meta.enorm
        r = self.meta.half_u_sq - float(self.v @ self.q) - 0.5 * self.qpt.qnorm * enorm
        ts = ThresholdState(r=r, delta=math.nan, vq=float(self.v @ self.q))
        assert 0.0 < compute_Ar(self.meta, ts, self.qpt.qnorm, Metric.L2) < 1.0
        assert peos_test(self.meta, const, self.qpt, ts) is True


class GateHarness:
    """Shared Monte-Carlo harness: true-positive pass rates for any gate."""

    def __init__(self, d=128, L=8, m=128, eps=0.2, trials=10_000, seed=99, **trial_kw):
        self.d, self.L, self.m, self.eps = d, L, m, eps
        self.trials = make_gate_trials(trials, d, seed, **trial_kw)
        self.ens = generate_ensemble(31, d, L, m)
        self.plan = PermutationPlan.identity(d, L)
        t = self.trials
        half = 0.5 * np.einsum("ij,ij->i", t["u"], t["u"])
        self.quant = fitted_quantizers(half, t["enorm"])

    def peos_pass_rate(self, tbl=None, mode="peos"):
        t = self.trials
        tbl = tbl or build_quantile_table(self.eps, self.L, self.m)
        passes = 0
        n = len(t["u"])
        for i in range(n):
            meta = build_edge_meta(t["u"][i], t["v"][i], self.ens, self.plan, self.quant)
            qpt = project_query(t["q"][i], self.ens)
            ts = ThresholdState(r=t["r"][i], delta=math.nan, vq=t["vq"][i])
            if mode == "rceos":
                ok = rceos_test(meta, qpt, ts, self.eps, self.m)
            else:
                ok = peos_test(meta, tbl, qpt, ts)
            passes += ok
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
        rate = gate_harness_L1.peos_pass_rate(mode="rceos")
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
        rate = gate_harness_L1_neg.peos_pass_rate(mode="rceos")
        assert rate >= 0.78


class TestRceosCollapse:
    def test_decision_equality_with_L1_peos(self):
        d, m, eps = 64, 64, 0.2
        ens = generate_ensemble(41, d, 1, m)
        plan = PermutationPlan.identity(d, 1)
        tbl = build_quantile_table(eps, 1, m)
        rng = np.random.default_rng(12)
        trials = make_gate_trials(10_000, d, 55, gap_lo=-0.3, gap_hi=0.4)
        half = 0.5 * np.einsum("ij,ij->i", trials["u"], trials["u"])
        quant = fitted_quantizers(half, trials["enorm"])
        mism = 0
        for i in range(len(trials["u"])):
            meta = build_edge_meta(trials["u"][i], trials["v"][i], ens, plan, quant)
            qpt = project_query(trials["q"][i], ens)
            ts = ThresholdState(r=trials["r"][i], delta=math.nan, vq=trials["vq"][i])
            mism += rceos_test(meta, qpt, ts, eps, m) != peos_test(meta, tbl, qpt, ts)
        assert mism == 0

    def test_rceos_auto_pass_when_unbounded(self):
        ens = generate_ensemble(2, 16, 1, 8)
        meta = _meta_for(np.ones(16), np.zeros(16), ens, exact_quantizers(8.0, 4.0))
        qpt = project_query(np.arange(1.0, 17.0), ens)
        assert rceos_test(meta, qpt, ThresholdState.unbounded(), 0.2, 8) is True

    def test_rceos_rejects_multiblock_meta(self):
        ens = generate_ensemble(1, 16, 2, 8)
        meta = _meta_for(np.ones(16), np.zeros(16), ens, exact_quantizers(8.0, 4.0))
        qpt = project_query(np.ones(16), ens)
        with pytest.raises(UsageError):
            rceos_test(meta, qpt, ThresholdState.unbounded(), 0.2, 8)


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

    def test_j_rel_dominates_j_opt(self):
        for L in (2, 4, 8):
            ps = estimate_partition_stats(64, L, 5_000, seed=3)
            assert ps.j_rel >= ps.j_opt


class TestBatchPeos:
    def _random_setup(self, seed, n_edges=64):
        rng = np.random.default_rng(seed)
        ens = generate_ensemble(seed, 32, 4, 16)
        plan = PermutationPlan.identity(32, 4)
        U = rng.standard_normal((n_edges, 32))
        V = rng.standard_normal((n_edges, 32))
        half = 0.5 * np.einsum("ij,ij->i", U, U)
        enorm = np.linalg.norm(U - V, axis=1)
        quant = fitted_quantizers(half, enorm)
        metas = [build_edge_meta(U[i], V[i], ens, plan, quant) for i in range(n_edges)]
        q = rng.standard_normal(32)
        qpt = project_query(q, ens)
        v0 = V[0]
        ts = ThresholdState(r=rng.uniform(-5, 30), delta=math.nan, vq=float(v0 @ q))
        return metas, qpt, ts

    def test_bitmap_matches_elementwise(self):
        tbl = build_quantile_table(0.2, 4, 16)
        total = 0
        for seed in range(40):
            metas, qpt, ts = self._random_setup(seed + 1, n_edges=16)
            bitmap = batch_peos_test(metas, tbl, qpt, ts)
            single = np.array([peos_test(m, tbl, qpt, ts) for m in metas])
            np.testing.assert_array_equal(bitmap, single)
            total += len(metas)
        assert total >= 512

    def test_empty_block(self):
        tbl = build_quantile_table(0.2, 4, 16)
        _, qpt, ts = self._random_setup(5, n_edges=1)
        out = batch_peos_test([], tbl, qpt, ts)
        assert out.shape == (0,)

    def test_identical_edges_uniform(self):
        tbl = build_quantile_table(0.2, 4, 16)
        metas, qpt, ts = self._random_setup(9, n_edges=1)
        block = metas * 16
        out = batch_peos_test(block, tbl, qpt, ts)
        assert out.shape == (16,) and len(set(out.tolist())) == 1


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
        from annroute import decompose
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
