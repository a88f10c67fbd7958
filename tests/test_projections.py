"""Projection ensemble and extreme-index tests."""

import math

import numpy as np
import pytest

from annroute import DegenerateInputError, UsageError, generate_ensemble, project_query

from oracles import expected_max_abs_normal, var_max_abs_normal
from scalar_gate import NULL_INDEX, extreme_index, extreme_index_full


class TestGenerateEnsemble:
    def test_deterministic(self):
        a = generate_ensemble(123, 32, 4, 16)
        b = generate_ensemble(123, 32, 4, 16)
        np.testing.assert_array_equal(a.sub, b.sub)
        np.testing.assert_array_equal(a.full, b.full)

    def test_different_seeds_differ(self):
        a = generate_ensemble(1, 32, 4, 16)
        b = generate_ensemble(2, 32, 4, 16)
        assert np.max(np.abs(a.sub.ravel()[:100] - b.sub.ravel()[:100])) > 0

    def test_standard_normal_moments(self):
        ens = generate_ensemble(7, 512, 8, 128)
        sample = np.concatenate([ens.sub.ravel(), ens.full.ravel()])
        n = sample.size
        assert n > 100_000
        # mean CI ~ 3/sqrt(n), variance CI ~ 3*sqrt(2/n)
        assert abs(sample.mean()) < 3.0 / math.sqrt(n)
        assert abs(sample.var() - 1.0) < 3.0 * math.sqrt(2.0 / n)

    def test_indivisible_rejected(self):
        with pytest.raises(UsageError):
            generate_ensemble(0, 30, 4, 8)


class TestProjectQuery:
    def test_parallel_block_hits_cauchy_schwarz(self):
        ens = generate_ensemble(5, 32, 4, 8)
        q = np.zeros(32)
        q[:8] = ens.sub[0, 0]  # query lives in subspace 1, parallel to a^1_1
        qpt = project_query(q, ens)
        qn_block = np.linalg.norm(q[:8]) / np.linalg.norm(q)
        assert qpt.sub_proj[0, 0] == pytest.approx(qn_block * np.linalg.norm(ens.sub[0, 0]))

    def test_matches_naive_dots(self):
        ens = generate_ensemble(3, 24, 3, 6)
        rng = np.random.default_rng(0)
        q = rng.standard_normal(24)
        qpt = project_query(q, ens)
        qn = q / np.linalg.norm(q)
        for i in range(3):
            for j in range(6):
                naive = float(qn[i * 8 : (i + 1) * 8] @ ens.sub[i, j])
                assert qpt.sub_proj[i, j] == pytest.approx(naive, abs=1e-6)
        for j in range(6):
            assert qpt.full_proj[j] == pytest.approx(float(qn @ ens.full[j]), abs=1e-6)

    def test_qnorm_stored(self):
        ens = generate_ensemble(1, 16, 2, 4)
        q = np.random.default_rng(1).standard_normal(16)
        assert project_query(q, ens).qnorm == pytest.approx(np.linalg.norm(q), abs=1e-6)

    def test_zero_query_rejected(self):
        ens = generate_ensemble(1, 16, 2, 4)
        with pytest.raises(DegenerateInputError):
            project_query(np.zeros(16), ens)


class TestExtremeIndex:
    def test_self_projection_wins(self):
        ens = generate_ensemble(11, 512, 8, 8)  # d'=64, m=8: self dot dominates
        x = ens.sub[2, 2]
        prods = ens.sub[2] @ x
        assert int(np.argmax(np.abs(prods))) == 2  # brute-force argmax oracle
        assert extreme_index(x, ens, 3) == 3

    def test_sign_antisymmetry(self):
        ens = generate_ensemble(4, 32, 4, 16)
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.standard_normal(8)
            assert extreme_index(x, ens, 1) == -extreme_index(-x, ens, 1)

    def test_hand_set_products(self):
        ens = generate_ensemble(9, 8, 2, 2)
        # choose x with sub-products exactly (0.5, -0.9)
        x, *_ = np.linalg.lstsq(ens.sub[0], np.array([0.5, -0.9]), rcond=None)
        assert extreme_index(x, ens, 1) == -2

    def test_zero_subvector_null(self):
        ens = generate_ensemble(9, 8, 2, 2)
        assert extreme_index(np.zeros(4), ens, 1) == NULL_INDEX

    def test_full_space_self(self):
        ens = generate_ensemble(13, 256, 2, 8)
        assert extreme_index_full(ens.full[4], ens) == 5
        prods = ens.full @ ens.full[4]
        assert int(np.argmax(np.abs(prods))) == 4

    def test_full_antisymmetry_and_scale_invariance(self):
        ens = generate_ensemble(6, 32, 2, 12)
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.standard_normal(32)
            sid = extreme_index_full(x, ens)
            assert extreme_index_full(-x, ens) == -sid
            assert extreme_index_full(2.5 * x, ens) == sid

    def test_table_lookup_matches_direct_product(self):
        ens = generate_ensemble(21, 32, 4, 16)
        rng = np.random.default_rng(4)
        q = rng.standard_normal(32)
        x = rng.standard_normal(8)
        qpt = project_query(q, ens)
        sid = extreme_index(x, ens, 2)
        direct = float(q[8:16] @ ens.sub[1, abs(sid) - 1]) / np.linalg.norm(q)
        assert qpt.sub_proj[1, abs(sid) - 1] == pytest.approx(direct, abs=1e-9)


class TestExtremeValueDistribution:
    """Lemma-style distribution check for the signed extreme projection.

    The folded-normal maximum at m=128 sits about 8% below the asymptotic
    sqrt(2 ln m) (slow log convergence), so the mean is asserted two ways:
    tightly against the exact finite-m expectation from quadrature, and
    against the asymptotic constant with that documented gap added to the
    tolerance band.
    """

    M = 128
    SAMPLES = 10_000
    COS = 0.7

    def _sample_extreme_projections(self, samples, m, cos, seed):
        # Rotation invariance: e'.a ~ N(0,1) per vector, q'.a = cos*x + sin*z
        gen = np.random.default_rng(seed)
        x = gen.standard_normal((samples, m))
        z = gen.standard_normal((samples, m))
        j = np.argmax(np.abs(x), axis=1)
        rows = np.arange(samples)
        xw, zw = x[rows, j], z[rows, j]
        sgn = np.sign(xw)
        return sgn * (cos * xw + math.sqrt(1.0 - cos**2) * zw)

    def test_pipeline_agrees_with_simulation(self):
        # small cross-check that the real ensemble pipeline matches the
        # distributional shortcut used for the large samples
        m, d, trials = 32, 16, 400
        cos = 0.6
        vals = []
        e = np.zeros(d)
        e[0] = 1.0
        q = np.zeros(d)
        q[0], q[1] = cos, math.sqrt(1 - cos**2)
        for s in range(trials):
            ens = generate_ensemble(10_000 + s, d, 1, m)
            sid = extreme_index(e, ens, 1)
            vals.append(math.copysign(1.0, sid) * float(q @ ens.sub[0, abs(sid) - 1]))
        mean = float(np.mean(vals))
        exact = cos * expected_max_abs_normal(m)
        se = float(np.std(vals)) / math.sqrt(trials)
        assert abs(mean - exact) < 4 * se

    def test_mean_matches_exact_finite_m(self):
        vals = self._sample_extreme_projections(self.SAMPLES, self.M, self.COS, 5)
        exact = self.COS * expected_max_abs_normal(self.M)
        se = float(np.std(vals)) / math.sqrt(self.SAMPLES)
        assert abs(float(np.mean(vals)) - exact) < 3 * se

    def test_mean_vs_asymptotic_within_bias_band(self):
        vals = self._sample_extreme_projections(self.SAMPLES, self.M, self.COS, 6)
        asym = self.COS * math.sqrt(2.0 * math.log(self.M))
        bias = self.COS * abs(math.sqrt(2.0 * math.log(self.M)) - expected_max_abs_normal(self.M))
        se = float(np.std(vals)) / math.sqrt(self.SAMPLES)
        assert abs(float(np.mean(vals)) - asym) < bias + 3 * se

    def test_variance_within_20_percent(self):
        vals = self._sample_extreme_projections(self.SAMPLES, self.M, self.COS, 7)
        target = 1.0 - self.COS**2
        assert abs(float(np.var(vals)) - target) < 0.2 * target

    def test_quadrature_oracle_sane(self):
        # the exact mean must sit below the asymptotic constant at m=128
        e128 = expected_max_abs_normal(128)
        assert 2.8 < e128 < math.sqrt(2 * math.log(128))
        assert var_max_abs_normal(128) > 0
