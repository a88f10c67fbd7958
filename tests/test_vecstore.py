"""Dataset I/O, metrics, and permutation planner tests."""

import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annroute import (
    Dataset,
    DegenerateInputError,
    FormatError,
    Metric,
    PermutationPlan,
    UsageError,
    apply_permutation,
    build_permutation,
    distance,
    load_fvecs,
    load_ivecs,
    normalize,
    save_fvecs,
    save_ivecs,
)
import annroute.vecstore as vecstore

from oracles import read_fvecs_reference


class TestFvecs:
    def test_single_record_roundtrip(self, tmp_path):
        path = tmp_path / "one.fvecs"
        save_fvecs(np.array([[1.0, 2.0]], dtype=np.float32), path)
        ds = load_fvecs(path)
        assert ds.n == 1 and ds.dim == 2
        np.testing.assert_array_equal(ds.vectors[0], np.array([1.0, 2.0], dtype=np.float32))

    def test_roundtrip_bytes_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        mat = rng.standard_normal((17, 9)).astype(np.float32)
        p1, p2 = tmp_path / "a.fvecs", tmp_path / "b.fvecs"
        save_fvecs(mat, p1)
        save_fvecs(load_fvecs(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_matches_independent_parser(self, tmp_path):
        rng = np.random.default_rng(11)
        mat = rng.standard_normal((100, 16)).astype(np.float32)
        path = tmp_path / "c.fvecs"
        save_fvecs(mat, path)
        ref = read_fvecs_reference(path)
        got = load_fvecs(path).vectors
        np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(got, mat)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_roundtrip_property(self, n, d, seed):
        rng = np.random.default_rng(seed)
        mat = (rng.standard_normal((n, d)) * 10).astype(np.float32)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "x.fvecs")
            save_fvecs(mat, path)
            with open(path, "rb") as f:
                raw1 = f.read()
            save_fvecs(load_fvecs(path), path)
            with open(path, "rb") as f:
                assert f.read() == raw1

    def test_inconsistent_dim_prefix(self, tmp_path):
        path = tmp_path / "bad.fvecs"
        good = np.array([2], dtype="<i4").tobytes() + np.array([1.0, 2.0], dtype="<f4").tobytes()
        bad = np.array([7], dtype="<i4").tobytes() + np.array([3.0, 4.0], dtype="<f4").tobytes()
        path.write_bytes(good + bad)
        with pytest.raises(FormatError):
            load_fvecs(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "trunc.fvecs"
        save_fvecs(np.ones((3, 4), dtype=np.float32), path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(OSError):
            load_fvecs(path)

    def test_ivecs_roundtrip(self, tmp_path):
        ids = np.array([[4, 1, 3], [0, 2, 9]], dtype=np.int32)
        path = tmp_path / "gt.ivecs"
        save_ivecs(ids, path)
        np.testing.assert_array_equal(load_ivecs(path), ids)

    def test_non_positive_dim_prefix(self, tmp_path):
        path = tmp_path / "zero.fvecs"
        path.write_bytes(np.array([0, 0], dtype="<i4").tobytes())
        with pytest.raises(FormatError):
            load_fvecs(path)

    def test_spans_match_independent_parser(self, tmp_path, monkeypatch):
        """Records read a few at a time, with a short last span, land in their rows."""
        monkeypatch.setattr(vecstore, "_VEC_SPAN", 4)
        mat = np.random.default_rng(5).standard_normal((23, 6)).astype(np.float32)
        path = tmp_path / "s.fvecs"
        save_fvecs(mat, path)
        np.testing.assert_array_equal(load_fvecs(path).vectors, read_fvecs_reference(path))
        ids = np.arange(23 * 3, dtype=np.int32).reshape(23, 3)
        save_ivecs(ids, tmp_path / "s.ivecs")
        np.testing.assert_array_equal(load_ivecs(tmp_path / "s.ivecs"), ids)

    def test_inconsistent_prefix_in_a_later_span(self, tmp_path, monkeypatch):
        monkeypatch.setattr(vecstore, "_VEC_SPAN", 4)
        path = tmp_path / "late.fvecs"
        save_fvecs(np.ones((11, 3), dtype=np.float32), path)
        raw = bytearray(path.read_bytes())
        raw[9 * 16 : 9 * 16 + 4] = np.array([5], dtype="<i4").tobytes()  # record 9, in the third span
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_fvecs(path)

    def test_load_peak_is_data_plus_one_span(self, tmp_path, monkeypatch):
        """Neither the file nor a mask of the whole matrix is ever held: the peak is the
        array, one span of records and the finiteness mask of one span of rows (one byte
        per component). The span is small beside the data, so a whole-matrix mask shows."""
        monkeypatch.setattr(vecstore, "_VEC_SPAN", 1 << 9)
        n, d = 20_000, 64
        path = tmp_path / "big.fvecs"
        save_fvecs(np.random.default_rng(2).standard_normal((n, d)).astype(np.float32), path)
        tracemalloc.start()
        try:
            ds = load_fvecs(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.n == n
        bound = 4 * n * d + 4 * (1 + d) * vecstore._VEC_SPAN + d * vecstore._VEC_SPAN + (256 << 10)
        assert peak <= bound, (peak, bound)


class TestDistance:
    def test_pythagorean(self):
        assert distance(np.array([0.0, 0.0]), np.array([3.0, 4.0]), Metric.L2) == pytest.approx(5.0)

    def test_angular_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(8)
            assert distance(x, x, Metric.ANGULAR) == pytest.approx(0.0, abs=1e-12)

    def test_ip_is_negated_inner_product(self):
        a, b = np.array([1.0, 2.0]), np.array([3.0, -1.0])
        assert distance(a, b, Metric.IP) == pytest.approx(-1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError):
            distance(np.zeros(3), np.zeros(4), Metric.L2)

    def test_expansion_identity(self):
        # l2(q,o)^2 == |q|^2 + |o|^2 - 2 q.o, checked against the direct form
        rng = np.random.default_rng(42)
        for _ in range(1000):
            q, o = rng.standard_normal(24), rng.standard_normal(24)
            direct = distance(q, o, Metric.L2) ** 2
            expanded = q @ q + o @ o - 2.0 * (q @ o)
            assert expanded == pytest.approx(direct, rel=1e-4)


class TestNormalize:
    def test_three_four(self):
        np.testing.assert_allclose(normalize(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_unit_norm(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.standard_normal(13)
            assert np.linalg.norm(normalize(x)) == pytest.approx(1.0, abs=1e-6)

    def test_idempotent(self):
        x = np.random.default_rng(2).standard_normal(6)
        np.testing.assert_allclose(normalize(normalize(x)), normalize(x), atol=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInputError):
            normalize(np.zeros(4))


def _subspace_of(plan) -> np.ndarray:
    """Each dimension's 1-based subspace: dimension perm[k] sits in block k // (d/L)."""
    sub = np.empty(plan.dim, dtype=np.int64)
    sub[plan.perm] = np.arange(plan.dim) // (plan.dim // plan.L) + 1
    return sub


class TestBuildPermutation:
    def test_d_equals_L(self):
        plan = build_permutation(np.array([7.0, 9.0]), 2)
        assert _subspace_of(plan).tolist() == [1, 2]

    def test_hand_simulation_d4_L2(self):
        # round 1: rank1 -> S1, rank2 -> S2; round 2: rank3 -> S2, rank4 -> S1
        plan = build_permutation(np.array([1.0, 2.0, 3.0, 4.0]), 2)
        assert _subspace_of(plan).tolist() == [1, 2, 2, 1]
        sums = [0.0, 0.0]
        for j, s in enumerate(_subspace_of(plan)):
            sums[s - 1] += float(j + 1)
        assert sums == [5.0, 5.0]

    def test_block_sizes(self):
        rng = np.random.default_rng(5)
        plan = build_permutation(rng.random(32), 8)
        counts = np.bincount(_subspace_of(plan) - 1, minlength=8)
        assert np.all(counts == 4)

    def test_deterministic(self):
        avgs = np.random.default_rng(9).random(24)
        p1, p2 = build_permutation(avgs, 4), build_permutation(avgs, 4)
        np.testing.assert_array_equal(p1.perm, p2.perm)

    def test_constant_avgs_balance(self):
        plan = build_permutation(np.full(16, 2.5), 4)
        sums = np.zeros(4)
        for j, s in enumerate(_subspace_of(plan)):
            sums[s - 1] += 2.5
        assert np.all(sums == sums[0])

    def test_indivisible_rejected(self):
        with pytest.raises(UsageError):
            build_permutation(np.ones(10), 4)


class TestApplyPermutation:
    def test_identity_plan(self):
        x = np.arange(12.0)
        plan = PermutationPlan.identity(12, 3)
        np.testing.assert_array_equal(apply_permutation(x, plan), x)

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        plan = build_permutation(rng.random(16), 4)
        x = rng.standard_normal(16)
        assert np.linalg.norm(apply_permutation(x, plan)) == pytest.approx(np.linalg.norm(x))

    def test_distances_preserved_all_metrics(self):
        rng = np.random.default_rng(8)
        plan = build_permutation(rng.random(20), 5)
        for _ in range(100):
            a, b = rng.standard_normal(20), rng.standard_normal(20)
            pa, pb = apply_permutation(a, plan), apply_permutation(b, plan)
            for metric in Metric:
                assert distance(pa, pb, metric) == pytest.approx(
                    distance(a, b, metric), abs=1e-6
                )

    def test_invertible(self):
        rng = np.random.default_rng(4)
        plan = build_permutation(rng.random(12), 3)
        x = rng.standard_normal(12)
        y = apply_permutation(x, plan)
        inv = np.empty_like(x)
        inv[plan.perm] = y
        np.testing.assert_allclose(inv, x)

    def test_dim_mismatch(self):
        with pytest.raises(UsageError):
            apply_permutation(np.ones(5), PermutationPlan.identity(8, 2))


class TestDataset:
    def test_nonfinite_rejected(self):
        with pytest.raises(FormatError):
            Dataset(np.array([[1.0, np.nan]], dtype=np.float32))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_nonfinite_in_a_later_span_rejected(self, monkeypatch, bad):
        """Rows are checked a span at a time; a bad component in the short last span still fails."""
        monkeypatch.setattr(vecstore, "_VEC_SPAN", 4)
        vecs = np.ones((11, 3), dtype=np.float32)
        vecs[9, 2] = bad  # the third span holds rows 8-10
        with pytest.raises(FormatError):
            Dataset(vecs)

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            Dataset(np.zeros((0, 4), dtype=np.float32))
