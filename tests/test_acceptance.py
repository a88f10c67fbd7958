"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The desk-scale corpus
and graph come from session fixtures (built once, disk-cached); the
stated runtime budgets apply to the measured operation, not the shared
fixture construction.
"""

import math
import time

import numpy as np
import pytest

import annroute as ar
from annroute import (
    Metric,
    RoutingConfig,
    RoutingMode,
    SearchParams,
    apply_permutation,
    build_quantile_table,
    compute_recall,
    distance,
    required_m_rceos,
    run_audit,
    search,
)

from annroute.routing import X_COLS, X_LEFT, variance_grid
from conftest import DESK_K
from oracles import expected_max_abs_normal, spread_norms
from scalar_gate import collision_count

EPS = 0.2
GUARANTEE_BAR = 1.0 - EPS - 0.02  # 0.78


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# -- 1. Guarantee audit ------------------------------------------------------


@pytest.mark.parametrize("mode", ["peos", "rceos", "simhash"])
def test_c1_guarantee_audit(mode, desk_data, desk_peos, desk_rceos, desk_simhash):
    _, queries = desk_data
    idx = {"peos": desk_peos, "rceos": desk_rceos, "simhash": desk_simhash}[mode]
    t0 = time.perf_counter()
    rep = run_audit(idx, queries, idx.routing.cfg, efs=500, K=DESK_K, min_evaluations=10_000)
    wall = time.perf_counter() - t0
    ok = rep.pass_rate >= GUARANTEE_BAR and rep.evaluations >= 10_000 and wall < 120.0
    _report(
        f"C1 guarantee audit [{mode}]", ok,
        f"rate={rep.pass_rate:.4f} bound={GUARANTEE_BAR} evals={rep.evaluations} "
        f"tp={rep.true_positives} wall={wall:.1f}s",
    )


_LIVE_AUDITS = {
    "compact_L4": (Metric.L2, RoutingConfig(mode=RoutingMode.PEOS, eps=EPS, L=4, m=64, compact=True)),
    "peos_angular": (Metric.ANGULAR, RoutingConfig(mode=RoutingMode.PEOS, eps=EPS, L=8, m=128)),
    "peos_ip": (Metric.IP, RoutingConfig(mode=RoutingMode.PEOS, eps=EPS, L=8, m=128)),
}


@pytest.mark.parametrize("name", list(_LIVE_AUDITS))
def test_c1_live_audit(name):
    """The guarantee audit on live searches beyond the desk's full-record L2 gates."""
    metric, cfg = _LIVE_AUDITS[name]
    ds, queries = ar.synthetic_dataset(3000, 64, 200, seed=11)
    idx = ar.attach(ar.build_hnsw(ds, M=16, efc=80, metric=metric, seed=11), cfg)
    rep = run_audit(idx, queries, cfg, efs=200, K=10, min_evaluations=10_000)
    ok = rep.pass_rate >= GUARANTEE_BAR and rep.evaluations >= 10_000
    _report(f"C1 live audit [{name}]", ok,
            f"rate={rep.pass_rate:.4f} bound={GUARANTEE_BAR} evals={rep.evaluations} tp={rep.true_positives}")


@pytest.fixture(scope="module")
def spread_angular():
    """8k x 128 angular data whose norms spread from 0.3x to 3x: the graph, queries, truth@10
    and the recall@10 of ungated search."""
    ds, queries = ar.synthetic_dataset(8000, 128, 100, seed=3)
    ds = ar.Dataset(spread_norms(ds.vectors, 3))
    idx = ar.build_hnsw(ds, M=16, efc=100, metric=Metric.ANGULAR, seed=3)
    truth = ar.brute_force_all(ds, queries, 10, Metric.ANGULAR)
    return idx, queries, truth, _recall_at_10(idx, queries, truth, RoutingConfig())


def _recall_at_10(idx, queries, truth, cfg) -> float:
    params = SearchParams(K=10, efs=200, routing=cfg)
    return compute_recall([search(idx, q, params)[0] for q in queries], truth, 10)


@pytest.mark.parametrize("mode", [RoutingMode.PEOS, RoutingMode.SIMHASH], ids=lambda m: m.value)
def test_c1_live_audit_spread_norm_angular(mode, spread_angular):
    """On angular data with spread norms the gate keeps its bound, and its recall@10 stays
    within 0.01 of ungated search: A_r must weigh each endpoint's norm, as a gate that
    tests the inner-product condition rejects improving edges there."""
    idx, queries, truth, none_recall = spread_angular
    cfg = RoutingConfig(mode=mode, eps=EPS, L=8, m=128)
    routed = ar.attach(idx, cfg)
    rep = run_audit(routed, queries, cfg, efs=200, K=10, min_evaluations=10_000)
    recall = _recall_at_10(routed, queries, truth, cfg)
    ok = rep.pass_rate >= GUARANTEE_BAR and rep.evaluations >= 10_000 and recall >= none_recall - 0.01
    _report(f"C1 live audit [{mode.value}, spread-norm angular]", ok,
            f"rate={rep.pass_rate:.4f} bound={GUARANTEE_BAR} evals={rep.evaluations} "
            f"recall@10={recall:.4f} none={none_recall:.4f}")


# -- 2. Distance-computation reduction ---------------------------------------


def test_c2_distance_reduction(desk_data, desk_truth, desk_index, desk_peos, desk_peos_cfg):
    _, queries = desk_data
    t0 = time.perf_counter()
    pn = SearchParams(K=DESK_K, efs=500)
    pp = SearchParams(K=DESK_K, efs=500, routing=desk_peos_cfg)
    s0, s1 = desk_index.make_scratch(), desk_peos.make_scratch()
    res_n, res_p, dist_n, dist_p = [], [], [], []
    for q in queries:
        ids, st = search(desk_index, q, pn, scratch=s0)
        res_n.append(ids)
        dist_n.append(st.dist_computations)
    for q in queries:
        ids, st = search(desk_peos, q, pp, scratch=s1)
        res_p.append(ids)
        dist_p.append(st.dist_computations)
    wall = time.perf_counter() - t0
    recall_n = compute_recall(res_n, desk_truth, DESK_K)
    recall_p = compute_recall(res_p, desk_truth, DESK_K)
    ratio = float(np.mean(dist_p) / np.mean(dist_n))
    ok = ratio <= 0.5 and recall_p >= recall_n - 0.02 and wall < 300.0
    _report(
        "C2 distance reduction", ok,
        f"ratio={ratio:.3f} (bar 0.5) recall none={recall_n:.4f} peos={recall_p:.4f} wall={wall:.0f}s",
    )


# -- 3. Regular-weight bound -------------------------------------------------


def test_c3_w_reg_bound():
    t0 = time.perf_counter()
    stats = ar.estimate_partition_stats(128, 8, 100_000, seed=2)
    wall = time.perf_counter() - t0
    ok = stats.mean_w_reg >= 0.978 - 0.001 and wall < 30.0
    _report("C3 w_reg bound", ok, f"mean={stats.mean_w_reg:.5f} (bar 0.977) wall={wall:.1f}s")


# -- 4. RCEOs/PEOs collapse --------------------------------------------------


def test_c4_rceos_peos_collapse(desk_data, desk_index, desk_rceos):
    """RCEOs is peos at L=1: the same records, and the same ids and counters on every query."""
    _, queries = desk_data
    cfg = desk_rceos.routing.cfg
    peos_cfg = RoutingConfig(mode=RoutingMode.PEOS, eps=cfg.eps, L=1, m=cfg.m)
    peos = ar.attach(desk_index, peos_cfg)
    same_records = desk_rceos.routing.store.wire_records().tobytes() == peos.routing.store.wire_records().tobytes()
    s0, s1 = desk_rceos.make_scratch(), peos.make_scratch()
    mismatches = n = 0
    for q in queries:
        a, sa = search(desk_rceos, q, SearchParams(K=DESK_K, efs=500, routing=cfg), scratch=s0)
        b, sb = search(peos, q, SearchParams(K=DESK_K, efs=500, routing=peos_cfg), scratch=s1)
        mismatches += not (np.array_equal(a, b) and sa == sb)
        n += sa.tests_evaluated
    ok = same_records and mismatches == 0 and n >= 10_000
    _report("C4 rceos/peos collapse", ok,
            f"records identical={same_records} mismatched queries={mismatches} over {n} evaluations")


# -- 5. Required-m table row -------------------------------------------------


def test_c5_required_m():
    val = required_m_rceos(64, math.pi / 2)
    ok = 4.28e5 < val < 4.30e5
    _report("C5 required m", ok, f"required_m_rceos(64, pi/2)={val:.0f}")


# -- 6. Distributional checks ------------------------------------------------


def _extreme_samples(samples, m, cos, seed):
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((samples, m))
    z = gen.standard_normal((samples, m))
    j = np.argmax(np.abs(x), axis=1)
    rows = np.arange(samples)
    xw, zw = x[rows, j], z[rows, j]
    return np.sign(xw) * (cos * xw + math.sqrt(1.0 - cos * cos) * zw)


def test_c6_distributional_checks():
    S, m, L = 10_000, 128, 8
    em = expected_max_abs_normal(m)
    eta1 = math.sqrt(2 * math.log(m))
    details = []

    # H1 moments for a random unit pair: mean tracks eta * sum_i |q_i| cos_i
    rng = np.random.default_rng(81)
    e = rng.standard_normal(128)
    q = rng.standard_normal(128)
    e /= np.linalg.norm(e)
    q /= np.linalg.norm(q)
    h1 = np.zeros(S)
    eb, qb = e.reshape(L, -1), q.reshape(L, -1)
    for i in range(L):
        en, qn = np.linalg.norm(eb[i]), np.linalg.norm(qb[i])
        cos_i = float(eb[i] @ qb[i]) / (en * qn)
        h1 += qn * _extreme_samples(S, m, cos_i, 100 + i)
    target = float(sum(np.linalg.norm(qb[i]) * float(eb[i] @ qb[i])
                       / (np.linalg.norm(eb[i]) * np.linalg.norm(qb[i])) for i in range(L)))
    se = float(np.std(h1)) / math.sqrt(S)
    bias = abs(target) * abs(eta1 - em)
    h1_mean_ok = abs(float(np.mean(h1)) - target * em) < 3 * se
    h1_asym_ok = abs(float(np.mean(h1)) - target * eta1) < bias + 3 * se
    h1_var_ok = float(np.var(h1)) <= 1.0
    details.append(f"H1 mean={np.mean(h1):.4f} oracle={target * em:.4f} se={se:.4f} var={np.var(h1):.3f}")

    # SimHash collision fraction vs 1 - theta/pi
    theta, n_bits, trials = 1.1, 128, 1500
    gen = np.random.default_rng(82)
    ev = np.zeros(8)
    qv = np.zeros(8)
    ev[0] = 1.0
    qv[0], qv[1] = math.cos(theta), math.sin(theta)
    total = 0
    for _ in range(trials):
        hashes = gen.standard_normal((n_bits, 8))
        total += collision_count(ar.simhash_sketch(ev, hashes), ar.simhash_sketch(qv, hashes))
    frac = total / (n_bits * trials)
    p = 1.0 - theta / math.pi
    se_col = math.sqrt(p * (1 - p) / (n_bits * trials))
    simhash_ok = abs(frac - p) < 3 * se_col
    details.append(f"simhash frac={frac:.4f} target={p:.4f} se={se_col:.5f}")

    # extreme projection mean vs cos * sqrt(2 ln m)
    cos = 0.7
    vals = _extreme_samples(S, m, cos, 83)
    se_r = float(np.std(vals)) / math.sqrt(S)
    rceos_exact_ok = abs(float(np.mean(vals)) - cos * em) < 3 * se_r
    rceos_asym_ok = abs(float(np.mean(vals)) - cos * eta1) < cos * abs(eta1 - em) + 3 * se_r
    details.append(f"rceos mean={np.mean(vals):.4f} oracle={cos * em:.4f} asym={cos * eta1:.4f}")

    ok = all([h1_mean_ok, h1_asym_ok, h1_var_ok, simhash_ok, rceos_exact_ok, rceos_asym_ok])
    _report("C6 distributional checks", ok, "; ".join(details))


# -- 7. Quantile table scan ---------------------------------------------------


def test_c7_quantile_table_scan():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    tbl = build_quantile_table(EPS, 8, 128)
    z_hp = float(mp.sqrt(2) * mp.erfinv(2 * mp.mpf("0.2") - 1))
    eta = math.sqrt(2 * 8 * math.log(128))
    veff = np.clip(variance_grid(8)[:, None] - (8.0 / 9.0) * X_LEFT[None, :] ** 2, 0.0, None)
    exact = X_LEFT[None, :] * eta + z_hp * np.sqrt(veff)
    cells = tbl[:, :X_COLS]  # x in [-1, 1); the last column serves x >= 1
    conservative = bool(np.all(cells <= exact))
    monotone = bool(np.all(np.diff(cells, axis=1) >= 0))
    inf_column = tbl.shape[1] == X_COLS + 1 and bool(np.all(tbl[:, X_COLS] == math.inf))
    ok = conservative and monotone and inf_column
    _report(
        "C7 quantile table", ok,
        f"cells={cells.size} conservative={conservative} monotone={monotone} inf_column={inf_column} "
        f"max_gap={float(np.max(exact - cells)):.2e}",
    )


# -- 8. Vanilla equivalence ---------------------------------------------------


def test_c8_vanilla_equivalence(desk_data, desk_index, desk_peos):
    _, queries = desk_data
    params = SearchParams(K=DESK_K, efs=500)
    s0, s1 = desk_index.make_scratch(), desk_peos.make_scratch()
    identical = 0
    for q in queries:
        a, _ = search(desk_index, q, params, scratch=s0)
        b, _ = search(desk_peos, q, params, scratch=s1)
        identical += int(np.array_equal(a, b))
    ok = identical == len(queries)
    _report("C8 vanilla equivalence", ok, f"{identical}/{len(queries)} queries identical")


# -- 9. Permutation invariance -------------------------------------------------


def test_c9_permutation_invariance(desk_data, desk_truth, desk_index, desk_peos, desk_peos_cfg):
    ds, queries = desk_data
    permuted = ar.attach(desk_index, desk_peos_cfg, permute=True)
    plan = permuted.routing.plan
    params = SearchParams(K=DESK_K, efs=500, routing=desk_peos_cfg)
    s0, s1 = desk_peos.make_scratch(), permuted.make_scratch()
    res_plain, res_perm = [], []
    max_dist_gap = 0.0
    for q in queries:
        a, _ = search(desk_peos, q, params, scratch=s0)
        b, _ = search(permuted, q, params, scratch=s1)
        res_plain.append(a)
        res_perm.append(b)
        qp = apply_permutation(q.astype(np.float64), plan)
        for i in b[:10]:
            raw = distance(q.astype(np.float64), ds.vectors[i].astype(np.float64), Metric.L2)
            perm = distance(qp, apply_permutation(ds.vectors[i].astype(np.float64), plan), Metric.L2)
            max_dist_gap = max(max_dist_gap, abs(raw - perm))
    recall_plain = compute_recall(res_plain, desk_truth, DESK_K)
    recall_perm = compute_recall(res_perm, desk_truth, DESK_K)
    ok = max_dist_gap <= 1e-6 and abs(recall_perm - recall_plain) <= 0.02
    _report(
        "C9 permutation invariance", ok,
        f"max distance gap={max_dist_gap:.2e} recall plain={recall_plain:.4f} permuted={recall_perm:.4f}",
    )


# -- 10. Format stability -------------------------------------------------------


def test_c10_format_stability(desk_data, desk_peos, tmp_path):
    ds, _ = desk_data
    p1, p2 = tmp_path / "a.idx", tmp_path / "b.idx"
    ar.save_index(desk_peos, p1)
    loaded = ar.load_index(p1, ds)
    ar.save_index(loaded, p2)
    idx_ok = p1.read_bytes() == p2.read_bytes()

    f1, f2 = tmp_path / "a.fvecs", tmp_path / "b.fvecs"
    rng = np.random.default_rng(5)
    ar.save_fvecs(rng.standard_normal((64, 32)).astype(np.float32), f1)
    ar.save_fvecs(ar.load_fvecs(f1), f2)
    fv_ok = f1.read_bytes() == f2.read_bytes()
    ok = idx_ok and fv_ok
    _report("C10 format stability", ok, f"index roundtrip={idx_ok} fvecs roundtrip={fv_ok}")
