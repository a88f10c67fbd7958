"""Benchmark harness: recall/QPS sweeps, distance-computation curves, guarantee audits.

The query loop is single-threaded by contract and rebuilds the query
projection table inside every search call, so QPS numbers reflect the
full per-query cost. A built-in seeded Gaussian generator stands in for
the large public datasets at desk scale.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, fields

import numpy as np

from .edgestore import attach
from .errors import UsageError
from .hnsw import HnswIndex, brute_force_all, build_hnsw
from .query import AuditTrace, SearchParams, search
from .routing import RoutingConfig, RoutingMode
from .vecstore import Dataset, Metric, load_fvecs, load_ivecs, save_ivecs

DEFAULT_SYNTHETIC = (50_000, 128, 100)


@dataclass(frozen=True)
class BenchmarkSpec:
    """Everything one sweep needs; paths may be omitted in favor of synthetic data."""

    routings: tuple[RoutingConfig, ...]
    efs_list: tuple[int, ...]
    K: int = 100
    base: str | None = None
    query: str | None = None
    truth: str | None = None
    metric: Metric = Metric.L2
    M: int = 16
    efc: int = 160
    repetitions: int = 1
    seed: int = 42
    permute: bool = False
    synthetic: tuple[int, int, int] = DEFAULT_SYNTHETIC
    out: str | None = None

    def __post_init__(self):
        if not self.efs_list or not self.routings:
            raise UsageError("sweep needs at least one efs value and one routing config")
        if self.K > min(self.efs_list):
            raise UsageError("K must not exceed the smallest efs")
        if self.repetitions < 1:
            raise UsageError("repetitions must be positive")


@dataclass(frozen=True)
class RunResult:
    mode: str
    epsilon: float
    L: int
    m: int
    compact: bool
    efs: int
    K: int
    recall: float
    qps: float
    dist_comps: float
    pass_frac: float
    wall_ms: float

    def csv_row(self) -> str:
        return ",".join(_CSV_CELL[f.type](getattr(self, f.name)) for f in fields(self))


# one CSV column per RunResult field, in field order, each written as its declared type
_CSV_CELL = {"str": str, "int": str, "bool": lambda x: str(int(x)), "float": lambda x: format(float(x), ".6g")}
CSV_HEADER = ",".join(f.name for f in fields(RunResult))


@dataclass(frozen=True)
class AuditReport:
    mode: str
    epsilon: float
    evaluations: int
    true_positives: int
    pass_rate: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.pass_rate >= self.bound


INTRINSIC_DIM = 32
AMBIENT_NOISE = 0.1


def synthetic_dataset(n: int, d: int, n_queries: int, seed: int) -> tuple[Dataset, np.ndarray]:
    """Seeded Gaussian corpus and queries with realistic low intrinsic dimension.

    Points are isotropic Gaussians in a random INTRINSIC_DIM-dimensional
    subspace plus isotropic AMBIENT_NOISE. Fully isotropic d-dimensional
    Gaussians concentrate all pairwise distances so tightly that no
    routing method (and barely any graph search) has contrast to work
    with; capping the intrinsic dimension reproduces the distance-rank
    spread that real corpora show at desk scale. With d <= INTRINSIC_DIM
    the points are a plain rotated Gaussian.
    """
    k = min(INTRINSIC_DIM, d)
    if n < 1 or d < 1 or n_queries < 0:
        raise UsageError("synthetic generator needs positive sizes")
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(4,))))
    basis = np.linalg.qr(gen.standard_normal((d, k)))[0]

    def make(count: int) -> np.ndarray:
        pts = gen.standard_normal((count, k)) @ basis.T + AMBIENT_NOISE * gen.standard_normal((count, d))
        return pts.astype(np.float32)

    vectors = make(n)
    queries = make(n_queries)
    return Dataset(vectors), queries


def compute_recall(results, truth, K: int) -> float:
    """Mean over queries of |result intersect truth@K| / K."""
    results = list(results)
    truth = np.asarray(truth)
    if len(results) != truth.shape[0]:
        raise UsageError("result and truth query counts differ")
    if truth.shape[1] < K:
        raise UsageError(f"truth lists have fewer than K={K} entries")
    total = 0.0
    for res, t in zip(results, truth):
        total += len(set(np.asarray(res).tolist()) & set(t[:K].tolist())) / K
    return total / len(results)


def load_corpus(spec: BenchmarkSpec) -> tuple[Dataset, np.ndarray]:
    """Dataset and queries, from the spec's files or its synthetic generator."""
    if spec.base is not None:
        ds = load_fvecs(spec.base)
        if spec.query is None:
            raise UsageError("--query is required when --base is given")
        queries = load_fvecs(spec.query).vectors
    else:
        n, d, nq = spec.synthetic
        ds, queries = synthetic_dataset(n, d, nq, spec.seed)
    if len(queries) == 0:
        raise UsageError("need at least one query")
    return ds, queries


def load_inputs(spec: BenchmarkSpec) -> tuple[Dataset, np.ndarray, np.ndarray]:
    """Dataset, queries, and ground truth (computed and cached as ivecs when absent)."""
    ds, queries = load_corpus(spec)
    if spec.truth is not None and os.path.exists(spec.truth):
        truth = load_ivecs(spec.truth)
    else:
        truth = brute_force_all(ds, queries, spec.K, spec.metric).astype(np.int32)
        if spec.truth is not None:
            save_ivecs(truth, spec.truth)
    if truth.shape[0] != queries.shape[0]:
        raise UsageError("ground truth query count does not match queries")
    return ds, queries, truth


def run_sweep(spec: BenchmarkSpec, idx: HnswIndex | None = None,
              data: tuple[Dataset, np.ndarray, np.ndarray] | None = None) -> list[RunResult]:
    """One row per (routing config, efs); single-threaded query timing."""
    ds, queries, truth = data if data is not None else load_inputs(spec)
    if idx is None:
        idx = build_hnsw(ds, spec.M, spec.efc, spec.metric, spec.seed)
    rows: list[RunResult] = []
    for cfg in spec.routings:
        run_idx = attach(idx, cfg, permute=spec.permute)
        scratch = run_idx.make_scratch()
        for efs in spec.efs_list:
            params = SearchParams(K=spec.K, efs=efs, routing=cfg)
            times = []
            ids_per_query: list[np.ndarray] = []
            stats_list = []
            for _ in range(spec.repetitions):
                ids_per_query.clear()
                stats_list.clear()
                t0 = time.perf_counter()
                for q in queries:
                    ids, st = search(run_idx, q, params, scratch=scratch)
                    ids_per_query.append(ids)
                    stats_list.append(st)
                times.append(time.perf_counter() - t0)
            wall = float(np.median(times))
            evaluated = sum(s.tests_evaluated for s in stats_list)
            passed = sum(s.tests_passed for s in stats_list)
            rows.append(RunResult(
                mode=cfg.mode.value,
                epsilon=cfg.eps,
                L=cfg.L,
                m=cfg.m,
                compact=cfg.compact,
                efs=efs,
                K=spec.K,
                recall=compute_recall(ids_per_query, truth, spec.K),
                qps=len(queries) / wall if wall > 0 else float("inf"),
                dist_comps=float(np.mean([s.dist_computations for s in stats_list])),
                pass_frac=(passed / evaluated) if evaluated else 1.0,
                wall_ms=wall * 1000.0,
            ))
    if spec.out:
        write_csv(rows, spec.out)
    return rows


def write_csv(rows, path) -> None:
    with open(path, "w") as f:
        f.write(CSV_HEADER + "\n")
        for row in rows:
            f.write(row.csv_row() + "\n")


def run_audit(idx: HnswIndex, queries: np.ndarray, cfg: RoutingConfig, efs: int, K: int,
              min_evaluations: int = 10_000) -> AuditReport:
    """Shadow-evaluate live search traces and report the true-positive pass rate.

    Every gated neighbor also gets its exact distance computed for the
    record; result-list updates still follow the gate decisions, so the
    search results are unchanged. Raises UsageError when the queries give
    fewer than min_evaluations gated evaluations, or none whose neighbor beat its threshold.
    """
    if min_evaluations < 1_000:
        raise UsageError("audit needs at least 1000 gated evaluations")
    trace = AuditTrace()
    scratch = idx.make_scratch()
    params = SearchParams(K=K, efs=efs, routing=cfg)
    for q in queries:
        search(idx, q, params, scratch=scratch, audit=trace)
        if trace.n_evaluations >= min_evaluations:
            break
    if trace.n_evaluations < min_evaluations:
        raise UsageError(
            f"only {trace.n_evaluations} gated evaluations available; add queries or raise efs"
        )
    rate, hits = trace.true_positive_rate()
    if hits == 0:
        raise UsageError(f"none of {trace.n_evaluations} gated evaluations beat its threshold; no rate to audit")
    bound = 1.0 if cfg.mode == RoutingMode.NONE else 1.0 - cfg.eps - 0.02
    return AuditReport(
        mode=cfg.mode.value,
        epsilon=cfg.eps,
        evaluations=trace.n_evaluations,
        true_positives=hits,
        pass_rate=rate,
        bound=bound,
    )


def audit_guarantee(spec: BenchmarkSpec, trials: int = 10_000,
                    idx: HnswIndex | None = None,
                    data: tuple[Dataset, np.ndarray, np.ndarray] | None = None) -> list[AuditReport]:
    """Audit every routing config in the spec over at least `trials` gated evaluations; no answer key is read."""
    ds, queries = data[:2] if data is not None else load_corpus(spec)
    if idx is None:
        idx = build_hnsw(ds, spec.M, spec.efc, spec.metric, spec.seed)
    efs = max(spec.efs_list)
    reports = []
    for cfg in spec.routings:
        reports.append(run_audit(attach(idx, cfg, permute=spec.permute), queries, cfg, efs, spec.K,
                                 min_evaluations=trials))
    return reports
