"""The workloads: set-up, timed closed-loop query passes, checks and metrics.

Each workload is one caller in one process that sends the next query
only after the last one is answered. The untraced run times set-up and
the query passes and reports the end-to-end metrics; the traced run
(``--trace 1``) sets up once, runs every query once untraced and once
traced, and reports the per-layer metrics.
"""

from __future__ import annotations

import math
import os
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import checks
import inputs
from tracing import GATE_COUNTS, HOOK, Tracer


# latency_tail_ms is this percentile of all timed calls, and a run makes at least
# MIN_CALLS of them, so at least ten calls lie beyond it
TAIL_PCT, MIN_CALLS = 0.95, 200


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # routing mode of the served index and of the queries
    K: int
    efs: int
    n_queries: int
    recall_floor: float
    setup_reps: int  # set-ups per run, setup_s is their median
    roundtrip_queries: int
    audit_queries: int
    build_n: int = 0  # 0: serve the cached desk graph; else build this many points in set-up


WORKLOADS = {
    w.name: w for w in (
        Workload("desk-peos", "peos", K=100, efs=500, n_queries=100, recall_floor=0.98,
                 setup_reps=1, roundtrip_queries=5, audit_queries=20),
        Workload("desk-none", "none", K=100, efs=500, n_queries=100, recall_floor=0.99,
                 setup_reps=5, roundtrip_queries=5, audit_queries=20),
        Workload("build-5k", "simhash", K=10, efs=100, n_queries=200, recall_floor=0.98,
                 setup_reps=1, roundtrip_queries=20, audit_queries=50, build_n=5000),
    )
}


def routing_config(ar, mode: str):
    if mode == "peos":
        return ar.RoutingConfig(mode=ar.RoutingMode.PEOS, eps=0.2, L=8, m=128)
    if mode == "simhash":
        return ar.RoutingConfig(mode=ar.RoutingMode.SIMHASH, eps=0.2, simhash_bits=64)
    return ar.RoutingConfig()


@dataclass
class Served:
    index: object  # the index that answers queries, loaded from `path`
    path: str  # the index file it was loaded from
    before_save: object  # the in-memory index that was saved to `path`; None if read from cache
    scratch: object


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


class Bench:
    """One run of one workload: inputs, set-up, checks, timed passes."""

    def __init__(self, ar, wl: Workload, seed: int, work_dir: str, log, desk=None):
        self.ar, self.wl, self.seed, self.work, self.log = ar, wl, seed, work_dir, log
        self.cfg = routing_config(ar, wl.mode)
        self.params = ar.SearchParams(K=wl.K, efs=wl.efs, routing=self.cfg)
        self.temp: list[str] = []
        if wl.build_n:
            basis, self.base = inputs.corpus(seed, wl.build_n, family=inputs.BUILD_FAMILY)
            self.fvecs = self._temp("base.fvecs")
            inputs.write_fvecs(self.base, self.fvecs)
            self.graph_path = None
            qs = inputs.queries(seed, basis, wl.n_queries + 1, seed, family=inputs.BUILD_FAMILY)
        else:
            self.base, self.fvecs, self.graph_path = desk.base, desk.fvecs, desk.graph
            qs = inputs.queries(inputs.DESK_SEED, desk.basis, wl.n_queries + 1, seed)
        self.queries, self.warm = qs[:-1], qs[-1]
        self.truth = inputs.exact_topk(self.base, self.queries, wl.K)

    def _temp(self, suffix: str) -> str:
        path = os.path.join(self.work, f"{self.wl.name}-{os.getpid()}-{suffix}")
        self.temp.append(path)
        return path

    def cleanup(self) -> None:
        for path in self.temp:
            if os.path.exists(path):
                os.unlink(path)

    def setup(self) -> Served:
        """From the input files on disk to an index that has answered one warm-up query."""
        ar, wl = self.ar, self.wl
        ds = ar.load_fvecs(self.fvecs)
        if wl.build_n:
            graph = ar.build_hnsw(ds, inputs.BUILD_M, inputs.BUILD_EFC, ar.Metric.L2, self.seed)
        else:
            graph = ar.load_index(self.graph_path, ds)
        if wl.mode == "none":
            index, path, before = graph, self.graph_path, None
        else:
            before = ar.attach(graph, self.cfg)
            path = self._temp("serve.idx")
            ar.save_index(before, path)
            index = ar.load_index(path, ds)
        scratch = index.make_scratch()
        ar.search(index, self.warm, self.params, scratch)
        return Served(index, path, before, scratch)

    def timed_setups(self, reps: int) -> tuple[list[float], Served]:
        times = []
        for _ in range(reps):
            t0 = perf_counter()
            served = self.setup()
            times.append(perf_counter() - t0)
        return times, served

    # -- checks made once per run, outside every timed phase -------------------

    def check_served(self, served: Served) -> None:
        ar, wl = self.ar, self.wl
        index = served.index
        if not np.array_equal(index.dataset.vectors, self.base):
            raise checks.CheckFailed("vectors read back differ from the vectors written")
        checks.check_graph(index, inputs.BUILD_M if wl.build_n else inputs.DESK_M)
        resave = self._temp("resave.idx")
        ar.save_index(index, resave)
        checks.check_same_bytes(_read(served.path), _read(resave), "re-save of the served index")
        ref = served.before_save if served.before_save is not None else ar.load_index(resave, index.dataset)
        qs = self.queries[: wl.roundtrip_queries]
        checks.check_same_answers([ar.search(ref, q, self.params)[0] for q in qs],
                                  [ar.search(index, q, self.params)[0] for q in qs],
                                  "save -> load round trip")

    def routing_file_bytes(self, served: Served) -> int:
        """Bytes the served file holds beyond the same graph saved with no routing."""
        plain = self._temp("plain.idx")
        self.ar.save_index(self.ar.attach(served.index, self.ar.RoutingConfig()), plain)
        return os.path.getsize(served.path) - os.path.getsize(plain)

    def audit(self, served: Served) -> tuple[float, float]:
        """Audited (true-positive rate, pass precision); the rate must keep the 1 - eps promise."""
        trace = self.ar.AuditTrace()
        for q in self.queries[: self.wl.audit_queries]:
            self.ar.search(served.index, q, self.params, served.scratch, audit=trace)
        rate, precision = checks.audit_rates(trace)
        checks.check_tp_rate(rate, self.cfg.eps)
        return rate, precision

    # -- query passes --------------------------------------------------------

    def query_pass(self, served: Served):
        """One closed-loop pass over the queries: (answers, stats, per-call seconds, wall seconds)."""
        search, index, params, scratch = self.ar.search, served.index, self.params, served.scratch
        answers, stats, lat = [], [], []
        t_pass = perf_counter()
        for q in self.queries:
            t0 = perf_counter()
            ids, st = search(index, q, params, scratch)
            lat.append(perf_counter() - t0)
            answers.append(ids)
            stats.append(st)
        return answers, stats, lat, perf_counter() - t_pass

    def check_answers(self, answers, stats) -> float:
        wl = self.wl
        for ids, q in zip(answers, self.queries):
            checks.check_answer(ids, wl.K, self.base, q)
        for st in stats:
            checks.check_counters(st, wl.mode)
        r = checks.recall(answers, self.truth, wl.K)
        checks.check_recall(r, wl.recall_floor)
        return r


def _read(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def held_bytes(index) -> dict[str, int]:
    """Bytes of the numpy buffers reachable from the index, by component.

    Each buffer counts once, under the first component that reaches it.
    The figure depends only on array shapes and dtypes, so it repeats exactly.
    """
    groups = {"vectors": ("dataset", "_vf", "_sqn", "_norms"),
              "adjacency": ("base_indptr", "base_indices", "upper", "node_levels")}
    roots: set[int] = set()
    visited: set[int] = {id(index)}
    out = {"vectors": 0, "adjacency": 0, "edge_meta": 0, "total": 0}

    def walk(obj) -> int:
        if id(obj) in visited:
            return 0
        visited.add(id(obj))
        if isinstance(obj, np.ndarray):
            root = obj
            while isinstance(root.base, np.ndarray):
                root = root.base
            if id(root) in roots:
                return 0
            roots.add(id(root))
            return int(root.nbytes)
        if isinstance(obj, dict):
            return sum(walk(v) for v in obj.values())
        if isinstance(obj, (list, tuple)):
            return sum(walk(v) for v in obj)
        return sum(walk(v) for v in getattr(obj, "__dict__", {}).values())

    attrs = vars(index)
    for group, names in groups.items():
        out[group] = sum(walk(attrs[n]) for n in names if n in attrs)
    routing = attrs.get("routing")
    if routing is not None and getattr(routing, "store", None) is not None:
        out["edge_meta"] = walk(routing.store)
    rest = sum(walk(v) for v in attrs.values())
    out["total"] = out["vectors"] + out["adjacency"] + out["edge_meta"] + rest
    return out


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _nearest_rank(sorted_vals: list[float], pct: float) -> float:
    return sorted_vals[max(math.ceil(pct * len(sorted_vals)) - 1, 0)]


def run_end_to_end(ar, wl: Workload, seed: int, seconds: float, work: str, log, desk=None) -> dict:
    bench = Bench(ar, wl, seed, work, log, desk)
    try:
        setup_times, served = bench.timed_setups(wl.setup_reps)
        bench.check_served(served)
        tp_rate, _ = bench.audit(served)

        lat, passes = [], []
        t_start = perf_counter()
        while True:
            answers, stats, pass_lat, _ = bench.query_pass(served)
            passes.append((answers, stats))
            lat.append(pass_lat)
            if perf_counter() - t_start >= seconds and len(passes) * wl.n_queries >= MIN_CALLS:
                break
        elapsed = perf_counter() - t_start

        answers, stats = passes[0]
        rec = bench.check_answers(answers, stats)
        for later, _ in passes[1:]:
            checks.check_same_answers(answers, later, "repeated pass")
        lat = np.array(lat)  # passes x queries
        calls = np.sort(lat.ravel())
        mem = held_bytes(served.index)
        log(f"{wl.name}: setups {[round(t, 3) for t in setup_times]} s, {len(passes)} passes, "
            f"{calls.size} queries in {elapsed:.2f} s, audited tp rate {tp_rate:.4f}")
        metrics = {
            "qps": _metric(calls.size / elapsed, "1/s"),
            # each query's mean over the passes, so a host that changes speed mid-run
            # moves the median as smoothly as it moves qps
            "latency_p50_ms": _metric(float(np.median(lat.mean(axis=0))) * 1e3, "ms"),
            "latency_tail_ms": _metric(_nearest_rank(calls, TAIL_PCT) * 1e3, "ms"),
            "recall_at_k": _metric(rec, "frac"),
            "dist_per_query": _metric(float(np.mean([s.dist_computations for s in stats])), "count"),
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "index_file_bytes": _metric(os.path.getsize(served.path), "B"),
            "index_mem_bytes": _metric(mem["total"], "B"),
        }
        return {"attempted": int(calls.size), "metrics": metrics}
    finally:
        bench.cleanup()


def run_traced(ar, wl: Workload, seed: int, work: str, log, desk=None) -> dict:
    bench = Bench(ar, wl, seed, work, log, desk)
    tracer = Tracer()
    try:
        tracer.install()
        served = bench.setup()
        tracer.uninstall()
        if tracer.missing:
            log(f"trace targets not found, their metrics read 0: {', '.join(tracer.missing)}")
        bench.check_served(served)
        tp_rate, precision = bench.audit(served)

        # each query runs once untraced and once traced, in alternating order, so
        # the overhead compares calls made moments apart on the same host
        tracer.phase = "query"
        tracer.take_counts()  # drop the warm-up query's counts
        plain_answers, answers, stats = [], [], []
        plain_wall = wall = 0.0
        counts = {k: 0 for k in ("dist_rows", *GATE_COUNTS)}
        for i, q in enumerate(bench.queries):
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    tracer.qid = i
                    tracer.install()
                t0 = perf_counter()
                ids, st = ar.search(served.index, q, bench.params, served.scratch)
                dt = perf_counter() - t0
                tracer.uninstall()
                if not traced:
                    plain_wall += dt
                    plain_answers.append(ids)
                    continue
                wall += dt
                c = tracer.take_counts()
                c = {k: c.get(k, 0) for k in counts}
                if "graph.keys" not in tracer.missing:
                    checks.check_identities(st, c["dist_rows"], c, wl.mode)
                for k in counts:
                    counts[k] += c[k]
                answers.append(ids)
                stats.append(st)
        checks.check_same_answers(plain_answers, answers, "traced pass")
        bench.check_answers(answers, stats)

        nq = len(bench.queries)
        spans = tracer.table()
        q_ms = 1e3 / nq
        evaluated = sum(s.tests_evaluated for s in stats)
        index = served.index
        edges = index.n_base_edges
        attach_s = spans.total("graph.attach", "setup")
        mem = held_bytes(index)
        meta_bytes = bench.routing_file_bytes(served)
        traced_qps, plain_qps = nq / wall, nq / plain_wall
        per_query = {k: counts[k] / nq for k in counts}
        hook_s = spans.total(HOOK, "query")  # counting time, taken out of the search spans
        m = {
            "graph.search_ms": ((spans.total("graph.search", "query") - hook_s) * q_ms, "ms"),
            "graph.search_self_ms": (spans.total_self("graph.search", "query") * q_ms, "ms"),
            "graph.dist_ms": (spans.total("graph.keys", "query") * q_ms, "ms"),
            "graph.dist_calls": (spans.count("graph.keys", "query") / nq, "count"),
            "graph.dist_rows": (per_query["dist_rows"], "count"),
            "graph.hops": (float(np.mean([s.hops for s in stats])), "count"),
            "graph.ungated": (float(np.mean([s.ungated for s in stats])), "count"),
            "graph.meta_gather_ms": (spans.total("graph.meta_block", "query") * q_ms, "ms"),
            "routing.gate_ms": ((spans.total(("routing.peos_test", "routing.simhash_test"), "query")
                                 + spans.total("routing.ar", "query", parents=("graph.search",))) * q_ms, "ms"),
            "routing.ar_ms": (spans.total("routing.ar", "query") * q_ms, "ms"),
            "routing.gated_edges": (per_query["gated_edges"], "count"),
            "routing.auto_pass": (per_query["auto_pass"], "count"),
            "routing.auto_reject": (per_query["auto_reject"], "count"),
            "routing.tested_pass": (per_query["tested_pass"], "count"),
            "routing.tested_reject": (per_query["tested_reject"], "count"),
            "routing.pass_frac": (sum(s.tests_passed for s in stats) / evaluated if evaluated else 0.0, "frac"),
            "routing.pass_precision": (precision, "frac"),
            "routing.tp_rate": (tp_rate, "frac"),
            "routing.tp_slack": (tp_rate - (1.0 - bench.cfg.eps - checks.TP_MARGIN), "frac"),
            "routing.table_build_ms": (spans.total("routing.build_quantile_table") * 1e3, "ms"),
            "routing.quantize_ms": (spans.total(("routing.quantizer_fit", "routing.quantizer_encode",
                                                 "routing.finalize"), "setup") * 1e3, "ms"),
            "projections.query_ms": (spans.total(("projections.project_query", "routing.simhash_sketch"),
                                                 "query") * q_ms, "ms"),
            "projections.ensemble_ms": (spans.total(("projections.generate_ensemble",
                                                     "routing.generate_simhash_hashes"), "setup") * 1e3, "ms"),
            "graph.build_s": (spans.total("graph.build_hnsw", "setup"), "s"),
            "graph.base_edges": (edges, "count"),
            "graph.attach_s": (attach_s, "s"),
            "graph.attach_self_s": (spans.total_self("graph.attach", "setup"), "s"),
            "graph.attach_us_per_edge": (attach_s / edges * 1e6, "us"),
            "graph.save_s": (spans.total("graph.save_index", "setup"), "s"),
            "graph.load_s": (spans.total("graph.load_index", "setup"), "s"),
            "graph.meta_bytes_per_edge": (meta_bytes / edges, "B"),
            "graph.mem_vectors_bytes": (mem["vectors"], "B"),
            "graph.mem_adjacency_bytes": (mem["adjacency"], "B"),
            "routing.mem_edge_meta_bytes": (mem["edge_meta"], "B"),
            "vecstore.load_s": (spans.total("vecstore.load_fvecs", "setup"), "s"),
            "trace.overhead_pct": ((plain_qps / traced_qps - 1.0) * 100.0, "%"),
        }
        path = os.path.join(work, f"trace-{wl.name}-s{seed}.json.gz")
        tracer.write(path)
        log(f"{wl.name}: traced {traced_qps:.2f} qps against {plain_qps:.2f} untraced "
            f"({hook_s * q_ms:.2f} ms per query counting gate decisions); spans in {path}")
        return {"attempted": 2 * nq, "metrics": {k: _metric(v, u) for k, (v, u) in m.items()}}
    finally:
        tracer.uninstall()
        bench.cleanup()
