"""Checks of the program's outputs against computations made apart from it.

Every checker raises CheckFailed on a wrong output; the run then prints
``"correct": false`` and exits non-zero. None compares against a stored
copy of earlier output: answers are checked against the benchmark's own
exhaustive search and distances, graphs against the structure HNSW must
have, counters against identities that hold by definition, and the gate
against its 1 - eps promise.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from inputs import sq_dists

TP_MARGIN = 0.02  # the audited true-positive rate must reach 1 - eps - TP_MARGIN


class CheckFailed(Exception):
    pass


def check_answer(ids, K: int, base: np.ndarray, q: np.ndarray) -> None:
    """K distinct in-range ids in non-decreasing true distance."""
    ids = np.asarray(ids)
    if ids.shape != (K,):
        raise CheckFailed(f"answer has shape {ids.shape}, expected ({K},)")
    if ids.min() < 0 or ids.max() >= base.shape[0]:
        raise CheckFailed(f"answer id out of range [0, {base.shape[0]})")
    if np.unique(ids).size != K:
        raise CheckFailed("answer holds a duplicated id")
    d = sq_dists(base, q, ids)
    # the program orders by the dot-product expansion; allow its rounding
    slack = 1e-9 * max(float(d.max()), 1.0)
    if np.any(np.diff(d) < -slack):
        raise CheckFailed("answer is not in non-decreasing true distance")


def recall(answers, truth: np.ndarray, K: int) -> float:
    """Mean |answer ∩ true top-K| / K."""
    return float(np.mean([np.intersect1d(a, t[:K]).size / K for a, t in zip(answers, truth)]))


def check_recall(value: float, floor: float) -> None:
    if not value >= floor:
        raise CheckFailed(f"recall {value:.4f} below its floor {floor}")


def check_same_answers(a, b, what: str) -> None:
    if len(a) != len(b) or any(not np.array_equal(x, y) for x, y in zip(a, b)):
        raise CheckFailed(f"{what}: answers differ")


def check_same_bytes(a: bytes, b: bytes, what: str) -> None:
    if a != b:
        raise CheckFailed(f"{what}: files differ ({len(a)} vs {len(b)} bytes)")


def check_graph(idx, M: int) -> None:
    """Ids below n, rows sorted, degree at most 2M (M above the base), all reachable."""
    n = idx.n
    indptr, indices = np.asarray(idx.base_indptr), np.asarray(idx.base_indices)
    if indptr.shape != (n + 1,) or indptr[0] != 0 or np.any(np.diff(indptr) < 0):
        raise CheckFailed("base layer offsets are malformed")
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise CheckFailed("base layer holds an id out of range")
    deg = np.diff(indptr)
    if deg.max() > 2 * M:
        raise CheckFailed(f"base degree {deg.max()} exceeds 2M = {2 * M}")
    row_of = np.repeat(np.arange(n), deg)
    if np.any((np.diff(indices.astype(np.int64)) <= 0) & (row_of[1:] == row_of[:-1])):
        raise CheckFailed("a base row is not sorted and duplicate-free")
    if not 0 <= idx.entry < n:
        raise CheckFailed(f"entry point {idx.entry} out of range")
    for lev, nodes in idx.upper.items():
        for v, row in nodes.items():
            row = np.asarray(row)
            if not 0 <= v < n or (row.size and (row.min() < 0 or row.max() >= n)):
                raise CheckFailed(f"layer {lev} holds an id out of range")
            if row.size > M or np.any(np.diff(row.astype(np.int64)) <= 0):
                raise CheckFailed(f"layer {lev} row of node {v} is unsorted or over degree M")
    adj = csr_matrix((np.ones(indices.size, dtype=np.int8), indices, indptr), shape=(n, n))
    reached = breadth_first_order(adj, idx.entry, directed=True, return_predecessors=False)
    if reached.size != n:
        raise CheckFailed(f"{n - reached.size} nodes unreachable from the entry point")


def check_counters(stats, mode: str) -> None:
    """Identities of the search counters alone, checked on every untraced query."""
    if stats.dist_computations != stats.tests_passed + stats.ungated:
        raise CheckFailed(f"dist_computations {stats.dist_computations} != "
                          f"tests_passed + ungated {stats.tests_passed + stats.ungated}")
    if mode == "none" and stats.tests_passed != stats.tests_evaluated:
        raise CheckFailed("ungated search rejected an edge")


def check_identities(stats, dist_rows: int, gate: dict, mode: str) -> None:
    """Per-query counter identities of one traced search."""
    check_counters(stats, mode)
    if dist_rows != stats.dist_computations:
        raise CheckFailed(f"dist_rows {dist_rows} != dist_computations {stats.dist_computations}")
    parts = gate["auto_pass"] + gate["auto_reject"] + gate["tested_pass"] + gate["tested_reject"]
    if gate["gated_edges"] != parts:
        raise CheckFailed(f"gated_edges {gate['gated_edges']} != sum of decision bands {parts}")
    if mode != "none" and (gate["gated_edges"] != stats.tests_evaluated
                           or gate["auto_pass"] + gate["tested_pass"] != stats.tests_passed):
        raise CheckFailed("gate decisions disagree with the search counters")


def audit_rates(audit) -> tuple[float, float]:
    """(true-positive rate, pass precision) of gated edges, from an audited search's record.

    A true positive is an edge whose exact key beat the threshold in
    force when the gate saw it.
    """
    hits = passed = tp_passed = 0
    for keys, thr, ok in zip(audit.keys, audit.thresholds, audit.passed):
        tp = np.asarray(keys) < thr
        ok = np.asarray(ok, dtype=bool)
        hits += int(tp.sum())
        passed += int(ok.sum())
        tp_passed += int((tp & ok).sum())
    if hits == 0 or passed == 0:
        raise CheckFailed("the audit saw no gated improvement")
    return tp_passed / hits, tp_passed / passed


def check_tp_rate(rate: float, eps: float) -> None:
    if not rate >= 1.0 - eps - TP_MARGIN:
        raise CheckFailed(f"audited true-positive rate {rate:.4f} below 1 - eps - {TP_MARGIN}")
