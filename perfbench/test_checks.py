"""Self-tests of the benchmark's checks: a wrong output must fail the run.

    python3 -m pytest perfbench -q

Each test feeds a checker one kind of wrong output, first directly and
then through a whole (tiny) run whose search has been made faulty, and
shows that the run raises CheckFailed, which run.py turns into
``"correct": false`` and exit code 1.
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import annroute  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from checks import CheckFailed  # noqa: E402
from workloads import Workload, run_end_to_end, run_traced  # noqa: E402

TINY = Workload("tiny", "simhash", K=5, efs=20, n_queries=12, recall_floor=0.9, setup_reps=1,
                roundtrip_queries=3, audit_queries=6, build_n=400)


@pytest.fixture(scope="module")
def corpus():
    basis, base = inputs.corpus(3, 500, family=inputs.BUILD_FAMILY)
    qs = inputs.queries(3, basis, 4, 1, family=inputs.BUILD_FAMILY)
    return base, qs, inputs.exact_topk(base, qs, 10)


@pytest.fixture
def work(tmp_path):
    return str(tmp_path)


class FaultyAnnroute:
    """annroute with its search replaced; every other name passes through."""

    def __init__(self, search):
        self.search = search

    def __getattr__(self, name):
        return getattr(annroute, name)


def faulty(fix_ids=None, fix_stats=None):
    def search(index, q, params, scratch=None, audit=None):
        ids, st = annroute.search(index, q, params, scratch, audit)
        if fix_ids is not None:
            ids = fix_ids(index, q, ids)
        if fix_stats is not None:
            fix_stats(st)
        return ids, st
    return FaultyAnnroute(search)


def _second_k(index, q, ids):
    """The K points ranked K+1..2K by true distance: well ordered, distinct, in range, all wrong."""
    K = len(ids)
    return inputs.exact_topk(index.dataset.vectors, [q], 2 * K)[0][K:]


WRONG_ANSWERS = {
    "shuffled": lambda index, q, ids: ids[::-1].copy(),
    "duplicated": lambda index, q, ids: np.concatenate([ids[:-1], ids[:1]]),
    "out_of_range": lambda index, q, ids: np.concatenate([ids[:-1], [index.n]]),
    "low_recall": _second_k,
}
REASON = {"shuffled": "non-decreasing", "duplicated": "duplicated", "out_of_range": "out of range",
          "low_recall": "recall"}


# -- the checkers on their own ------------------------------------------------


def test_true_answers_pass(corpus):
    base, qs, truth = corpus
    for q, t in zip(qs, truth):
        checks.check_answer(t, 10, base, q)
    assert checks.recall(truth, truth, 10) == 1.0


@pytest.mark.parametrize("kind", ["shuffled", "duplicated", "out_of_range"])
def test_wrong_answer_fails_check(corpus, kind):
    base, qs, truth = corpus

    class Index:
        n = base.shape[0]

    with pytest.raises(CheckFailed, match=REASON[kind]):
        checks.check_answer(WRONG_ANSWERS[kind](Index, qs[0], truth[0]), 10, base, qs[0])


def test_recall_below_floor_fails(corpus):
    base, qs, truth = corpus
    wrong = [inputs.exact_topk(base, [q], 20)[0][10:] for q in qs]
    with pytest.raises(CheckFailed, match="recall"):
        checks.check_recall(checks.recall(wrong, truth, 10), 0.9)


def test_broken_identity_fails():
    class Stats:
        dist_computations, tests_passed, ungated, tests_evaluated = 10, 6, 4, 8

    gate = {"gated_edges": 8, "auto_pass": 2, "auto_reject": 1, "tested_pass": 4, "tested_reject": 1}
    checks.check_identities(Stats, 10, gate, "peos")
    with pytest.raises(CheckFailed):
        checks.check_identities(Stats, 11, gate, "peos")
    with pytest.raises(CheckFailed):
        checks.check_identities(Stats, 10, dict(gate, tested_reject=2), "peos")
    Stats.dist_computations = 11
    with pytest.raises(CheckFailed):
        checks.check_counters(Stats, "peos")


def test_unreachable_node_fails_graph_check():
    ds = annroute.Dataset(inputs.corpus(5, 200, family=inputs.BUILD_FAMILY)[1])
    idx = annroute.build_hnsw(ds, 8, 20, annroute.Metric.L2, 1)
    checks.check_graph(idx, 8)
    victim = (idx.entry + 1) % idx.n
    keep = idx.base_indices != victim  # drop every base edge into the victim
    rows = np.repeat(np.arange(idx.n), np.diff(idx.base_indptr))
    idx.base_indptr = np.concatenate([[0], np.cumsum(np.bincount(rows[keep], minlength=idx.n))])
    idx.base_indices = idx.base_indices[keep]
    with pytest.raises(CheckFailed, match="unreachable"):
        checks.check_graph(idx, 8)


# -- whole runs with a faulty search ------------------------------------------


def test_tiny_run_passes(work):
    out = run_end_to_end(annroute, TINY, 1, 0.01, work, lambda m: None)
    assert out["metrics"]["recall_at_k"]["value"] >= TINY.recall_floor
    traced = run_traced(annroute, TINY, 1, work, lambda m: None)
    assert traced["metrics"]["routing.gated_edges"]["value"] > 0


@pytest.mark.parametrize("kind", sorted(WRONG_ANSWERS))
def test_wrong_answer_fails_run(work, kind):
    with pytest.raises(CheckFailed, match=REASON[kind]):
        run_end_to_end(faulty(fix_ids=WRONG_ANSWERS[kind]), TINY, 1, 0.01, work, lambda m: None)


def test_broken_identity_fails_runs(work):
    def extra_distance(st):
        st.dist_computations += 1

    def extra_passed_distance(st):  # keeps dist == passed + ungated; only the traced rows disagree
        st.dist_computations += 1
        st.tests_passed += 1

    with pytest.raises(CheckFailed, match="dist_computations"):
        run_end_to_end(faulty(fix_stats=extra_distance), TINY, 1, 0.01, work, lambda m: None)
    with pytest.raises(CheckFailed, match="dist_rows"):
        run_traced(faulty(fix_stats=extra_passed_distance), TINY, 1, work, lambda m: None)
