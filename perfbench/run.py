"""annroute benchmark: one workload, one seed, checked answers, metrics as JSON.

    python3 perfbench/run.py --workload desk-peos --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The benchmark imports annroute from the
checkout's src/ and keeps its inputs, the desk graph cache and trace
files under .perfbench/. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Exit codes: 0 ok, 1 a check of the program's output failed, 2 usage or
missing source.
"""

import os

# single-threaded, as the north star requires; must precede the first numpy import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench")


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def import_annroute():
    """annroute from this checkout's src/, or None when the checkout has no source."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "annroute", "__init__.py")):
        return None
    sys.path.insert(0, src)
    import annroute
    if os.path.dirname(os.path.dirname(os.path.abspath(annroute.__file__))) != src:
        return None
    return annroute


def main(argv=None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    ar = import_annroute()
    if ar is None:
        log(f"no annroute source under {os.path.join(ROOT, 'src')}")
        return 2
    import checks
    import inputs
    from workloads import run_end_to_end, run_traced

    os.makedirs(WORK_DIR, exist_ok=True)
    wl = WORKLOADS[args.workload]
    desk = inputs.prepare_desk(ar, WORK_DIR, log)
    try:
        if args.trace:
            out = run_traced(ar, wl, args.seed, WORK_DIR, log, desk)
        else:
            out = run_end_to_end(ar, wl, args.seed, args.seconds, WORK_DIR, log, desk)
    except checks.CheckFailed as exc:
        log(f"{wl.name}: CHECK FAILED: {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    print(json.dumps({"correct": True, "attempted": out["attempted"], "failed": 0,
                      "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
