"""Command line interface: build | attach | search | bench | audit | stats.

Exit codes: 0 ok, 1 usage error, 2 I/O or format error, 3 audit below bound.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace

from . import bench as bench_mod
from .errors import FormatError, UsageError
from .edgestore import attach
from .hnsw import build_hnsw
from .indexfile import load_index, save_index
from .query import SearchParams, search
from .routing import RoutingConfig, RoutingMode, estimate_partition_stats, w_reg_lower_bound
from .vecstore import Metric, load_fvecs


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_EVERY = "build attach search bench audit stats"

# Each flag once: the commands that read it and its argparse keywords.
_FLAGS = (
    ("--base", _EVERY, dict(help="base vectors (fvecs)")),
    ("--synthetic", _EVERY, dict(default="50000,128,100", help="n,d,nq of seeded Gaussian data (no --base)")),
    ("--seed", _EVERY, dict(type=int, default=None)),
    ("--index", "build attach search", dict(required=True, help="index file")),
    ("--query", "search bench audit", dict(help="query vectors (fvecs)")),
    ("--truth", "bench", dict(help="ground truth neighbor ids (ivecs), computed and written when absent")),
    ("--metric", "build bench audit", dict(choices=[m.value for m in Metric], default="l2")),
    ("--M", "build bench audit", dict(type=int, default=16, help="max degree")),
    ("--efc", "build bench audit", dict(type=int, default=160, help="construction beam width")),
    ("--routing", "attach search bench audit", dict(default="none", help="comma list of peos|rceos|simhash|none")),
    ("--epsilon", "search bench audit", dict(type=float, default=0.2)),
    ("--L", "attach bench audit stats", dict(type=int, help="peos subspace count (default 8, rceos 1)")),
    ("--m-proj", "attach bench audit", dict(dest="m_proj", type=int, default=128)),
    ("--simhash-bits", "attach bench audit", dict(dest="simhash_bits", type=int, default=64)),
    ("--compact", "attach bench audit", dict(action="store_true")),
    ("--permute", "attach bench audit", dict(action="store_true")),
    ("--efs", "search bench audit", dict(default="500", help="comma list of result-list capacities")),
    ("--K", "search bench audit", dict(type=int, default=100)),
    ("--repetitions", "bench", dict(type=int, default=1)),
    ("--out", "attach bench", dict(help="output index (default: overwrite the input) or CSV")),
    ("--trials", "audit stats", dict(type=int, default=10_000, help="minimum gated evaluations or samples")),
)

# where one command reads a flag in its own form: its keywords over the shared ones
_OWN = {
    ("attach", "--routing"): dict(required=True, choices=["peos", "rceos", "simhash"], help="the gate to attach"),
    ("search", "--routing"): dict(choices=[m.value for m in RoutingMode], help="the gate, in the file's layout"),
    ("audit", "--routing"): dict(default="peos"),
    ("search", "--query"): dict(required=True),
    ("search", "--efs"): dict(type=int, default=500, help="result-list capacity"),
    ("stats", "--L"): dict(help="one subspace count (default each of 1, 2, 4, 8, 16 dividing d)"),
}


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x)
    except ValueError as exc:
        raise UsageError(f"bad integer list: {text!r}") from exc


def _routing_config(mode_text: str, args, eps: float = RoutingConfig.eps) -> RoutingConfig:
    try:
        mode = RoutingMode(mode_text.strip())
    except ValueError as exc:
        raise UsageError(f"unknown routing mode {mode_text!r}") from exc
    L = args.L if args.L is not None else (1 if mode == RoutingMode.RCEOS else 8)
    return RoutingConfig(mode=mode, eps=eps, L=L, m=args.m_proj, compact=args.compact,
                         simhash_bits=args.simhash_bits)


def _synthetic_shape(args) -> tuple[int, int, int]:
    """The n,d,nq of --synthetic: three integers, d positive (stats reads d alone, so n and nq may be 0)."""
    synth = _parse_ints(args.synthetic)
    if len(synth) != 3 or synth[1] < 1:
        raise UsageError(f"--synthetic needs three integers n,d,nq with d >= 1, got {args.synthetic!r}")
    return synth


def _spec(args, **bench_only) -> bench_mod.BenchmarkSpec:
    """The sweep of bench and audit; bench adds its truth, repetitions and out."""
    return bench_mod.BenchmarkSpec(
        routings=tuple(_routing_config(tok, args, args.epsilon) for tok in args.routing.split(",") if tok),
        efs_list=_parse_ints(args.efs), K=args.K, base=args.base, query=args.query, metric=Metric(args.metric),
        M=args.M, efc=args.efc, seed=args.seed if args.seed is not None else 42, permute=args.permute,
        synthetic=_synthetic_shape(args), **bench_only,
    )


def _load_base(args):
    if args.base:
        return load_fvecs(args.base)
    return bench_mod.synthetic_dataset(*_synthetic_shape(args), args.seed if args.seed is not None else 42)[0]


def _cmd_build(args) -> int:
    ds = _load_base(args)
    t0 = time.perf_counter()
    idx = build_hnsw(ds, args.M, args.efc, Metric(args.metric), args.seed if args.seed is not None else 42)
    save_index(idx, args.index)
    print(f"built index: n={idx.n} d={idx.dim} M={idx.M} efc={idx.efc} "
          f"edges={idx.n_base_edges} in {time.perf_counter() - t0:.3f} s -> {args.index}")
    return 0


def _cmd_attach(args) -> int:
    cfg = _routing_config(args.routing, args)
    ds = _load_base(args)
    t0 = time.perf_counter()
    idx = load_index(args.index, ds)
    new = attach(idx, cfg, permute=args.permute, seed=args.seed)
    out = args.out or args.index
    save_index(new, out)
    print(f"attached {cfg.mode.value} routing (L={cfg.L}, m={cfg.m}, "
          f"compact={int(cfg.compact)}) in {time.perf_counter() - t0:.3f} s -> {out}")
    return 0


def _search_routing(args, att) -> RoutingConfig:
    """--routing at --epsilon in the layout of the index's gate; search refuses a gate the index lacks."""
    held = att.cfg if att is not None else RoutingConfig()
    mode = RoutingMode(args.routing)
    if mode == held.mode:
        return replace(held, eps=args.epsilon)
    return RoutingConfig(mode=mode, eps=args.epsilon, L=1, m=held.m)


def _cmd_search(args) -> int:
    ds = _load_base(args)
    idx = load_index(args.index, ds)
    queries = load_fvecs(args.query).vectors
    params = SearchParams(K=args.K, efs=args.efs, routing=_search_routing(args, idx.routing))
    scratch = idx.make_scratch()
    total_dist = 0
    for qi, q in enumerate(queries):
        ids, stats = search(idx, q, params, scratch=scratch)
        total_dist += stats.dist_computations
        print(f"{qi}: " + " ".join(str(int(i)) for i in ids))
    print(f"# mean dist computations: {total_dist / len(queries):.1f}", file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    spec = _spec(args, truth=args.truth, repetitions=args.repetitions, out=args.out)
    rows = bench_mod.run_sweep(spec)
    if spec.out:
        print(f"wrote {len(rows)} rows to {spec.out}")
    else:
        print("\n".join([bench_mod.CSV_HEADER, *(row.csv_row() for row in rows)]))
    return 0


def _cmd_audit(args) -> int:
    reports = bench_mod.audit_guarantee(_spec(args), trials=args.trials)
    failed = False
    for rep in reports:
        verdict = "PASS" if rep.ok else "FAIL"
        print(f"mode={rep.mode} epsilon={rep.epsilon:g} evaluations={rep.evaluations} "
              f"true_positives={rep.true_positives} rate={rep.pass_rate:.4f} "
              f"bound={rep.bound:.4f} {verdict}")
        failed |= not rep.ok
    return 3 if failed else 0


def _cmd_stats(args) -> int:
    d = _synthetic_shape(args)[1] if args.base is None else load_fvecs(args.base).dim
    if args.L is not None and (args.L < 1 or d % args.L != 0):
        raise UsageError(f"--L {args.L} must be positive and divide d={d}")
    L_list = (args.L,) if args.L is not None else tuple(L for L in (1, 2, 4, 8, 16) if d % L == 0)
    samples = max(args.trials, 10_000)
    print("L,mean_w_reg,mean_w_res_sq,j_rel,j_opt,delta,lower_bound")
    for L in L_list:
        ps = estimate_partition_stats(d, L, samples, seed=args.seed or 0)
        try:
            lb = f"{w_reg_lower_bound(d, L):.6g}"
        except UsageError:
            lb = "n/a"
        print(f"{L},{ps.mean_w_reg:.6g},{ps.mean_w_res_sq:.6g},{ps.j_rel:.6g},{ps.j_opt:.6g},{ps.delta:.6g},{lb}")
    return 0


_COMMANDS = {
    "build": _cmd_build,
    "attach": _cmd_attach,
    "search": _cmd_search,
    "bench": _cmd_bench,
    "audit": _cmd_audit,
    "stats": _cmd_stats,
}


def _parser() -> _Parser:
    parser = _Parser(prog="annroute", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name) for name in _COMMANDS}
    for flag, names, kw in _FLAGS:
        for name in names.split():
            commands[name].add_argument(flag, **{**kw, **_OWN.get((name, flag), {})})
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
