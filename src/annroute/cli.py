"""Command line interface: build | attach | search | bench | audit | stats.

Exit codes: 0 ok, 1 usage error, 2 I/O or format error, 3 audit below bound.
"""

from __future__ import annotations

import argparse
import sys
import time

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


def _add_common(p: _Parser) -> None:
    p.add_argument("--base", help="base vectors (fvecs)")
    p.add_argument("--query", help="query vectors (fvecs)")
    p.add_argument("--truth", help="ground truth neighbor ids (ivecs)")
    p.add_argument("--metric", choices=[m.value for m in Metric], default="l2")
    p.add_argument("--M", type=int, default=16, help="max degree")
    p.add_argument("--efc", type=int, default=160, help="construction beam width")
    p.add_argument("--routing", default="none",
                   help="routing mode(s): peos|rceos|simhash|none (comma list for bench)")
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument("--L", type=int, default=None,
                   help="peos subspace count (default 8; rceos is peos at L=1; SimHash has no subspaces)")
    p.add_argument("--m-proj", dest="m_proj", type=int, default=128)
    p.add_argument("--simhash-bits", dest="simhash_bits", type=int, default=64)
    p.add_argument("--compact", action="store_true")
    p.add_argument("--permute", action="store_true")
    p.add_argument("--efs", default="500", help="comma list of result-list capacities")
    p.add_argument("--K", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="output path (CSV or index)")
    p.add_argument("--index", help="index file")
    p.add_argument("--synthetic", default="50000,128,100",
                   help="n,d,nq for the built-in Gaussian generator (used when --base is absent)")
    p.add_argument("--repetitions", type=int, default=1)
    p.add_argument("--trials", type=int, default=10_000, help="minimum gated evaluations for audit")


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x)
    except ValueError as exc:
        raise UsageError(f"bad integer list: {text!r}") from exc


def _routing_config(mode_text: str, args) -> RoutingConfig:
    try:
        mode = RoutingMode(mode_text.strip())
    except ValueError as exc:
        raise UsageError(f"unknown routing mode {mode_text!r}") from exc
    L = args.L if args.L is not None else (1 if mode == RoutingMode.RCEOS else 8)
    return RoutingConfig(
        mode=mode, eps=args.epsilon, L=L, m=args.m_proj,
        compact=args.compact, simhash_bits=args.simhash_bits,
    )


def _synthetic_shape(args) -> tuple[int, int, int]:
    """The n,d,nq of --synthetic: three integers, d positive (stats reads d alone, so n and nq may be 0)."""
    synth = _parse_ints(args.synthetic)
    if len(synth) != 3 or synth[1] < 1:
        raise UsageError(f"--synthetic needs three integers n,d,nq with d >= 1, got {args.synthetic!r}")
    return synth


def _spec(args, routings) -> bench_mod.BenchmarkSpec:
    return bench_mod.BenchmarkSpec(
        routings=tuple(routings),
        efs_list=_parse_ints(args.efs),
        K=args.K,
        base=args.base,
        query=args.query,
        truth=args.truth,
        metric=Metric(args.metric),
        M=args.M,
        efc=args.efc,
        repetitions=args.repetitions,
        seed=args.seed if args.seed is not None else 42,
        permute=args.permute,
        synthetic=_synthetic_shape(args),
        out=args.out,
    )


def _load_base(args):
    if args.base:
        return load_fvecs(args.base)
    n, d, nq = _synthetic_shape(args)
    ds, _ = bench_mod.synthetic_dataset(n, d, nq, args.seed if args.seed is not None else 42)
    return ds


def _cmd_build(args) -> int:
    if not args.index:
        raise UsageError("build needs --index for the output file")
    if args.routing.strip() != "none":
        raise UsageError(f"build writes a plain graph; add --routing {args.routing} to it with attach")
    ds = _load_base(args)
    t0 = time.perf_counter()
    idx = build_hnsw(ds, args.M, args.efc, Metric(args.metric),
                     args.seed if args.seed is not None else 42)
    save_index(idx, args.index)
    print(f"built index: n={idx.n} d={idx.dim} M={idx.M} efc={idx.efc} "
          f"edges={idx.n_base_edges} in {time.perf_counter() - t0:.3f} s -> {args.index}")
    return 0


def _cmd_attach(args) -> int:
    if not args.index:
        raise UsageError("attach needs --index")
    cfg = _routing_config(args.routing, args)
    if cfg.mode == RoutingMode.NONE:
        raise UsageError("attach needs a routing mode other than none")
    ds = _load_base(args)
    t0 = time.perf_counter()
    idx = load_index(args.index, ds)
    new = attach(idx, cfg, permute=args.permute, seed=args.seed)
    out = args.out or args.index
    save_index(new, out)
    print(f"attached {cfg.mode.value} routing (L={cfg.L}, m={cfg.m}, "
          f"compact={int(cfg.compact)}) in {time.perf_counter() - t0:.3f} s -> {out}")
    return 0


def _cmd_search(args) -> int:
    if not args.index or not args.query:
        raise UsageError("search needs --index and --query")
    efs_list = _parse_ints(args.efs)
    if len(efs_list) != 1:
        raise UsageError(f"search takes one --efs value, got {args.efs!r}")
    ds = _load_base(args)
    idx = load_index(args.index, ds)
    queries = load_fvecs(args.query).vectors
    params = SearchParams(K=args.K, efs=efs_list[0], routing=_routing_config(args.routing, args))
    scratch = idx.make_scratch()
    total_dist = 0
    for qi, q in enumerate(queries):
        ids, stats = search(idx, q, params, scratch=scratch)
        total_dist += stats.dist_computations
        print(f"{qi}: " + " ".join(str(int(i)) for i in ids))
    print(f"# mean dist computations: {total_dist / len(queries):.1f}", file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    routings = [_routing_config(tok, args) for tok in args.routing.split(",") if tok]
    spec = _spec(args, routings)
    rows = bench_mod.run_sweep(spec)
    if not spec.out:
        print(bench_mod.CSV_HEADER)
        for row in rows:
            print(row.csv_row())
    else:
        print(f"wrote {len(rows)} rows to {spec.out}")
    return 0


def _cmd_audit(args) -> int:
    mode_text = args.routing if args.routing != "none" else "peos"
    routings = [_routing_config(tok, args) for tok in mode_text.split(",") if tok]
    spec = _spec(args, routings)
    reports = bench_mod.audit_guarantee(spec, trials=args.trials)
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
        print(f"{L},{ps.mean_w_reg:.6g},{ps.mean_w_res_sq:.6g},"
              f"{ps.j_rel:.6g},{ps.j_opt:.6g},{ps.delta:.6g},{lb}")
    return 0


_COMMANDS = {
    "build": _cmd_build,
    "attach": _cmd_attach,
    "search": _cmd_search,
    "bench": _cmd_bench,
    "audit": _cmd_audit,
    "stats": _cmd_stats,
}


def main(argv=None) -> int:
    parser = _Parser(prog="annroute", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        _add_common(sub.add_parser(name, add_help=True))
    try:
        args = parser.parse_args(argv)
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
