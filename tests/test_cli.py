"""CLI surface tests: subcommands, flag validation, exit codes."""

import hashlib
import pathlib
import re
import shlex
import struct

import numpy as np
import pytest

from annroute import (Metric, RoutingConfig, RoutingMode, SearchParams, attach, build_hnsw, load_index,
                      save_fvecs, save_index, search)
from annroute.bench import CSV_HEADER, synthetic_dataset
from annroute.cli import _parser, main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# the flags each command reads: 68 (command, flag) pairs
FLAGS = {
    "build": "--base --synthetic --seed --index --metric --M --efc",
    "attach": "--base --synthetic --seed --index --routing --L --m-proj --simhash-bits --compact --permute --out",
    "search": "--base --synthetic --seed --index --query --routing --epsilon --efs --K",
    "bench": "--base --synthetic --seed --query --truth --metric --M --efc --routing --epsilon --L --m-proj "
             "--simhash-bits --compact --permute --efs --K --repetitions --out",
    "audit": "--base --synthetic --seed --query --metric --M --efc --routing --epsilon --L --m-proj "
             "--simhash-bits --compact --permute --efs --K --trials",
    "stats": "--base --synthetic --seed --L --trials",
}
FLAGS = {command: set(flags.split()) for command, flags in FLAGS.items()}
REFUSED = [(command, flag) for command in FLAGS for flag in sorted(set().union(*FLAGS.values()))
           if flag not in FLAGS[command]]


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def help_flags(capsys, command):
    """The flags `annroute <command> -h` lists."""
    with pytest.raises(SystemExit) as done:
        main([command, "-h"])
    assert done.value.code == 0
    return set(re.findall(r"--[\w-]+", capsys.readouterr().out)) - {"--help"}


class TestFlags:
    def test_each_command_lists_only_the_flags_it_reads(self, capsys):
        assert sum(map(len, FLAGS.values())) == 68 and len(REFUSED) == 58
        for command, flags in FLAGS.items():
            assert help_flags(capsys, command) == flags, command

    @pytest.mark.parametrize("command,flag", REFUSED)
    def test_a_flag_the_command_does_not_read_is_refused(self, capsys, tmp_path, command, flag):
        """Refused when parsed: nothing runs, so no index or CSV is written."""
        files = {name: str(tmp_path / name) for name in ("g.idx", "out.idx", "rows.csv", "q.fvecs")}
        small = ["--synthetic", "300,8,3", "--M", "4", "--efc", "20", "--efs", "20", "--K", "5"]
        line = {
            "build": ["--index", files["g.idx"], *small[:6]],
            "attach": ["--index", files["g.idx"], "--routing", "peos", "--out", files["out.idx"]],
            "search": ["--index", files["g.idx"], "--query", files["q.fvecs"]],
            "bench": ["--routing", "none", "--out", files["rows.csv"], *small],
            "audit": small,
            "stats": ["--synthetic", "0,8,0"],
        }[command]
        value = [] if flag in ("--compact", "--permute") else [str(tmp_path / "x")]
        code, out, err = run_cli(capsys, command, *line, flag, *value)
        assert code == 1 and f"usage error: unrecognized arguments: {flag}" in err and out == ""
        assert list(tmp_path.iterdir()) == []

    def test_readme_lines_parse(self):
        """Every `annroute` line of the README's CLI block parses with the real parser."""
        block = README.read_text().split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("annroute ")]
        assert {line.split()[1] for line in lines} == set(FLAGS)
        for line in lines:
            _parser().parse_args(shlex.split(line)[1:])

    def test_readme_flag_table(self):
        """The README's table of the flags each command reads is the parser's."""
        rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", README.read_text(), flags=re.M)
        assert {command: set(re.findall(r"`(--[\w-]+)`", cells)) for command, cells in rows} == FLAGS


class TestBench:
    def test_grid_emits_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--routing", "none,peos", "--efs", "30,60,100",
            "--K", "10", "--L", "4", "--m-proj", "64", "--synthetic", "900,32,10",
            "--M", "8", "--efc", "50", "--seed", "5",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 6

    def test_csv_file_output(self, capsys, tmp_path):
        out_path = tmp_path / "rows.csv"
        code, _, _ = run_cli(
            capsys, "bench", "--routing", "none", "--efs", "30", "--K", "10",
            "--synthetic", "600,32,5", "--M", "8", "--efc", "40", "--out", str(out_path),
        )
        assert code == 0
        assert out_path.read_text().startswith(CSV_HEADER)

    def test_rceos_rows_report_peos_L1(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--routing", "rceos", "--m-proj", "64", "--efs", "30", "--K", "10",
            "--synthetic", "400,16,4", "--M", "8", "--efc", "40",
        )
        assert code == 0
        assert out.strip().split("\n")[1].startswith("peos,0.2,1,64,")

    def test_simhash_on_d_not_divisible_by_8(self, capsys):
        """SimHash has no subspaces, so the default L=8 does not bind d."""
        code, out, err = run_cli(
            capsys, "bench", "--routing", "simhash", "--synthetic", "500,30,3", "--efs", "20", "--K", "5",
            "--M", "8", "--efc", "40",
        )
        assert code == 0, err
        assert out.strip().split("\n")[1].startswith("simhash,0.2,1,")


class TestValidation:
    def test_rceos_with_L4_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "bench", "--routing", "rceos", "--L", "4", "--efs", "30", "--K", "10",
            "--synthetic", "400,16,4",
        )
        assert code == 1
        assert "usage error" in err

    def test_unknown_mode(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--routing", "bogus", "--efs", "30", "--K", "10")
        assert code == 1

    def test_missing_file_is_io_error(self, capsys):
        code, _, err = run_cli(
            capsys, "bench", "--routing", "none", "--efs", "30", "--K", "10",
            "--base", "/nonexistent/x.fvecs", "--query", "/nonexistent/q.fvecs",
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["bench", "audit"])
    def test_zero_queries_exit_1(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--routing", "peos", "--L", "4", "--m-proj", "64",
                                 "--synthetic", "200,8,0", "--M", "4", "--efc", "20", "--efs", "30", "--K", "10")
        assert code == 1 and "usage error: need at least one query" in err and out == ""


class TestBuildAttachSearch:
    def test_file_round_trip(self, capsys, tmp_path):
        ds, queries = synthetic_dataset(700, 32, 6, seed=9)
        base = tmp_path / "base.fvecs"
        qpath = tmp_path / "q.fvecs"
        save_fvecs(ds, base)
        save_fvecs(queries, qpath)
        index = tmp_path / "g.idx"

        code, out, _ = run_cli(
            capsys, "build", "--base", str(base), "--index", str(index),
            "--M", "8", "--efc", "50", "--seed", "3",
        )
        assert code == 0 and index.exists()

        attached = tmp_path / "g_peos.idx"
        code, out, _ = run_cli(
            capsys, "attach", "--base", str(base), "--index", str(index),
            "--routing", "peos", "--L", "4", "--m-proj", "64", "--out", str(attached),
        )
        assert code == 0 and attached.exists()

        code, out, err = run_cli(
            capsys, "search", "--base", str(base), "--index", str(attached),
            "--query", str(qpath), "--routing", "peos", "--K", "5", "--efs", "50",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 6
        assert all(len(line.split(": ")[1].split()) == 5 for line in lines)

    def test_build_and_attach_report_seconds(self, capsys, tmp_path):
        """Each summary line carries the wall seconds of its stage."""
        index = tmp_path / "g.idx"
        code, out, _ = run_cli(capsys, "build", "--synthetic", "300,16,2", "--index", str(index),
                               "--M", "4", "--efc", "20", "--seed", "1")
        built = re.fullmatch(r"built index: .* edges=\d+ in (\d+\.\d{3}) s -> (.+)", out.strip())
        assert code == 0 and built and built[2] == str(index)
        code, out, _ = run_cli(capsys, "attach", "--synthetic", "300,16,2", "--index", str(index),
                               "--seed", "1", "--routing", "peos", "--L", "4", "--m-proj", "64")
        attached = re.fullmatch(r"attached peos routing \(.*\) in (\d+\.\d{3}) s -> (.+)", out.strip())
        assert code == 0 and attached and attached[2] == str(index)
        assert float(built[1]) > 0.0 and float(attached[1]) > 0.0

    def test_bad_entry_point_exits_2(self, capsys, tmp_path):
        ds, queries = synthetic_dataset(300, 16, 2, seed=4)
        base, qpath, index = tmp_path / "base.fvecs", tmp_path / "q.fvecs", tmp_path / "g.idx"
        save_fvecs(ds, base)
        save_fvecs(queries, qpath)
        save_index(build_hnsw(ds, M=4, efc=20, metric=Metric.L2, seed=1), index)
        raw = bytearray(index.read_bytes()[:-8])
        struct.pack_into("<Q", raw, struct.calcsize("<4sIBIQIIQ"), 10**6)  # the entry point
        index.write_bytes(bytes(raw) + hashlib.blake2b(bytes(raw), digest_size=8).digest())
        code, _, err = run_cli(capsys, "search", "--base", str(base), "--index", str(index),
                               "--query", str(qpath), "--K", "5", "--efs", "20")
        assert code == 2 and "format error" in err

    def test_version_1_file_exits_2(self, capsys, tmp_path):
        """A format-1 file: version word 1, and each record the lead fields, then the
        target's half-norm code (zeros here) and the edge-norm code (2 B each)."""
        ds, queries = synthetic_dataset(300, 16, 2, seed=4)
        base, qpath, index = tmp_path / "base.fvecs", tmp_path / "q.fvecs", tmp_path / "g.idx"
        save_fvecs(ds, base)
        save_fvecs(queries, qpath)
        routed = attach(build_hnsw(ds, M=4, efc=20, metric=Metric.L2, seed=1),
                        RoutingConfig(mode=RoutingMode.PEOS, L=4, m=64))
        save_index(routed, index)
        search = ("search", "--base", str(base), "--index", str(index), "--query", str(qpath),
                  "--routing", "peos", "--K", "5", "--efs", "20")
        assert run_cli(capsys, *search)[0] == 0
        store = routed.routing.store
        v1 = np.concatenate([store.rec] + [a.view(np.uint8).reshape(store.n_edges, 2)
                                           for a in (np.zeros_like(store.enorm_q), store.enorm_q)], axis=1)
        raw = bytearray(index.read_bytes()[:-8])
        struct.pack_into("<I", raw, 4, 1)  # the version word follows the magic
        raw = bytes(raw[: len(raw) - store.wire_records().nbytes]) + v1.tobytes()  # the records end the payload
        index.write_bytes(raw + hashlib.blake2b(raw, digest_size=8).digest())
        code, _, err = run_cli(capsys, *search)
        assert code == 2 and "format error" in err and "version 1" in err

    def test_version_2_file_exits_2(self, capsys, tmp_path):
        """A format-2 file as format 2 wrote a graph with no gate: the header and the base
        layer as format 3 writes them, then max_level again, and per upper level its node
        count and, per node, its id, degree and delta-coded row."""
        ds, queries = synthetic_dataset(300, 16, 2, seed=4)
        base, qpath, index = tmp_path / "base.fvecs", tmp_path / "q.fvecs", tmp_path / "g.idx"
        save_fvecs(ds, base)
        save_fvecs(queries, qpath)
        idx = build_hnsw(ds, M=4, efc=20, metric=Metric.L2, seed=1)
        save_index(idx, index)
        search = ("search", "--base", str(base), "--index", str(index), "--query", str(qpath),
                  "--K", "5", "--efs", "20")
        assert run_cli(capsys, *search)[0] == 0
        raw = bytearray(index.read_bytes()[: struct.calcsize("<4sIBIQIIQQIQB") + 4 * (idx.n + idx.n_base_edges)])
        struct.pack_into("<I", raw, 4, 2)  # the version word follows the magic
        raw += struct.pack("<I", idx.max_level)
        for lev in range(1, idx.max_level + 1):
            raw += struct.pack("<Q", len(idx.upper[lev]))
            for v, row in sorted(idx.upper[lev].items()):
                raw += struct.pack("<QI", v, row.size) + np.diff(row, prepend=0).astype("<u4").tobytes()
        index.write_bytes(bytes(raw) + hashlib.blake2b(raw, digest_size=8).digest())
        code, _, err = run_cli(capsys, *search)
        assert code == 2 and "format error" in err and "version 2" in err

    def test_repeated_neighbor_id_exits_2(self, capsys, tmp_path):
        """A graph file whose first row repeats an id: search reports a format error."""
        ds, queries = synthetic_dataset(300, 16, 2, seed=4)
        base, qpath, index = tmp_path / "base.fvecs", tmp_path / "q.fvecs", tmp_path / "g.idx"
        save_fvecs(ds, base)
        save_fvecs(queries, qpath)
        idx = build_hnsw(ds, M=4, efc=20, metric=Metric.L2, seed=1)
        assert idx.base_indptr[1] >= 2
        save_index(idx, index)  # save refuses such a graph, so the file is edited after
        raw = bytearray(index.read_bytes()[:-8])
        # node 0's row: its second delta, after the header and the n base degrees, set to 0
        struct.pack_into("<I", raw, struct.calcsize("<4sIBIQIIQQIQB") + 4 * idx.n + 4, 0)
        index.write_bytes(bytes(raw) + hashlib.blake2b(bytes(raw), digest_size=8).digest())
        code, _, err = run_cli(capsys, "search", "--base", str(base), "--index", str(index),
                               "--query", str(qpath), "--K", "5", "--efs", "20")
        assert code == 2 and "format error" in err and "repeats an id" in err

    def test_rceos_mode_code_2(self, capsys, tmp_path):
        """Older files write rceos as mode code 2. With L=1 search serves it as peos at L=1;
        with L=4, which rceos cannot have, the routing header is a format error."""
        ds, queries = synthetic_dataset(300, 16, 2, seed=4)
        base, qpath, index = tmp_path / "base.fvecs", tmp_path / "q.fvecs", tmp_path / "g.idx"
        save_fvecs(ds, base)
        save_fvecs(queries, qpath)
        routed = attach(build_hnsw(ds, M=4, efc=20, metric=Metric.L2, seed=1),
                        RoutingConfig(mode=RoutingMode.RCEOS, L=1, m=64))
        save_index(routed, index)
        search = ("search", "--base", str(base), "--index", str(index), "--query", str(qpath),
                  "--routing", "rceos", "--K", "5", "--efs", "20")
        mode_at = struct.calcsize("<4sIBIQIIQQIQ")  # the routing mode byte, then L
        raw = bytearray(index.read_bytes()[:-8])
        assert raw[mode_at] == 1
        for L, want in ((1, 0), (4, 2)):
            raw[mode_at] = 2
            struct.pack_into("<I", raw, mode_at + 1, L)
            index.write_bytes(bytes(raw) + hashlib.blake2b(bytes(raw), digest_size=8).digest())
            code, _, err = run_cli(capsys, *search)
            assert code == want, err
        assert "format error: bad routing header" in err and "L=1" in err

    def test_search_with_another_m_exits_1(self, capsys, tmp_path):
        """search reads the projections and quantile table of the attachment's m from the file;
        it has no --m-proj, so another m is refused as an unknown flag."""
        ds, queries = synthetic_dataset(300, 16, 2, seed=4)
        base, qpath, index = tmp_path / "base.fvecs", tmp_path / "q.fvecs", tmp_path / "g.idx"
        save_fvecs(ds, base)
        save_fvecs(queries, qpath)
        save_index(attach(build_hnsw(ds, M=4, efc=20, metric=Metric.L2, seed=1),
                          RoutingConfig(mode=RoutingMode.PEOS, L=4, m=64)), index)
        search = ("search", "--base", str(base), "--index", str(index), "--query", str(qpath),
                  "--routing", "peos", "--K", "5", "--efs", "20")
        code, _, err = run_cli(capsys, *search)
        assert code == 0, err
        code, out, err = run_cli(capsys, *search, "--m-proj", "32")
        assert code == 1 and "usage error" in err and "unrecognized arguments: --m-proj 32" in err
        assert out == ""

    def test_search_takes_the_layout_from_the_file(self, capsys, tmp_path):
        """search --routing peos answers with the file's L=4, m=64 gate, as a search with that
        layout restated does; rceos, peos at L=1, is refused with the file's L named."""
        ds, queries = synthetic_dataset(600, 32, 5, seed=4)
        base, qpath, index = tmp_path / "base.fvecs", tmp_path / "q.fvecs", tmp_path / "g.idx"
        save_fvecs(ds, base)
        save_fvecs(queries, qpath)
        save_index(attach(build_hnsw(ds, M=8, efc=40, metric=Metric.L2, seed=1),
                          RoutingConfig(mode=RoutingMode.PEOS, L=4, m=64)), index)
        search_line = ("search", "--base", str(base), "--index", str(index), "--query", str(qpath),
                       "--K", "5", "--efs", "30", "--routing")
        code, out, err = run_cli(capsys, *search_line, "peos")
        restated = SearchParams(K=5, efs=30, routing=RoutingConfig(mode=RoutingMode.PEOS, L=4, m=64))
        idx = load_index(index, ds)
        want = [f"{qi}: " + " ".join(str(int(i)) for i in search(idx, q, restated)[0]) for qi, q in enumerate(queries)]
        assert code == 0 and out.splitlines() == want, err
        code, out, err = run_cli(capsys, *search_line, "rceos")
        assert code == 1 and "usage error" in err and "attachment's L=4" in err and "set L=1" not in err
        assert out == ""

    def test_simhash_compact_exits_1(self, capsys, tmp_path):
        ds, _ = synthetic_dataset(300, 16, 2, seed=4)
        base, index, out = tmp_path / "base.fvecs", tmp_path / "g.idx", tmp_path / "sh.idx"
        save_fvecs(ds, base)
        save_index(build_hnsw(ds, M=4, efc=20, metric=Metric.L2, seed=1), index)
        code, _, err = run_cli(capsys, "attach", "--base", str(base), "--index", str(index),
                               "--routing", "simhash", "--compact", "--out", str(out))
        assert code == 1 and "usage error" in err
        assert not out.exists()

    def test_attach_requires_mode(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "attach", "--index", str(tmp_path / "x.idx"))
        assert code == 1

    @pytest.mark.parametrize("efs", ["", "20,40"], ids=["none", "two"])
    def test_search_needs_one_efs(self, capsys, tmp_path, efs):
        """search answers at one capacity; an empty list or a second value is a usage error."""
        ds, queries = synthetic_dataset(300, 16, 2, seed=4)
        base, qpath, index = tmp_path / "base.fvecs", tmp_path / "q.fvecs", tmp_path / "g.idx"
        save_fvecs(ds, base)
        save_fvecs(queries, qpath)
        save_index(build_hnsw(ds, M=4, efc=20, metric=Metric.L2, seed=1), index)
        code, out, err = run_cli(capsys, "search", "--base", str(base), "--index", str(index),
                                 "--query", str(qpath), "--K", "5", "--efs", efs)
        assert code == 1 and "usage error" in err and out == ""

    @pytest.mark.parametrize("synthetic", ["5", "300,16"])
    def test_build_bad_synthetic_exits_1(self, capsys, tmp_path, synthetic):
        index = tmp_path / "g.idx"
        code, _, err = run_cli(capsys, "build", "--synthetic", synthetic, "--index", str(index),
                               "--M", "4", "--efc", "20")
        assert code == 1 and "usage error" in err
        assert not index.exists()


    @pytest.mark.parametrize("routing", ["peos", "rceos", "simhash", "bogus", "none"])
    def test_build_refuses_a_gate(self, capsys, tmp_path, routing):
        """build writes a plain graph only; a gate is added by attach, so build has no
        --routing, and any value of it is refused before anything is built or written."""
        index = tmp_path / "g.idx"
        code, out, err = run_cli(capsys, "build", "--synthetic", "300,8,0", "--index", str(index),
                                 "--routing", routing)
        assert code == 1 and "usage error" in err and "--routing" in err and out == ""
        assert not index.exists()
        code, _, _ = run_cli(capsys, "build", "--synthetic", "300,8,0", "--index", str(index),
                             "--M", "4", "--efc", "20")
        assert code == 0 and index.exists()


class TestAuditCommand:
    def test_audit_prints_verdict(self, capsys):
        code, out, _ = run_cli(
            capsys, "audit", "--routing", "peos", "--epsilon", "0.2", "--L", "4",
            "--m-proj", "64", "--synthetic", "1500,32,30", "--M", "8", "--efc", "60",
            "--efs", "200", "--K", "10", "--trials", "1000", "--seed", "4",
        )
        assert code in (0, 3)
        assert "rate=" in out and ("PASS" in out or "FAIL" in out)

    @pytest.mark.parametrize("routing", [(), ("--routing", "none")], ids=["default", "none"])
    def test_audit_audits_the_mode_named(self, capsys, routing):
        """audit audits peos unless --routing names another mode, none among them."""
        code, out, err = run_cli(capsys, "audit", *routing, "--synthetic", "1500,32,30", "--M", "8", "--efc", "60",
                                 "--efs", "200", "--K", "10", "--trials", "1000", "--seed", "4")
        assert code in (0, 3), err
        assert out.startswith(f"mode={routing[1] if routing else 'peos'} epsilon=0.2 ")

    def test_audit_with_no_true_improvement_exits_1(self, capsys, tmp_path):
        """Copies of one point: no gated neighbor beats its threshold, so there is no rate
        to print a verdict on."""
        point = np.random.default_rng(2).standard_normal(8).astype(np.float32)
        base, qpath = tmp_path / "base.fvecs", tmp_path / "q.fvecs"
        save_fvecs(np.tile(point, (3000, 1)), base)
        save_fvecs(np.tile(point, (200, 1)), qpath)
        code, out, err = run_cli(capsys, "audit", "--routing", "simhash", "--base", str(base), "--query", str(qpath),
                                 "--M", "16", "--efc", "100", "--efs", "10", "--K", "10", "--trials", "1000")
        assert code == 1 and "usage error" in err and out == ""


class TestStatsCommand:
    def test_partition_stats_table(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "--synthetic", "100,128,1", "--trials", "10000")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("L,mean_w_reg")
        assert len(lines) >= 4

    @pytest.mark.parametrize("synthetic", ["5", "100,0,1", "100,-8,1"])
    def test_bad_synthetic_exits_1(self, capsys, synthetic):
        code, out, err = run_cli(capsys, "stats", "--synthetic", synthetic, "--trials", "10000")
        assert code == 1 and "usage error" in err and out == ""

    @pytest.mark.parametrize("L", ["0", "-4", "3"])
    def test_bad_L_exits_1(self, capsys, L):
        """An --L that is not positive or does not divide d is refused, not skipped."""
        code, out, err = run_cli(capsys, "stats", "--synthetic", "100,16,1", "--L", L, "--trials", "10000")
        assert code == 1 and "usage error" in err and out == ""
