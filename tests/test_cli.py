"""CLI surface tests: subcommands, flag validation, exit codes."""

import hashlib
import struct

import numpy as np
import pytest

from annroute import Metric, build_hnsw, save_fvecs, save_index
from annroute.bench import CSV_HEADER, synthetic_dataset
from annroute.cli import main


SMALL = "--synthetic, 900,32,10".replace(", ", "")


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
            "--query", str(qpath), "--routing", "peos", "--L", "4", "--m-proj", "64",
            "--K", "5", "--efs", "50",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 6
        assert all(len(line.split(": ")[1].split()) == 5 for line in lines)

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

    def test_attach_requires_mode(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "attach", "--index", str(tmp_path / "x.idx"))
        assert code == 1


class TestAuditCommand:
    def test_audit_prints_verdict(self, capsys):
        code, out, _ = run_cli(
            capsys, "audit", "--routing", "peos", "--epsilon", "0.2", "--L", "4",
            "--m-proj", "64", "--synthetic", "1500,32,30", "--M", "8", "--efc", "60",
            "--efs", "200", "--K", "10", "--trials", "1000", "--seed", "4",
        )
        assert code in (0, 3)
        assert "rate=" in out and ("PASS" in out or "FAIL" in out)


class TestStatsCommand:
    def test_partition_stats_table(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "--synthetic", "100,128,1", "--trials", "10000")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("L,mean_w_reg")
        assert len(lines) >= 4
