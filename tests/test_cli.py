"""CLI tests (python -m repro ...)."""

import tempfile

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_sweep_options(self):
        args = build_parser().parse_args(
            ["sweep", "--nodes", "4", "--hierarchical", "--intra", "linear"]
        )
        assert args.nodes == 4
        assert args.hierarchical
        assert args.intra == "linear"

    def test_sweep_checkpoint_options(self):
        args = build_parser().parse_args(
            ["sweep", "--out-dir", "j", "--max-retries", "5", "--cell-timeout", "2.5"]
        )
        assert args.out_dir == "j"
        assert args.max_retries == 5
        assert args.cell_timeout == 2.5
        assert args.resume is None

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--nodes", "0"],
            ["sweep", "--nodes", "-1"],
            ["topo", "--nodes", "0"],
            ["sweep", "--workers", "0"],
            ["sweep", "--workers", "-2"],
            ["sweep", "--max-retries", "-1"],
            ["sweep", "--cell-timeout", "0"],
            ["sweep", "--cell-timeout", "nan"],
            ["perf", "--nodes", "0"],
        ],
    )
    def test_out_of_range_values_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_faults_requires_fail_nodes(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults", "--nodes", "8"])


class TestCommands:
    def test_topo(self, capsys):
        assert main(["topo", "--nodes", "2"]) == 0
        out = capsys.readouterr().out
        assert "ClusterTopology" in out
        assert "calibration probes" in out
        assert "distance ladder" in out

    def test_sweep_flat(self, capsys):
        rc = main(
            ["sweep", "--nodes", "4", "--layouts", "cyclic-bunch", "--mappers", "heuristic"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cyclic-bunch" in out
        assert "Hrstc+initComm" in out

    def test_sweep_hierarchical(self, capsys):
        rc = main(
            ["sweep", "--nodes", "4", "--hierarchical", "--intra", "linear",
             "--layouts", "block-bunch", "--mappers", "heuristic"]
        )
        assert rc == 0
        assert "Hierarchical (linear)" in capsys.readouterr().out

    def test_sweep_checkpointed_and_resume(self, tmp_path, capsys):
        flags = [
            "sweep", "--nodes", "2", "--layouts", "block-bunch",
            "--mappers", "heuristic", "--out-dir", str(tmp_path / "j"),
        ]
        assert main(flags) == 0
        out = capsys.readouterr().out
        assert "Hrstc+initComm" in out
        assert "computed 2 cells" in out
        assert (tmp_path / "j" / "sweep.json").is_file()
        assert main(["sweep", "--resume", str(tmp_path / "j")]) == 0
        assert "resumed 2, computed 0" in capsys.readouterr().out

    def test_sweep_journal_errors_are_clean(self, tmp_path, capsys):
        flags = [
            "sweep", "--nodes", "2", "--layouts", "block-bunch",
            "--mappers", "heuristic", "--out-dir", str(tmp_path / "j"),
        ]
        assert main(flags) == 0
        capsys.readouterr()
        assert main(flags + ["--full-sizes"]) == 2
        assert "error:" in capsys.readouterr().out
        assert main(["sweep", "--resume", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().out

    def test_sweep_workers_matches_serial_without_journal(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        flags = ["sweep", "--nodes", "2", "--layouts", "block-bunch", "--mappers", "heuristic"]
        assert main(flags) == 0
        serial = capsys.readouterr().out
        assert main(flags + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial
        assert "journal:" not in parallel
        assert sorted(tmp_path.iterdir()) == []

    def test_faults(self, capsys):
        rc = main(["faults", "--nodes", "8", "--fail-nodes", "7",
                   "--sizes", "1024", "65536", "--patterns", "ring"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "p 64 -> 56" in out
        assert "shrink-remap" in out and "aborted" in out

    def test_app(self, capsys):
        rc = main(["app", "--nodes", "4", "--steps", "3", "--app", "matvec"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "matvec" in out
        assert "block-bunch" in out

    def test_overheads(self, capsys):
        rc = main(["overheads", "--nodes", "4", "--pattern", "ring"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "distance extraction" in out
        assert "scotch" in out

    def test_adaptive(self, capsys):
        rc = main(["adaptive", "--nodes", "4", "--layout", "cyclic-scatter"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "adaptive decisions" in out
        assert "reordered" in out or "default" in out

    def test_bcast(self, capsys):
        rc = main(["bcast", "--nodes", "4", "--layout", "cyclic-scatter"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MPI_Bcast" in out
        assert "binomial-bcast" in out

    def test_profile(self, capsys):
        rc = main(["profile", "--nodes", "4", "--block-bytes", "4096"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bytes by channel class" in out

    def test_profile_reordered(self, capsys):
        rc = main(["profile", "--nodes", "4", "--reordered"])
        assert rc == 0
        assert "reordered" in capsys.readouterr().out

    def test_topo_renders_wiring(self, capsys):
        assert main(["topo", "--nodes", "2"]) == 0
        out = capsys.readouterr().out
        assert "blocking factor" in out
        assert "socket0" in out


class TestVerifyCommand:
    def test_verify_all_registered_clean(self, capsys):
        rc = main(["verify", "-p", "4", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verify: 0 diagnostic(s)" in out
        assert "ring" in out

    def test_verify_single_algorithm(self, capsys):
        rc = main(["verify", "--alg", "ring", "-p", "7"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ring" in out
        assert "ok" in out

    def test_verify_skips_unsupported_sizes(self, capsys):
        rc = main(["verify", "--alg", "allreduce-rd", "-p", "7"])
        assert rc == 0
        assert "skip (unsupported p)" in capsys.readouterr().out

    def test_verify_mappings(self, capsys):
        rc = main(["verify", "--alg", "ring", "-p", "4", "--mappings", "--nodes", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "topology invariants" in out
        assert "heuristic mapping: clean" in out


class TestLintCommand:
    def test_lint_src_clean(self, capsys):
        rc = main(["lint", "src"])
        assert rc == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_lint_flags_violations(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\n")
        rc = main(["lint", str(dirty)])
        assert rc == 1
        assert "REP001" in capsys.readouterr().out


class TestFabricCLI:
    FLAGS = ["sweep", "--nodes", "2", "--layouts", "block-bunch", "--mappers", "heuristic"]

    def test_fabric_parser_options(self):
        args = build_parser().parse_args(
            ["sweep", "--fabric", "d", "--worker-id", "w1",
             "--lease-ttl", "5", "--shards", "3"]
        )
        assert args.fabric == "d"
        assert args.worker_id == "w1"
        assert args.lease_ttl == 5.0
        assert args.shards == 3

    def test_merge_and_status_parser_options(self):
        args = build_parser().parse_args(["sweep", "--merge", "d"])
        assert args.merge == "d"
        args = build_parser().parse_args(["sweep", "--status", "d"])
        assert args.status == "d"

    def test_perf_fabric_options(self):
        args = build_parser().parse_args(
            ["perf", "--fabric", "--fabric-workers", "1", "2",
             "--cell-delay", "0.5", "--quick"]
        )
        assert args.fabric
        assert args.fabric_workers == [1, 2]
        assert args.cell_delay == 0.5

    def test_fabric_worker_then_merge_then_status(self, tmp_path, capsys):
        fdir = str(tmp_path / "f")
        assert main(self.FLAGS + ["--fabric", fdir, "--worker-id", "w1"]) == 0
        out = capsys.readouterr().out
        assert "w1" in out and "--merge" in out
        assert main(["sweep", "--merge", fdir]) == 0
        out = capsys.readouterr().out
        assert "Fabric-merged sweep" in out
        assert "Hrstc+initComm" in out
        assert main(["sweep", "--status", fdir]) == 0
        out = capsys.readouterr().out
        assert "2 done" in out and "0 pending" in out

    def test_status_on_solo_journal(self, tmp_path, capsys):
        jdir = str(tmp_path / "j")
        assert main(self.FLAGS + ["--out-dir", jdir]) == 0
        capsys.readouterr()
        assert main(["sweep", "--status", jdir]) == 0
        out = capsys.readouterr().out
        assert "solo journal" in out

    def test_merge_incomplete_fails(self, tmp_path, capsys):
        assert main(["sweep", "--merge", str(tmp_path / "missing")]) == 1

    def test_status_missing_dir_fails(self, tmp_path):
        assert main(["sweep", "--status", str(tmp_path / "missing")]) == 1


class TestPerfCLI:
    @staticmethod
    def _stub_runners(monkeypatch, written):
        """Replace every perf runner with one that records its output path."""
        from types import SimpleNamespace

        import repro.bench.fabricperf as fabricperf
        import repro.bench.perf as perf
        import repro.bench.serveperf as serveperf

        def report(**fields):
            return SimpleNamespace(summary=lambda: "stub", **fields)

        def run_perf(out_path, **_):
            written.append(out_path)
            return report(max_rel_diff=0.0, speedup=2.0)

        def run_serve_perf(out, **_):
            written.append(out)
            return report(mismatches=0, warm_speedup_p50=2.0)

        def run_fabric_perf(out_path, **_):
            written.append(out_path)
            return report(mismatches=0, speedup=2.0)

        def run_mapping_perf(out_path, **_):
            written.append(out_path)
            return report(cases=[])

        monkeypatch.setattr(perf, "run_perf", run_perf)
        monkeypatch.setattr(perf, "run_mapping_perf", run_mapping_perf)
        monkeypatch.setattr(serveperf, "run_serve_perf", run_serve_perf)
        monkeypatch.setattr(fabricperf, "run_fabric_perf", run_fabric_perf)

    @pytest.mark.parametrize(
        "argv, expected",
        [
            ([], "BENCH_sweep.json"),
            (["--serve"], "BENCH_serve.json"),
            (["--fabric"], "BENCH_fabric.json"),
            (["--mappings"], "BENCH_mappings.json"),
            (["--serve", "--out", "BENCH_sweep.json"], "BENCH_sweep.json"),
            (["--fabric", "--out", "BENCH_sweep.json"], "BENCH_sweep.json"),
            (["--mappings", "--out", "BENCH_sweep.json"], "BENCH_sweep.json"),
            (["--out", "x.json"], "x.json"),
        ],
    )
    def test_out_resolved_per_mode(self, monkeypatch, capsys, argv, expected):
        written = []
        self._stub_runners(monkeypatch, written)
        assert main(["perf"] + argv) == 0
        assert written == [expected]
        assert f"measurement written to {expected}" in capsys.readouterr().out

    def test_oracle_divergence_fails(self, monkeypatch, tmp_path, capsys):
        """A batched-vs-oracle difference above 1e-9 exits 1 whatever the
        speedup."""
        import repro.bench.perf as perf

        out = str(tmp_path / "sweep.json")
        assert main(["perf", "--quick", "--nodes", "2", "--out", out]) == 0
        assert "max rel. difference : 0.000e+00" in capsys.readouterr().out

        from dataclasses import replace

        oracle = perf.naive_sweep

        def skewed(*args, **kwargs):
            points = oracle(*args, **kwargs)
            points[0] = replace(points[0], tuned_us=points[0].tuned_us * (1 + 1e-6))
            return points

        monkeypatch.setattr(perf, "naive_sweep", skewed)
        assert main(["perf", "--quick", "--nodes", "2", "--out", out]) == 1
        assert "FAIL: batched latencies differ from the oracle" in capsys.readouterr().out
