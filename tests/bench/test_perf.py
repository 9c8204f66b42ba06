"""Perf harness tests: batched-vs-naive equivalence and the report file."""

import json

import pytest

from repro.bench.microbench import _sweep
from repro.bench.perf import PerfReport, naive_sweep, run_perf
from repro.evaluation.evaluator import AllgatherEvaluator


@pytest.fixture(scope="module")
def evaluator(mid_cluster):
    return AllgatherEvaluator(mid_cluster, rng=0)


SMALL = dict(
    layouts=["block-bunch", "cyclic-scatter"],
    sizes=[1, 1024, 4096, 65536],
    mappers=["heuristic"],
    strategies=["initcomm", "endshfl"],
)


class TestEquivalence:
    def test_batched_matches_naive_pointwise(self, evaluator):
        """Same grid through both pipelines: same points, same latencies."""
        naive = naive_sweep(evaluator, 64, **SMALL)
        batched = _sweep(
            evaluator, 64, SMALL["layouts"], SMALL["sizes"], SMALL["mappers"],
            SMALL["strategies"], False, "binomial",
        )
        assert len(naive) == len(batched)
        for a, b in zip(naive, batched):
            assert (a.layout, a.block_bytes, a.mapper, a.strategy) == (
                b.layout, b.block_bytes, b.mapper, b.strategy
            )
            assert a.algorithm == b.algorithm
            assert b.base_us == pytest.approx(a.base_us, rel=1e-9)
            assert b.tuned_us == pytest.approx(a.tuned_us, rel=1e-9)


class TestRunPerf:
    def test_quick_report_and_json(self, tmp_path):
        out = tmp_path / "bench.json"
        report = run_perf(
            n_nodes=4,
            sizes=[1, 1024, 65536],
            layouts=["block-bunch"],
            mappers=["heuristic"],
            strategies=["initcomm"],
            quick=True,
            out_path=out,
        )
        assert report.p == 32
        assert report.n_points == 3
        assert report.max_rel_diff <= 1e-9
        assert report.naive_seconds > 0 and report.batched_seconds > 0
        data = json.loads(out.read_text())
        assert data["p"] == 32
        assert data["speedup"] == pytest.approx(report.speedup)
        assert data["sizes"] == [1, 1024, 65536]

    def test_summary_mentions_speedup(self):
        rep = PerfReport(
            p=256, n_nodes=32, n_points=10, naive_seconds=1.0,
            batched_seconds=0.1, speedup=10.0, points_per_sec_naive=10.0,
            points_per_sec_batched=100.0, max_rel_diff=0.0,
        )
        text = rep.summary()
        assert "10.00x" in text
        assert "p=256" in text
        assert "hotspots" not in text  # no profile section without --profile

    def test_profile_records_hotspots(self, tmp_path):
        out = tmp_path / "bench.json"
        report = run_perf(
            n_nodes=4,
            sizes=[1, 65536],
            layouts=["block-bunch"],
            mappers=["heuristic"],
            strategies=["initcomm"],
            quick=True,
            profile=True,
            out_path=out,
        )
        assert report.profile_top
        assert len(report.profile_top) <= 20
        for h in report.profile_top:
            assert {"ncalls", "tottime", "cumtime", "function"} <= set(h)
        assert "hotspots" in report.summary()
        data = json.loads(out.read_text())
        assert data["profile_top"] == report.profile_top


class TestRunMappingPerf:
    def test_small_run_identical_and_persisted(self, tmp_path):
        from repro.bench.perf import run_mapping_perf

        out = tmp_path / "mappings.json"
        report = run_mapping_perf(p_values=[16, 64], repeats=1, out_path=out)
        assert [c.p for c in report.cases] == [16, 64]
        for case in report.cases:
            assert case.mismatches == 0
            assert case.naive_seconds > 0 and case.vectorized_seconds > 0
            assert case.speedup > 0
            assert set(case.naive_map_seconds) == set(report.heuristics)
            assert set(case.vectorized_map_seconds) == set(report.heuristics)
        data = json.loads(out.read_text())
        assert [c["p"] for c in data["cases"]] == [16, 64]
        assert data["heuristics"] == sorted(data["heuristics"])
        assert "p" in report.summary() and "mismatches" in report.summary()

    def test_naive_cutoff_skips_naive_tier(self):
        from repro.bench.perf import run_mapping_perf

        report = run_mapping_perf(
            p_values=[16, 64], repeats=1, naive_max_p=16, out_path=None
        )
        below, above = report.cases
        assert below.naive_seconds > 0 and below.speedup > 0
        assert below.mismatches == 0
        assert above.naive_seconds is None
        assert above.naive_map_seconds is None
        # no oracle ran above the cutoff, so nothing was compared
        assert above.speedup is None and above.mismatches is None
        # the JSON row records null, not a number
        import dataclasses

        row = dataclasses.asdict(above)
        assert row["naive_seconds"] is None
        assert row["speedup"] is None and row["mismatches"] is None
        assert "-" in report.summary()

    def test_quick_mode_shrinks_grid(self):
        from repro.bench.perf import run_mapping_perf

        report = run_mapping_perf(p_values=[16, 64, 4096], quick=True, out_path=None)
        assert [c.p for c in report.cases] == [256]
        assert report.quick and report.repeats <= 2

    def test_unknown_pattern_rejected(self):
        from repro.bench.perf import run_mapping_perf

        with pytest.raises(KeyError, match="nope"):
            run_mapping_perf(p_values=[16], patterns=["nope"], out_path=None)
