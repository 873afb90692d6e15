"""The perf-trajectory tooling: snapshot slimming + format-agnostic diff.

BENCH_<n>.json snapshots are committed slimmed: the slimmer strips the
raw per-round sample arrays (the bulk of a pytest-benchmark document)
while keeping everything the diff tool and the CI job summary read.
``diff_bench.py`` reads raw output too, so a fresh ``make bench-json``
run diffs against the newest committed snapshot.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "benchmarks" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


slim_bench = _load("slim_bench")
diff_bench = _load("diff_bench")


def _raw_snapshot(names_and_means):
    return {
        "machine_info": {"cpu": "test"},
        "commit_info": {"id": "deadbeef"},
        "datetime": "2026-07-29T00:00:00",
        "version": "4.0.0",
        "benchmarks": [
            {
                "group": None,
                "name": name,
                "fullname": f"benchmarks/bench_x.py::{name}",
                "params": None,
                "param": None,
                "extra_info": {},
                "options": {"rounds": 5},
                "stats": {
                    "min": mean * 0.9,
                    "max": mean * 1.1,
                    "mean": mean,
                    "stddev": 0.001,
                    "rounds": 5,
                    "median": mean,
                    "data": [mean] * 500,   # the bulk being stripped
                },
            }
            for name, mean in names_and_means
        ],
    }


class TestSlimBench:
    def test_strips_samples_keeps_stats(self):
        raw = _raw_snapshot([("test_a", 0.5), ("test_b", 0.25)])
        slimmed = slim_bench.slim_payload(raw)
        assert slimmed["slimmed"] is True
        assert len(slimmed["benchmarks"]) == 2
        for bench in slimmed["benchmarks"]:
            assert "data" not in bench["stats"]
            assert bench["stats"]["mean"] > 0
            assert bench["name"].startswith("test_")
        # The slimmed document is a fraction of the raw one.
        assert len(json.dumps(slimmed)) < len(json.dumps(raw)) / 5

    def test_cli_rewrites_in_place(self, tmp_path):
        target = tmp_path / "BENCH_9.json"
        target.write_text(json.dumps(_raw_snapshot([("test_a", 0.5)])))
        before = target.stat().st_size
        assert slim_bench.main([str(target)]) == 0
        after = json.loads(target.read_text())
        assert after["slimmed"] is True
        assert target.stat().st_size < before

    def test_committed_snapshot_is_slim(self):
        """Every committed BENCH_<n>.json ships without raw samples."""
        paths = diff_bench.snapshot_paths(REPO_ROOT)
        assert paths
        for path in paths:
            payload = json.loads(path.read_text())
            assert payload.get("slimmed") is True, path.name
            assert all(
                "data" not in bench["stats"]
                for bench in payload["benchmarks"]
            ), path.name


class TestDiffBenchFormats:
    def test_reads_raw_and_slim_interchangeably(self, tmp_path):
        old = tmp_path / "BENCH_0.json"
        new = tmp_path / "BENCH_1.json"
        old.write_text(json.dumps(_raw_snapshot([("test_a", 0.5)])))
        new.write_text(
            json.dumps(
                slim_bench.slim_payload(
                    _raw_snapshot([("test_a", 0.4), ("test_new", 0.1)])
                )
            )
        )
        old_means = diff_bench.load_means(old)
        new_means = diff_bench.load_means(new)
        assert old_means == {"test_a": 0.5}
        assert new_means == {"test_a": 0.4, "test_new": 0.1}
        rows = diff_bench.diff_rows(old_means, new_means)
        by_name = {row[0]: row for row in rows}
        assert by_name["test_a"][3] == "-20.0%"
        assert by_name["test_new"][3] == "added"

    def test_repo_snapshots_all_load(self):
        """Every committed BENCH_<n>.json parses, old format or new."""
        paths = diff_bench.snapshot_paths(REPO_ROOT)
        assert len(paths) >= 2
        for path in paths:
            means = diff_bench.load_means(path)
            assert means and all(value > 0 for value in means.values())

    def test_committed_snapshots_diff_numerically(self):
        """Each committed snapshot against the next: a numeric Δ row for
        every benchmark the two share — no silent drops, no crashes, no
        'no stats' rows."""
        paths = diff_bench.snapshot_paths(REPO_ROOT)
        for old_path, new_path in zip(paths, paths[1:]):
            old_means = diff_bench.load_means(old_path)
            new_means = diff_bench.load_means(new_path)
            shared = set(old_means) & set(new_means)
            assert shared, (old_path.name, new_path.name)
            rows = {row[0]: row for row in diff_bench.diff_rows(
                old_means, new_means
            )}
            assert set(rows) == set(old_means) | set(new_means)
            for name in shared:
                _, old_cell, new_cell, change = rows[name]
                assert old_cell.endswith(" ms") and new_cell.endswith(" ms")
                assert change.endswith("%"), (new_path.name, name, change)

    def test_summary_normalization_fallbacks(self):
        """Benches whose stat keys differ normalize to one schema:
        mean, else total/rounds, else a reported (not dropped) 'no
        stats' row.  Raw samples alone are not a summary."""
        assert diff_bench.summarize_bench(
            {"stats": {"mean": 0.25}}
        ) == 0.25
        assert diff_bench.summarize_bench(
            {"stats": {"total": 1.5, "rounds": 3}}
        ) == 0.5
        assert diff_bench.summarize_bench(
            {"stats": {"data": [0.1, 0.3]}}
        ) is None
        assert diff_bench.summarize_bench({"stats": {}}) is None
        assert diff_bench.summarize_bench({}) is None
        rows = diff_bench.diff_rows(
            {"test_a": 0.5, "test_b": None},
            {"test_a": None, "test_b": 0.25, "test_c": 0.1},
        )
        by_name = {row[0]: row for row in rows}
        assert by_name["test_a"][3] == "no stats"
        assert by_name["test_b"][3] == "no stats"
        assert by_name["test_c"][3] == "added"
