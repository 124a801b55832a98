"""The benchmark-trajectory tool: consolidation and regression gating.

``tools/bench_trajectory.py`` is repo tooling (not part of the ``repro``
package), so it is loaded here by file path.  The tests cover the behaviors
CI relies on: artifacts (flat and sectioned) consolidate into one
trajectory keyed by benchmark name, speedup-ratio and parity-recall
regressions beyond tolerance fail, baseline records with no fresh artifact
fail distinctly (exit code 2) unless ``--allow-missing`` marks the run as
deliberately partial, an empty artifact directory always fails, and the
markdown summary table renders every tracked metric for
``$GITHUB_STEP_SUMMARY``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_trajectory.py"
_spec = importlib.util.spec_from_file_location("bench_trajectory", _TOOL_PATH)
bench_trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_trajectory)
#: A producing test that exists, as the benchmarks' write_artifact stamps it.
SOURCE = "tests/test_bench_trajectory.py::test_cli_consolidate"


def _write(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture()
def artifact_dir(tmp_path):
    directory = tmp_path / "artifacts"
    directory.mkdir()
    _write(directory / "bench_flat.json", {
        "benchmark": "bench_flat", "source": SOURCE,
        "baseline_bins_per_sec": 4000.0,
        "parallel_speedup_vs_baseline": 2.0,
        "parity": {"recall": 1.0, "span_recall": 0.95, "exact": True,
                   "missing": [], "extra": []},
        "gate": {"min_speedup": 1.5},
    })
    _write(directory / "bench_sectioned.json", {
        "recalibration": {
            "benchmark": "bench_recal", "source": SOURCE,
            "recal_speedup": 50.0,
            "gate": {"min_speedup": 5.0},
        },
        "parity_section": {
            "benchmark": "bench_parity", "source": SOURCE,
            "parity": {"hierarchical": {"recall": 1.0, "span_recall": 1.0},
                       "parallel": {"recall": 0.9}},
        },
    })
    return directory


class TestConsolidate:
    def test_merges_flat_and_sectioned_artifacts(self, artifact_dir, tmp_path):
        output = tmp_path / "BENCH.json"
        payload = bench_trajectory.consolidate(artifact_dir, output)
        assert set(payload["benchmarks"]) == {"bench_flat", "bench_recal",
                                              "bench_parity"}
        on_disk = json.loads(output.read_text())
        assert on_disk["schema"] == bench_trajectory.SCHEMA_VERSION
        assert on_disk["benchmarks"]["bench_recal"]["recal_speedup"] == 50.0

    def test_reconsolidating_a_partial_run_keeps_absent_records(
            self, artifact_dir, tmp_path):
        """A local run of one benchmark must not drop the others' baselines
        (and thereby their gating) from the trajectory."""
        output = tmp_path / "BENCH.json"
        bench_trajectory.consolidate(artifact_dir, output)
        (artifact_dir / "bench_sectioned.json").unlink()
        record = json.loads((artifact_dir / "bench_flat.json").read_text())
        record["parallel_speedup_vs_baseline"] = 2.5
        _write(artifact_dir / "bench_flat.json", record)
        payload = bench_trajectory.consolidate(artifact_dir, output)
        assert set(payload["benchmarks"]) == {"bench_flat", "bench_recal",
                                              "bench_parity"}
        assert (payload["benchmarks"]["bench_flat"]
                ["parallel_speedup_vs_baseline"]) == 2.5

    def test_stale_artifacts_are_skipped_with_a_note(self, artifact_dir,
                                                     tmp_path, capsys):
        # Left behind by a deleted benchmark module, by a deleted test whose
        # module lives on (a section of a shared artifact), or written
        # before records named their test: none may re-enter the trajectory.
        _write(artifact_dir / "bench_gone.json", {
            "benchmark": "bench_gone", "gone_speedup": 3.0,
            "source": "benchmarks/test_bench_gone.py::test_gone"})
        sectioned = json.loads((artifact_dir / "bench_sectioned.json")
                               .read_text())
        sectioned["deleted_arm"] = {
            "benchmark": "bench_deleted_arm", "arm_speedup": 4.0,
            "source": "tests/test_bench_trajectory.py::test_deleted_arm"}
        _write(artifact_dir / "bench_sectioned.json", sectioned)
        _write(artifact_dir / "bench_old.json",
               {"benchmark": "bench_old", "old_speedup": 2.0})
        payload = bench_trajectory.consolidate(artifact_dir,
                                               tmp_path / "BENCH.json")
        assert set(payload["benchmarks"]) == {"bench_flat", "bench_recal",
                                              "bench_parity"}
        gone, old, arm = capsys.readouterr().err.splitlines()
        assert all(line.startswith("STALE:") for line in (gone, old, arm))
        assert "test_bench_gone.py::test_gone no longer exists" in gone
        assert "test_bench_trajectory.py::test_deleted_arm no longer" in arm
        assert "names no producing test" in old

    def test_cli_consolidate(self, artifact_dir, tmp_path, capsys):
        output = tmp_path / "BENCH.json"
        code = bench_trajectory.main(["consolidate",
                                      "--artifacts", str(artifact_dir),
                                      "--baseline", str(output)])
        assert code == 0
        assert "3 benchmark record(s)" in capsys.readouterr().out


class TestCheck:
    def _baseline(self, artifact_dir, tmp_path):
        baseline = tmp_path / "BENCH.json"
        bench_trajectory.consolidate(artifact_dir, baseline)
        return baseline

    def test_identical_run_passes(self, artifact_dir, tmp_path):
        baseline = self._baseline(artifact_dir, tmp_path)
        assert bench_trajectory.check(baseline, artifact_dir, 0.1) == []

    def test_speedup_regression_beyond_tolerance_fails(self, artifact_dir,
                                                       tmp_path):
        baseline = self._baseline(artifact_dir, tmp_path)
        record = json.loads((artifact_dir / "bench_flat.json").read_text())
        record["parallel_speedup_vs_baseline"] = 0.9   # 2.0 -> 0.9: -55%
        _write(artifact_dir / "bench_flat.json", record)
        failures = bench_trajectory.check(baseline, artifact_dir, 0.5)
        assert len(failures) == 1
        assert "parallel_speedup_vs_baseline" in failures[0]
        # A generous-enough tolerance accepts the same drop.
        assert bench_trajectory.check(baseline, artifact_dir, 0.6) == []

    def test_disabled_gate_skips_speedup_but_not_recalls(self, artifact_dir,
                                                         tmp_path, capsys):
        """A record whose own bench declared gate.enforced=false (an
        un-baselined machine) is exempt from speedup gating — but parity
        recalls are machine-independent and stay gated."""
        baseline = self._baseline(artifact_dir, tmp_path)
        record = json.loads((artifact_dir / "bench_flat.json").read_text())
        record["parallel_speedup_vs_baseline"] = 0.01
        record["parity"]["span_recall"] = 0.2
        record["gate"] = {"min_speedup": 1.5, "enforced": False}
        _write(artifact_dir / "bench_flat.json", record)
        failures = bench_trajectory.check(baseline, artifact_dir, 0.5)
        assert len(failures) == 1
        assert "span_recall" in failures[0]
        assert "not checked" in capsys.readouterr().out

    def test_every_speedup_ratio_of_an_enforced_gate_is_checked(
            self, artifact_dir, tmp_path):
        """A record cannot opt single ratios out of its own enforced gate:
        an ``ungated`` list in it is ignored."""
        record = json.loads((artifact_dir / "bench_flat.json").read_text())
        record["short_speedup"] = 2.0
        record["gate"]["ungated"] = ["short_speedup"]
        _write(artifact_dir / "bench_flat.json", record)
        baseline = self._baseline(artifact_dir, tmp_path)
        record["short_speedup"] = 0.1
        _write(artifact_dir / "bench_flat.json", record)
        failures, _, rows = bench_trajectory.compare(baseline, artifact_dir,
                                                     0.5)
        assert len(failures) == 1
        assert "short_speedup" in failures[0]
        assert [r["status"] for r in rows
                if r["metric"] == "short_speedup"] == ["REGRESSION"]

    def test_machine_bound_throughput_is_not_gated(self, artifact_dir,
                                                   tmp_path):
        baseline = self._baseline(artifact_dir, tmp_path)
        record = json.loads((artifact_dir / "bench_flat.json").read_text())
        record["baseline_bins_per_sec"] = 1.0          # collapses; not gated
        _write(artifact_dir / "bench_flat.json", record)
        assert bench_trajectory.check(baseline, artifact_dir, 0.1) == []

    def test_bench_documented_recall_floor_wins_when_looser(self, artifact_dir,
                                                            tmp_path):
        """A recall above the bench's own documented floor passes even when
        it sits below baseline - recall_tolerance (the bench owns its
        tolerance; the trajectory is only a drift tripwire)."""
        baseline = self._baseline(artifact_dir, tmp_path)
        record = json.loads((artifact_dir / "bench_flat.json").read_text())
        record["parity"]["span_recall"] = 0.86        # baseline 0.95
        record["gate"]["span_recall_floor"] = 0.85
        _write(artifact_dir / "bench_flat.json", record)
        assert bench_trajectory.check(baseline, artifact_dir, 0.5,
                                      recall_tolerance=0.05) == []
        record["parity"]["span_recall"] = 0.80        # below even the floor
        _write(artifact_dir / "bench_flat.json", record)
        failures = bench_trajectory.check(baseline, artifact_dir, 0.5,
                                          recall_tolerance=0.05)
        assert len(failures) == 1 and "span_recall" in failures[0]

    def test_parity_recall_regression_fails(self, artifact_dir, tmp_path):
        baseline = self._baseline(artifact_dir, tmp_path)
        record = json.loads((artifact_dir / "bench_sectioned.json").read_text())
        record["parity_section"]["parity"]["hierarchical"]["span_recall"] = 0.2
        _write(artifact_dir / "bench_sectioned.json", record)
        failures = bench_trajectory.check(baseline, artifact_dir, 0.1)
        assert len(failures) == 1
        assert "span_recall" in failures[0]

    def test_missing_benchmark_is_skipped_when_allowed(self, artifact_dir,
                                                       tmp_path, capsys):
        baseline = self._baseline(artifact_dir, tmp_path)
        (artifact_dir / "bench_sectioned.json").unlink()
        assert bench_trajectory.check(baseline, artifact_dir, 0.1,
                                      allow_missing=True) == []
        assert "skipped" in capsys.readouterr().out

    def test_missing_benchmark_fails_by_default(self, artifact_dir, tmp_path):
        """A benchmark that crashed before writing JSON must not slip past
        the gate as a silent pass."""
        baseline = self._baseline(artifact_dir, tmp_path)
        (artifact_dir / "bench_sectioned.json").unlink()
        failures = bench_trajectory.check(baseline, artifact_dir, 0.1)
        assert len(failures) == 2          # bench_recal and bench_parity
        assert all("no fresh artifact" in message for message in failures)

    def test_empty_artifact_dir_is_an_error_even_when_allowed(
            self, artifact_dir, tmp_path):
        baseline = self._baseline(artifact_dir, tmp_path)
        for path in artifact_dir.glob("*.json"):
            path.unlink()
        failures = bench_trajectory.check(baseline, artifact_dir, 0.1,
                                          allow_missing=True)
        assert len(failures) == 1
        assert "did not run" in failures[0]

    def test_cli_missing_artifacts_exit_distinctly(self, artifact_dir,
                                                   tmp_path, capsys):
        baseline = self._baseline(artifact_dir, tmp_path)
        (artifact_dir / "bench_sectioned.json").unlink()
        code = bench_trajectory.main(["check",
                                      "--artifacts", str(artifact_dir),
                                      "--baseline", str(baseline)])
        assert code == 2                   # distinct from regressions (1)
        assert "MISSING" in capsys.readouterr().err
        assert bench_trajectory.main(["check",
                                      "--artifacts", str(artifact_dir),
                                      "--baseline", str(baseline),
                                      "--allow-missing"]) == 0

    def test_disappearing_tracked_metric_fails(self, artifact_dir, tmp_path):
        baseline = self._baseline(artifact_dir, tmp_path)
        record = json.loads((artifact_dir / "bench_flat.json").read_text())
        del record["parallel_speedup_vs_baseline"]
        _write(artifact_dir / "bench_flat.json", record)
        failures = bench_trajectory.check(baseline, artifact_dir, 0.5)
        assert any("disappeared" in message for message in failures)

    def test_cli_check_exit_codes(self, artifact_dir, tmp_path, capsys):
        baseline = self._baseline(artifact_dir, tmp_path)
        assert bench_trajectory.main(["check",
                                      "--artifacts", str(artifact_dir),
                                      "--baseline", str(baseline),
                                      "--tolerance", "0.1"]) == 0
        record = json.loads((artifact_dir / "bench_flat.json").read_text())
        record["parallel_speedup_vs_baseline"] = 0.1
        _write(artifact_dir / "bench_flat.json", record)
        assert bench_trajectory.main(["check",
                                      "--artifacts", str(artifact_dir),
                                      "--baseline", str(baseline),
                                      "--tolerance", "0.1"]) == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_missing_baseline_is_a_no_op(self, artifact_dir, tmp_path):
        assert bench_trajectory.check(tmp_path / "absent.json",
                                      artifact_dir, 0.1) == []


class TestMarkdownSummary:
    def _baseline(self, artifact_dir, tmp_path):
        baseline = tmp_path / "BENCH.json"
        bench_trajectory.consolidate(artifact_dir, baseline)
        return baseline

    def test_summary_table_lists_every_tracked_metric(self, artifact_dir,
                                                      tmp_path):
        baseline = self._baseline(artifact_dir, tmp_path)
        summary = tmp_path / "summary.md"
        code = bench_trajectory.main(["check",
                                      "--artifacts", str(artifact_dir),
                                      "--baseline", str(baseline),
                                      "--summary", str(summary)])
        assert code == 0
        text = summary.read_text()
        assert "| Benchmark | Metric |" in text
        assert "parallel_speedup_vs_baseline" in text
        assert "parity.span_recall" in text
        assert "within tolerance" in text

    def test_summary_marks_regressions(self, artifact_dir, tmp_path):
        baseline = self._baseline(artifact_dir, tmp_path)
        record = json.loads((artifact_dir / "bench_flat.json").read_text())
        record["parallel_speedup_vs_baseline"] = 0.1
        _write(artifact_dir / "bench_flat.json", record)
        summary = tmp_path / "summary.md"
        code = bench_trajectory.main(["check",
                                      "--artifacts", str(artifact_dir),
                                      "--baseline", str(baseline),
                                      "--tolerance", "0.5",
                                      "--summary", str(summary)])
        assert code == 1
        text = summary.read_text()
        assert "REGRESSION" in text
        assert "**Failures:**" in text

    def test_summary_appends_rather_than_overwrites(self, artifact_dir,
                                                    tmp_path):
        baseline = self._baseline(artifact_dir, tmp_path)
        summary = tmp_path / "summary.md"
        summary.write_text("## earlier step output\n")
        bench_trajectory.main(["check", "--artifacts", str(artifact_dir),
                               "--baseline", str(baseline),
                               "--summary", str(summary)])
        text = summary.read_text()
        assert text.startswith("## earlier step output")
        assert "Benchmark trajectory" in text

    def test_disabled_gate_rows_are_marked_not_gated(self, artifact_dir,
                                                     tmp_path):
        baseline = self._baseline(artifact_dir, tmp_path)
        record = json.loads((artifact_dir / "bench_flat.json").read_text())
        record["gate"] = {"min_speedup": 1.5, "enforced": False}
        _write(artifact_dir / "bench_flat.json", record)
        _, _, rows = bench_trajectory.compare(baseline, artifact_dir, 0.5)
        speedup_rows = [r for r in rows if r["kind"] == "speedup"
                        and r["benchmark"] == "bench_flat"]
        assert speedup_rows
        assert all(r["status"] == "not gated (machine)"
                   for r in speedup_rows)
