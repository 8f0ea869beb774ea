"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parses_experiment_command(self):
        args = build_parser().parse_args(["experiment", "E1", "--quick"])
        assert args.id == "E1"
        assert args.quick is True

    def test_parses_spanner_command_defaults(self):
        args = build_parser().parse_args(["spanner", "grid-graph"])
        assert args.workload == "grid-graph"
        assert args.stretch == 2.0
        assert args.measure_stretch is False


class TestCommands:
    def test_list_workloads(self, capsys):
        assert main(["list-workloads"]) == 0
        output = capsys.readouterr().out
        assert "random-graph-small" in output
        assert "uniform-2d-small" in output

    def test_list_workloads_filtered(self, capsys):
        assert main(["list-workloads", "--kind", "metric"]) == 0
        output = capsys.readouterr().out
        assert "uniform-2d-small" in output
        assert "random-graph-small" not in output

    def test_figure1(self, capsys):
        assert main(["figure1", "--epsilon", "0.1"]) == 0
        output = capsys.readouterr().out
        assert "[E1]" in output
        assert "petersen_edges_kept" in output

    def test_experiment_quick(self, capsys):
        assert main(["experiment", "E2", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "[E2]" in output
        assert "fixed_point" in output

    def test_experiment_lowercase_id(self, capsys):
        assert main(["experiment", "e1", "--quick"]) == 0
        assert "[E1]" in capsys.readouterr().out

    def test_experiment_unknown_id(self, capsys):
        assert main(["experiment", "E99"]) == 2
        assert "unknown experiment" in capsys.readouterr().out

    def test_compare_small(self, capsys):
        assert main(["compare", "--n", "40"]) == 0
        output = capsys.readouterr().out
        assert "greedy" in output and "wspd" in output

    def test_spanner_on_graph_workload(self, capsys):
        assert main(["spanner", "grid-graph", "--stretch", "2.0"]) == 0
        output = capsys.readouterr().out
        assert "lightness" in output

    def test_spanner_on_metric_workload(self, capsys):
        assert main(["spanner", "uniform-2d-small", "--stretch", "1.5", "--measure-stretch"]) == 0
        output = capsys.readouterr().out
        assert "measured_stretch" in output

    def test_bench_oracles_writes_trajectory_with_memory(self, capsys, tmp_path):
        out = tmp_path / "BENCH.json"
        assert main(
            ["bench-oracles", "--n", "30", "--strategies", "cached", "--output", str(out)]
        ) == 0
        output = capsys.readouterr().out
        assert "identical edge sets: True" in output
        assert "peak memory [cached]" in output
        assert out.exists()

    def test_bench_oracles_no_memory_flag(self, capsys, tmp_path):
        out = tmp_path / "BENCH.json"
        assert main(
            ["bench-oracles", "--n", "30", "--strategies", "cached",
             "--no-memory", "--output", str(out)]
        ) == 0
        assert "peak memory" not in capsys.readouterr().out

    def test_bench_oracles_rejects_unknown_strategy(self, capsys, tmp_path):
        out = tmp_path / "BENCH.json"
        assert main(
            ["bench-oracles", "--n", "30", "--strategies", "warp-drive", "--output", str(out)]
        ) == 2
        assert "unknown oracle strategies" in capsys.readouterr().out

    def test_bench_oracles_approx_strategy_row(self, capsys, tmp_path):
        out = tmp_path / "BENCH.json"
        assert main(
            ["bench-oracles", "--n", "40", "--stretch", "1.5", "--no-memory",
             "--strategies", "approx-greedy,approx-greedy-scratch",
             "--output", str(out)]
        ) == 0
        output = capsys.readouterr().out
        assert "approx engines identical: True" in output

    def test_bench_oracles_rejects_empty_strategies(self, capsys, tmp_path):
        out = tmp_path / "BENCH.json"
        assert main(
            ["bench-oracles", "--n", "30", "--strategies", "", "--output", str(out)]
        ) == 2
        assert "unknown oracle strategies" in capsys.readouterr().out

    def test_bench_oracles_rejects_approx_on_graph_workload(self, capsys, tmp_path):
        out = tmp_path / "BENCH.json"
        assert main(
            ["bench-oracles", "--kind", "graph", "--n", "30",
             "--strategies", "approx-greedy", "--no-memory", "--output", str(out)]
        ) == 2
        assert "cannot bench" in capsys.readouterr().out

    def test_bench_oracles_rejects_unknown_workload_key(self, capsys, tmp_path):
        out = tmp_path / "BENCH.json"
        assert main(
            ["bench-oracles", "--workloads", "no-such-row", "--output", str(out)]
        ) == 2
        assert "unknown bench workloads" in capsys.readouterr().out

    def test_bench_oracles_clustered_kind(self, capsys, tmp_path):
        out = tmp_path / "BENCH.json"
        assert main(
            ["bench-oracles", "--kind", "clustered", "--n", "30", "--clusters", "3",
             "--strategies", "cached", "--no-memory", "--output", str(out)]
        ) == 0
        assert "clustered-euclidean-n30" in capsys.readouterr().out

    def test_list_builders(self, capsys):
        assert main(["list-builders"]) == 0
        output = capsys.readouterr().out
        for name in ("greedy", "theta", "baswana-sen", "mst"):
            assert name in output

    def test_spanner_with_builder(self, capsys):
        assert main(["spanner", "uniform-2d-small", "--builder", "theta",
                     "--stretch", "1.5"]) == 0
        assert "theta 1.5-spanner" in capsys.readouterr().out

    def test_spanner_rejects_builder_workload_mismatch(self, capsys):
        assert main(["spanner", "grid-graph", "--builder", "theta"]) == 2
        assert "cannot span" in capsys.readouterr().out

    def test_bench_overlays_writes_trajectory(self, capsys, tmp_path):
        import json

        out = tmp_path / "BENCH_overlays.json"
        assert main(
            ["bench-overlays", "--n", "40", "--radius", "0.3",
             "--builders", "greedy,mst", "--demands", "10", "--output", str(out)]
        ) == 0
        output = capsys.readouterr().out
        assert "overlay matrix: geometric-n40" in output
        assert out.exists()
        run = json.loads(out.read_text())["runs"]["geometric-n40-r0.3-seed7-t1.5"]
        assert set(run["strategies"]) == {"greedy", "mst"}
        for record in run["strategies"].values():
            assert record["overlay_route_settles"] > 0
            assert record["overlay_sync_settles"] > 0

    def test_bench_overlays_euclidean_kind(self, capsys, tmp_path):
        out = tmp_path / "BENCH_overlays.json"
        assert main(
            ["bench-overlays", "--kind", "euclidean", "--n", "40",
             "--builders", "theta,yao,mst", "--demands", "10", "--output", str(out)]
        ) == 0
        assert "uniform-euclidean-n40" in capsys.readouterr().out

    def test_bench_overlays_rejects_unknown_builder(self, capsys, tmp_path):
        out = tmp_path / "BENCH_overlays.json"
        assert main(
            ["bench-overlays", "--builders", "warp-drive", "--output", str(out)]
        ) == 2
        assert "unknown spanner builders" in capsys.readouterr().out

    def test_bench_overlays_rejects_builder_workload_mismatch(self, capsys, tmp_path):
        out = tmp_path / "BENCH_overlays.json"
        assert main(
            ["bench-overlays", "--kind", "graph", "--n", "30",
             "--builders", "theta", "--output", str(out)]
        ) == 2
        assert "cannot bench" in capsys.readouterr().out

    def test_bench_overlays_rejects_unknown_workload_key(self, capsys, tmp_path):
        out = tmp_path / "BENCH_overlays.json"
        assert main(
            ["bench-overlays", "--workloads", "no-such-row", "--output", str(out)]
        ) == 2
        assert "unknown overlay workloads" in capsys.readouterr().out

    def test_profile_verify_profiles_only_the_check(self, capsys, tmp_path):
        out = tmp_path / "profile_verify.txt"
        assert main(
            ["profile", "--workload", "verify", "--n", "300", "--degree", "8",
             "--top", "10", "--output", str(out)]
        ) == 0
        report = out.read_text()
        assert "verify_spanner_edges_detailed" in report
        # The spanner is built before the profiler starts.
        assert "parallel_greedy_spanner" not in report

    def test_profile_approx_profiles_approximate_greedy(self, capsys, tmp_path):
        out = tmp_path / "profile_approx.txt"
        assert main(
            ["profile", "--workload", "approx", "--n", "60", "--seed", "2",
             "--top", "10", "--output", str(out)]
        ) == 0
        report = out.read_text()
        assert "approximate_greedy_spanner" in report
        assert "approximate_distance_ids" in report

    def test_profile_service_profiles_only_warm_jobs(self, capsys, tmp_path):
        out = tmp_path / "profile_service.txt"
        assert main(
            ["profile", "--workload", "service", "--n", "200", "--degree", "8",
             "--top", "40", "--output", str(out)]
        ) == 0
        report = out.read_text()
        assert "(claim)" in report
        assert "(submit)" in report
        # The cold build is set-up: no degradation run inside the profile.
        assert "run_with_degradation" not in report

    def test_bench_verify_writes_trajectory(self, capsys, tmp_path):
        import json

        out = tmp_path / "BENCH_verify.json"
        assert main(
            ["bench-verify", "--n", "50", "--radius", "0.3", "--builder", "greedy",
             "--output", str(out)]
        ) == 0
        output = capsys.readouterr().out
        assert "verify matrix: geometric-n50" in output
        assert "verdicts_match: True" in output
        assert "profiles_match: True" in output
        run = json.loads(out.read_text())["runs"]["geometric-n50-r0.3-seed7-t1.5-bgreedy"]
        assert set(run["strategies"]) == {"indexed", "reference"}
        for record in run["strategies"].values():
            assert record["verify_settles"] > 0
            assert record["profile_settles"] > 0

    def test_bench_verify_single_mode_and_workers(self, capsys, tmp_path):
        out = tmp_path / "BENCH_verify.json"
        assert main(
            ["bench-verify", "--n", "50", "--radius", "0.3", "--modes", "indexed",
             "--workers", "2", "--profile-sources", "10", "--output", str(out)]
        ) == 0
        output = capsys.readouterr().out
        assert "verdicts_match" not in output  # single mode: nothing to cross-check

    def test_bench_verify_rejects_unknown_mode(self, capsys, tmp_path):
        out = tmp_path / "BENCH_verify.json"
        assert main(
            ["bench-verify", "--n", "50", "--modes", "psychic", "--output", str(out)]
        ) == 2
        assert "unknown verification modes" in capsys.readouterr().out

    def test_bench_verify_rejects_unknown_workload_key(self, capsys, tmp_path):
        out = tmp_path / "BENCH_verify.json"
        assert main(
            ["bench-verify", "--workloads", "no-such-row", "--output", str(out)]
        ) == 2
        assert "unknown verify workloads" in capsys.readouterr().out

    def test_bench_verify_rejects_builder_workload_mismatch(self, capsys, tmp_path):
        out = tmp_path / "BENCH_verify.json"
        assert main(
            ["bench-verify", "--kind", "graph", "--n", "30", "--builder", "theta",
             "--output", str(out)]
        ) == 2
        assert "cannot bench" in capsys.readouterr().out

    def test_experiment_e12_quick(self, capsys):
        assert main(["experiment", "E12", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "[E12]" in output
        assert "verdicts_match=True" in output

    def test_bench_build_writes_trajectory(self, capsys, tmp_path):
        out = tmp_path / "BENCH_build.json"
        assert main(
            ["bench-build", "--n", "60", "--degree", "8", "--workers", "2",
             "--output", str(out)]
        ) == 0
        output = capsys.readouterr().out
        assert "builds_match: True" in output
        assert "csr-parallel-w1" in output
        assert out.exists()

    def test_bench_build_euclidean_kind(self, capsys, tmp_path):
        out = tmp_path / "BENCH_build.json"
        assert main(
            ["bench-build", "--kind", "euclidean", "--n", "40",
             "--stretch", "1.5", "--output", str(out)]
        ) == 0
        assert "builds_match: True" in capsys.readouterr().out

    def test_bench_build_rejects_unknown_strategy(self, capsys, tmp_path):
        out = tmp_path / "BENCH_build.json"
        assert main(
            ["bench-build", "--n", "40", "--strategies", "warp-drive",
             "--output", str(out)]
        ) == 2
        assert "unknown build strategies" in capsys.readouterr().out

    def test_bench_build_rejects_unknown_workload_key(self, capsys, tmp_path):
        out = tmp_path / "BENCH_build.json"
        assert main(
            ["bench-build", "--workloads", "no-such-row", "--output", str(out)]
        ) == 2
        assert "unknown build workloads" in capsys.readouterr().out

    def test_bench_parsers_share_the_matrix_option_group(self):
        """Every bench-* subcommand carries the shared --workloads/--output
        group; --workers and --no-memory stay opt-in per command."""
        parser = build_parser()
        for command, extra in (
            ("bench-oracles", ["--no-memory"]),
            ("bench-overlays", []),
            ("bench-verify", ["--workers", "2"]),
            ("bench-faults", []),
            ("bench-build", ["--workers", "2"]),
        ):
            args = parser.parse_args(
                [command, "--workloads", "all", "--output", "X.json"] + extra
            )
            assert args.workloads == "all"
            assert args.output == "X.json"

    def test_experiment_e14_quick(self, capsys):
        assert main(["experiment", "E14", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "[E14]" in output
        assert "builds_match=True" in output


class TestServiceCommands:
    SUBMIT = [
        "service", "submit", "--kind", "geometric",
        "--n", "80", "--radius", "0.25", "--seed", "3", "--stretch", "1.5",
    ]

    def _root(self, tmp_path):
        return ["--root", str(tmp_path / "svc")]

    def test_submit_run_status_cache_happy_path(self, capsys, tmp_path):
        root = self._root(tmp_path)
        assert main(self.SUBMIT + root) == 0
        assert "submitted job-" in capsys.readouterr().out
        assert main(["service", "run-workers"] + root) == 0
        output = capsys.readouterr().out
        assert "jobs_done: 1" in output
        assert "cache_puts: 1" in output
        assert main(["service", "status"] + root) == 0
        output = capsys.readouterr().out
        assert "done" in output
        assert "greedy-parallel" in output
        assert main(["service", "cache", "--verify"] + root) == 0
        output = capsys.readouterr().out
        assert "artifacts: 1" in output
        assert "corrupt: 0" in output

    def test_warm_resubmit_is_a_cache_hit(self, capsys, tmp_path):
        root = self._root(tmp_path)
        assert main(self.SUBMIT + root) == 0
        assert main(["service", "run-workers"] + root) == 0
        assert main(self.SUBMIT + root) == 0
        capsys.readouterr()
        assert main(["service", "run-workers"] + root) == 0
        assert "cache_hits: 1" in capsys.readouterr().out

    def test_failed_job_surfaces_traceback_and_exits_nonzero(self, capsys, tmp_path):
        root = self._root(tmp_path)
        # theta cannot serve a graph workload: the chain has no viable tier.
        assert main(self.SUBMIT + root + ["--chain", "theta", "--max-attempts", "1"]) == 0
        job_id = capsys.readouterr().out.split()[1]
        assert main(["service", "run-workers"] + root) == 1
        assert "TimeBudgetExceededError" in capsys.readouterr().out
        assert main(["service", "status", job_id] + root) == 1
        output = capsys.readouterr().out
        assert "quarantined" in output
        assert "Traceback" in output
        # The full table also flags it.
        assert main(["service", "status"] + root) == 1

    def test_corrupt_cache_verify_exits_nonzero_with_digests(self, capsys, tmp_path):
        root = self._root(tmp_path)
        assert main(self.SUBMIT + root) == 0
        assert main(["service", "run-workers"] + root) == 0
        payload = next((tmp_path / "svc" / "cache" / "objects").glob("*/*/payload.json"))
        payload.write_bytes(b"corrupted")
        capsys.readouterr()
        assert main(["service", "cache", "--verify"] + root) == 1
        output = capsys.readouterr().out
        assert "CORRUPT" in output
        assert "sha256" in output
        assert "quarantined" in output

    def test_submit_rejects_unknown_chain_builder(self, capsys, tmp_path):
        assert main(self.SUBMIT + self._root(tmp_path) + ["--chain", "nope"]) == 2
        assert "unknown chain builders" in capsys.readouterr().out

    @pytest.mark.parametrize("stretch", ["0.5", "nan"])
    def test_submit_rejects_an_invalid_stretch(self, capsys, tmp_path, stretch):
        root = self._root(tmp_path)
        argv = self.SUBMIT[:-2] + ["--stretch", stretch] + root
        assert main(argv) == 2
        assert "stretch must be a real number >= 1" in capsys.readouterr().out
        assert not list((tmp_path / "svc" / "jobs").glob("job-*"))

    def test_status_of_a_flat_legacy_root_prints_the_same_table(self, capsys, tmp_path):
        import json

        from repro.cli import _job_rows, render_table
        from repro.service.queue import Job

        jobs_dir = tmp_path / "svc" / "jobs"
        jobs_dir.mkdir(parents=True)
        spec = {"workload": {"kind": "geometric"}, "stretch": 1.5}
        legacy = [
            Job("job-aaaaaaaaaaaa-0000", spec, state="done", result={"tier": "mst"}),
            Job("job-aaaaaaaaaaaa-0001", spec),
            Job("job-bbbbbbbbbbbb-0000", spec, state="quarantined", error="boom"),
            Job("job-cccccccccccc-0000", spec, state="running", worker_id="w"),
        ]
        for job in legacy:
            (jobs_dir / f"{job.job_id}.json").write_text(json.dumps(job.as_dict()))
        root = tmp_path / "svc"
        expected = render_table(_job_rows(legacy), title=f"service jobs under {root}")
        assert main(["service", "status", "--root", str(root)]) == 1
        assert capsys.readouterr().out.startswith(expected + "\n")
        assert sorted(p.name for p in jobs_dir.glob("job-*")) == [
            "job-aaaaaaaaaaaa-0001.json", "job-cccccccccccc-0000.json",
        ]

    def test_status_unknown_job_exits_2(self, capsys, tmp_path):
        assert main(["service", "status", "job-zzz-0000"] + self._root(tmp_path)) == 2
        assert "not in the queue" in capsys.readouterr().out

    def test_bench_service_writes_trajectory(self, capsys, tmp_path):
        output_path = tmp_path / "BENCH_service.json"
        assert main([
            "bench-service", "--n", "80", "--radius", "0.25",
            "--kill-band", "-1", "--output", str(output_path),
        ]) == 0
        output = capsys.readouterr().out
        assert "service matrix" in output
        assert "warm_cache_hit: True" in output
        assert "rebuild_matches: True" in output
        import json as _json

        document = _json.loads(output_path.read_text())
        assert len(document["runs"]) == 1

    def test_experiment_e15_quick(self, capsys):
        assert main(["experiment", "E15", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "[E15]" in output
        assert "service_lease_reclaims" in output
