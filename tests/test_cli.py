"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.scenarios import scenario_names
from repro.store import TraceStore
from segment_fixtures import write_as

GOLDEN_DIR = Path(__file__).parent / "data"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["fig3a"])
        assert args.duration == 12.0
        assert args.seed == 42

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig9"])


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "P16" in out and "uretprobe" in out

    def test_fig3a_with_artifacts(self, capsys, tmp_path):
        dot = tmp_path / "syn.dot"
        js = tmp_path / "syn.json"
        code = main(["fig3a", "--duration", "6", "--dot", str(dot), "--json", str(js)])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert dot.read_text().startswith("digraph")
        model = json.loads(js.read_text())
        assert len(model["vertices"]) == 18

    def test_fig3b(self, capsys):
        assert main(["fig3b", "--duration", "6"]) == 0
        out = capsys.readouterr().out
        assert "p2d_ndt_localizer_node" in out

    def test_table2_small(self, capsys):
        assert main(["table2", "--runs", "3", "--duration", "3"]) == 0
        out = capsys.readouterr().out
        assert "paper mWCET" in out

    def test_fig4_small(self, capsys):
        assert main(["fig4", "--runs", "3", "--duration", "3"]) == 0
        out = capsys.readouterr().out
        assert "mWCET growth" in out

    def test_overhead_small(self, capsys):
        assert main(["overhead", "--duration", "4"]) == 0
        out = capsys.readouterr().out
        assert "MB trace data" in out


class TestScenariosCommand:
    def test_lists_every_registered_scenario(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_lists_topology_sizes(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        # header plus one row per scenario
        assert "nodes" in out and "edges" in out

    def test_json_listing_is_machine_readable(self, capsys):
        assert main(["scenarios", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in doc["scenarios"]}
        assert set(by_name) == set(scenario_names())
        for entry in doc["scenarios"]:
            assert entry["nodes"] >= 1
            assert entry["policy"] == "priority"
            assert entry["num_cpus"] >= 1
            assert isinstance(entry["tags"], list)
        assert by_name["avp"]["callbacks"] == 6


class TestBatchCommand:
    def test_unknown_scenario_fails_loudly(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            main(["batch", "no-such-scenario", "--runs", "1"])

    def test_batch_runs_and_reports(self, capsys):
        code = main(["batch", "service-mesh", "--runs", "2", "--jobs", "2",
                     "--duration", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 runs" in out
        assert "gateway" in out and "mWCET" in out

    def test_batch_artifact_writing(self, capsys, tmp_path):
        dot = tmp_path / "mesh.dot"
        js = tmp_path / "mesh.json"
        code = main(["batch", "deep-pipeline", "--runs", "2", "--duration", "2",
                     "--dot", str(dot), "--json", str(js)])
        assert code == 0
        assert dot.read_text().startswith("digraph")
        model = json.loads(js.read_text())
        assert len(model["vertices"]) == 9  # SRC + S1..S8
        assert len(model["edges"]) == 8

    def test_batch_policy_override(self, capsys):
        code = main(["batch", "deep-pipeline", "--runs", "1", "--duration", "2",
                     "--policy", "edf"])
        assert code == 0
        out = capsys.readouterr().out
        assert "policy edf" in out and "S8" in out

    def test_zero_runs_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["batch", "syn", "--runs", "0"])
        assert excinfo.value.code == 2

    def test_unknown_policy_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["batch", "syn", "--policy", "lottery"])
        assert excinfo.value.code == 2

    def test_negative_jobs_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["batch", "syn", "--jobs", "-2"])
        assert excinfo.value.code == 2

    def test_batch_dot_matches_golden(self, capsys, tmp_path):
        """Golden-file regression: the merged small-DAG artefact is
        byte-stable across worker counts and code changes."""
        golden = (GOLDEN_DIR / "deep_pipeline_batch.dot").read_text()
        for jobs in ("1", "2"):
            dot = tmp_path / f"deep{jobs}.dot"
            code = main(["batch", "deep-pipeline", "--runs", "2",
                         "--duration", "2", "--seed", "1000",
                         "--jobs", jobs, "--dot", str(dot)])
            assert code == 0
            assert dot.read_text() == golden

    def test_table2_jobs_flag(self, capsys):
        assert main(["table2", "--runs", "2", "--duration", "2",
                     "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "paper mWCET" in out


class TestSynthesizeUsageErrors:
    """Unknown --strategy / malformed --pids are argparse-level usage
    errors (exit code 2), not raw KeyError/ValueError tracebacks."""

    def test_unknown_strategy_exits_2(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["synthesize", str(tmp_path), "--strategy", "merge-everything"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "merge-traces" in err and "merge-dags" in err

    def test_malformed_pids_exits_2(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["synthesize", str(tmp_path), "--pids", "1,x"])
        assert excinfo.value.code == 2
        assert "invalid PID 'x'" in capsys.readouterr().err

    def test_empty_pids_exits_2(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["synthesize", str(tmp_path), "--pids", " , "])
        assert excinfo.value.code == 2
        assert "no PIDs" in capsys.readouterr().err

    def test_valid_pids_parse_with_whitespace_and_blanks(self):
        args = build_parser().parse_args(
            ["synthesize", "store", "--pids", "1, 2,,3"]
        )
        assert args.pids == [1, 2, 3]


class TestRecordOverwriteProtection:
    def test_record_collision_refused_then_forced(self, capsys, tmp_path):
        store_dir = str(tmp_path / "store")
        args = ["record", "syn", "--runs", "1", "--out", store_dir,
                "--duration", "1"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "run000" in err and "--force" in err
        assert main(args + ["--force"]) == 0
        assert "run000" in capsys.readouterr().out


@pytest.fixture(scope="module")
def recorded_store(tmp_path_factory):
    """One small recorded store shared by the diff/analyze CLI tests."""
    directory = str(tmp_path_factory.mktemp("cli_store") / "syn")
    assert main(["record", "syn", "--runs", "2", "--duration", "2",
                 "--out", directory]) == 0
    return directory


class TestDiffCommand:
    def test_self_compare_exits_zero(self, capsys, recorded_store):
        assert main(["diff", recorded_store, recorded_store]) == 0
        out = capsys.readouterr().out
        assert "identical" in out
        assert "OK:" in out and "[ok]" in out

    def test_json_model_side(self, capsys, recorded_store, tmp_path):
        model = tmp_path / "model.json"
        assert main(["synthesize", recorded_store, "--json", str(model)]) == 0
        capsys.readouterr()
        assert main(["diff", str(model), recorded_store]) == 0
        assert main(["diff", recorded_store, str(model)]) == 0

    def test_gate_failure_exits_one(self, capsys, recorded_store):
        """A self-compare under an impossible gate (ratio 1.0 > 0.5)
        fails every gate: the CI 'perturbed' leg."""
        assert main(["diff", recorded_store, recorded_store,
                     "--gate-factor", "0.5"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out and "REGRESSION" in out

    def test_fail_on_never_masks_gate_failure(self, capsys, recorded_store):
        assert main(["diff", recorded_store, recorded_store,
                     "--gate-factor", "0.5", "--fail-on", "never"]) == 0

    def test_fail_on_structure_ignores_gates(self, capsys, recorded_store):
        assert main(["diff", recorded_store, recorded_store,
                     "--gate-factor", "0.5", "--fail-on", "structure"]) == 0

    def test_structural_difference_exits_one(self, capsys, recorded_store,
                                             tmp_path):
        other = str(tmp_path / "mesh")
        assert main(["record", "service-mesh", "--runs", "1",
                     "--duration", "2", "--out", other]) == 0
        capsys.readouterr()
        assert main(["diff", recorded_store, other]) == 1
        out = capsys.readouterr().out
        assert "+ vertex" in out and "- vertex" in out

    def test_run_selection(self, capsys, recorded_store):
        assert main(["diff", recorded_store, recorded_store,
                     "--old-run", "run000", "--new-run", "run001"]) == 0

    def test_unknown_run_exits_two(self, capsys, recorded_store):
        assert main(["diff", recorded_store, recorded_store,
                     "--old-run", "nope"]) == 2
        assert "not in" in capsys.readouterr().err

    def test_missing_store_exits_two(self, capsys, tmp_path):
        assert main(["diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_json_report(self, capsys, recorded_store, tmp_path):
        report = tmp_path / "diff.json"
        assert main(["diff", recorded_store, recorded_store,
                     "--json", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["regression"] is False
        assert payload["gates"] and all(
            not g["exceeded"] for g in payload["gates"]
        )
        assert payload["added_vertices"] == []


class TestAnalyzeCommand:
    def test_default_reports(self, capsys, recorded_store):
        assert main(["analyze", recorded_store]) == 0
        out = capsys.readouterr().out
        assert "== chains" in out
        assert "== activation models" in out
        assert "== callback loads" in out

    def test_latency_report_via_topics(self, capsys, recorded_store):
        assert main(["analyze", recorded_store, "--report", "latency",
                     "--topics", "/t1"]) == 0
        out = capsys.readouterr().out
        assert "== chain latency over /t1" in out
        assert "mean" in out

    def test_topics_flag_implies_latency(self, capsys, recorded_store):
        assert main(["analyze", recorded_store, "--topics", "/t1"]) == 0
        assert "== chain latency" in capsys.readouterr().out

    def test_sinks_flag_truncates_chains(self, capsys, recorded_store):
        assert main(["analyze", recorded_store, "--report", "chains",
                     "--sinks", "syn_n3/SC1"]) == 0
        out = capsys.readouterr().out
        assert "== chains" in out and "SC1" in out

    def test_latency_without_topics_exits_two(self, capsys, recorded_store):
        assert main(["analyze", recorded_store, "--report", "latency"]) == 2
        assert "--topics" in capsys.readouterr().err

    def test_waiting_without_pid_exits_two(self, capsys, recorded_store):
        assert main(["analyze", recorded_store, "--report", "waiting"]) == 2
        assert "--waiting-pid" in capsys.readouterr().err

    def test_unknown_report_exits_two(self, capsys, recorded_store):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", recorded_store, "--report", "bogus"])
        assert excinfo.value.code == 2
        assert "unknown report" in capsys.readouterr().err

    def test_missing_store_exits_two(self, capsys, tmp_path):
        assert main(["analyze", str(tmp_path / "none")]) == 2
        assert "error:" in capsys.readouterr().err


class TestSynthesizeCommand:
    @pytest.mark.parametrize("strategy", ["merge-traces", "merge-dags"])
    def test_cut_run_exits_two_naming_it(
        self, capsys, tmp_path, strategy
    ):
        """A store with one run cut to two thirds of its bytes is
        diagnosed, not a traceback: ``error:`` naming the run, exit 2."""
        directory = str(tmp_path / "store")
        assert main(["record", "syn", "--runs", "3", "--duration", "1",
                     "--out", directory]) == 0
        cut = Path(directory) / "run001.trace.bin"
        data = cut.read_bytes()
        cut.write_bytes(data[: len(data) * 2 // 3])
        capsys.readouterr()
        assert main(["synthesize", directory, "--strategy", strategy]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "run001" in captured.err
        assert captured.out == ""

    def test_missing_store_exits_two(self, capsys, tmp_path):
        assert main(["synthesize", str(tmp_path / "none")]) == 2
        assert "error:" in capsys.readouterr().err


class TestStoreInfoCommand:
    @pytest.fixture()
    def cut_store(self, request, tmp_path):
        """Three recorded runs in segment format ``request.param`` (3
        unless parametrized), ``run001`` cut to two thirds of its bytes:
        its header, and a v3 run's section directory, are whole."""
        directory = str(tmp_path / "store")
        assert main(["record", "syn", "--runs", "3", "--duration", "1",
                     "--out", directory]) == 0
        version = getattr(request, "param", 3)
        if version != 3:
            store = TraceStore(directory)
            for run_id in store.run_ids():
                write_as(store.load(run_id), store.path_of(run_id), version)
        cut = Path(directory) / "run001.trace.bin"
        data = cut.read_bytes()
        cut.write_bytes(data[: len(data) * 2 // 3])
        return directory

    @pytest.mark.parametrize("cut_store", [1, 2, 3], indirect=True)
    @pytest.mark.parametrize("as_json", [False, True])
    def test_cut_run_exits_two_naming_it(self, capsys, cut_store, as_json):
        capsys.readouterr()
        argv = ["store-info", cut_store] + (["--json"] if as_json else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "run001" in captured.err and "truncated" in captured.err
        assert captured.out == ""

    def test_no_strict_skips_the_cut_run(self, capsys, cut_store):
        capsys.readouterr()
        with pytest.warns(RuntimeWarning, match="run001"):
            assert main(["store-info", cut_store, "--no-strict"]) == 0
        out = capsys.readouterr().out
        assert "2 run(s)" in out
        assert "run000" in out and "run002" in out and "run001" not in out


class _ClosedPipe:
    """A stdout whose reader has gone (``repro ... | head -1``): every
    write raises :class:`BrokenPipeError`.  ``fileno`` names a scratch
    file, which :func:`main` points at ``/dev/null`` on the way out."""

    def __init__(self, path):
        self._handle = open(path, "w")

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self._handle.fileno()

    def close(self):
        self._handle.close()


class TestArtifactsSurviveAClosedPipe:
    """``--dot`` / ``--json`` are written before anything is printed, so
    a closed stdout pipe cannot lose them."""

    @pytest.mark.parametrize("command", [
        "synthesize", "batch", "fig3a", "fig3b",
    ])
    def test_artifacts_written_when_stdout_is_closed(
        self, command, capsys, monkeypatch, recorded_store, tmp_path
    ):
        head = {
            "synthesize": ["synthesize", recorded_store],
            "batch": ["batch", "deep-pipeline", "--runs", "1",
                      "--duration", "1"],
            "fig3a": ["fig3a", "--duration", "2"],
            "fig3b": ["fig3b", "--duration", "2"],
        }[command]

        def artifacts(name):
            return ["--dot", str(tmp_path / f"{name}.dot"),
                    "--json", str(tmp_path / f"{name}.json")]

        assert main(head + artifacts("unpiped")) == 0
        capsys.readouterr()
        pipe = _ClosedPipe(tmp_path / "stdout")
        monkeypatch.setattr("sys.stdout", pipe)
        try:
            assert main(head + artifacts("piped")) == 1
        finally:
            monkeypatch.undo()
            pipe.close()
        for suffix in ("dot", "json"):
            piped = (tmp_path / f"piped.{suffix}").read_text()
            assert piped == (tmp_path / f"unpiped.{suffix}").read_text()
