"""Tests for the CLI and the package's public API surface."""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.cli import build_parser, main
from repro.validate.schema import parse_artifact


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_lazy_exports_resolve(self):
        assert repro.CableInferencePipeline.__name__ == "CableInferencePipeline"
        assert repro.AttInferencePipeline.__name__ == "AttInferencePipeline"
        assert repro.MobileIPv6Analyzer.__name__ == "MobileIPv6Analyzer"
        assert repro.SimulatedInternet.__name__ == "SimulatedInternet"

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            repro.NotAThing

    def test_error_hierarchy(self):
        from repro.errors import (
            AddressError,
            InferenceError,
            MeasurementError,
            ReproError,
            RoutingError,
            TopologyError,
        )

        for exc in (AddressError, InferenceError, MeasurementError,
                    RoutingError, TopologyError):
            assert issubclass(exc, ReproError)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_map_cable_args(self):
        args = build_parser().parse_args(
            ["map-cable", "comcast", "--sweep-vps", "4"]
        )
        assert args.isp == "comcast" and args.sweep_vps == 4

    def test_bad_isp_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["map-cable", "frontier"])

    def test_seed_is_global(self):
        args = build_parser().parse_args(["--seed", "9", "energy"])
        assert args.seed == 9


class TestEnergyCommand:
    def test_prints_comparison(self, capsys):
        assert main(["energy", "--targets", "80"]) == 0
        out = capsys.readouterr().out
        assert "saving:" in out and "battery life" in out


class TestShipCommand:
    def test_runs_and_exports(self, tmp_path, capsys):
        assert main(["--seed", "5", "ship", "--json-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "att-mobile" in out and "verizon" in out
        documents = sorted(tmp_path.glob("*.json"))
        assert len(documents) == 3
        payload = json.loads(documents[0].read_text())
        assert payload["kind"] == "mobile-carrier"


class TestMapAttCommand:
    def test_unknown_region_fails_cleanly(self, capsys):
        code = main(["map-att", "nowhere"])
        assert code == 2
        assert "unknown region" in capsys.readouterr().err


class TestSupervisedFlags:
    def test_worker_flags_parse_with_defaults(self):
        args = build_parser().parse_args(["map-cable", "comcast"])
        assert args.workers == 0
        assert args.pace_ms == 0.0
        assert args.worker_crash == args.worker_stall == args.worker_slow == 0.0

    def test_worker_flags_accept_values(self):
        args = build_parser().parse_args(
            ["map-cable", "comcast", "--workers", "4",
             "--pace-ms", "0.5", "--worker-crash", "0.2"]
        )
        assert args.workers == 4 and args.pace_ms == 0.5
        assert args.worker_crash == 0.2

    @pytest.mark.parametrize("flag", ["--shard-deadline", "--max-shard-retries"])
    def test_shard_flags_are_gone(self, flag):
        # The supervisor's defaults are the only values a campaign runs with.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["map-cable", "comcast", flag, "1"])

    def test_parallel_flag_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["map-cable", "comcast", "--parallel", "4"])


class TestRouteModelWorkers:
    def test_route_model_with_workers_runs(self, tmp_path, capsys,
                                           monkeypatch):
        """The route model is part of the substrate workers rebuild, so
        ``--route-model`` combines with ``--workers``.  The target lists
        are cut short: hot-potato paths are slow, and the combination,
        not the campaign's size, is under test."""
        from repro.infer.pipeline import CableInferencePipeline

        for name in ("slash24_targets", "rdns_targets"):
            full = getattr(CableInferencePipeline, name)
            monkeypatch.setattr(CableInferencePipeline, name,
                                lambda self, full=full: full(self)[:8])
        code = main(["map-cable", "charter", "--sweep-vps", "1",
                     "--route-model", "hot-potato", "--workers", "2",
                     "--json-dir", str(tmp_path)])
        assert code == 0
        assert "error:" not in capsys.readouterr().err
        manifest = json.loads((tmp_path / "charter-manifest.json").read_text())
        parameters = manifest["invocation"]["parameters"]
        assert parameters["route_model"] == "hot-potato"
        assert parameters["workers"] == 2


class TestCorpusExport:
    @pytest.mark.parametrize("corpus_format", ["binary", "json"])
    def test_each_corpus_is_lifted_once(self, tmp_path, monkeypatch, corpus_format):
        """A binary campaign exports the corpora its inference already
        lifted; a JSON campaign writes its traces without lifting."""
        from repro.corpus import TraceCorpus, load_corpus
        from repro.infer.pipeline import CableInferencePipeline

        for name in ("slash24_targets", "rdns_targets"):
            full = getattr(CableInferencePipeline, name)
            monkeypatch.setattr(CableInferencePipeline, name, lambda self, full=full: full(self)[:8])
        lifted = []
        from_traces = TraceCorpus.from_traces.__func__
        monkeypatch.setattr(TraceCorpus, "from_traces",
                            classmethod(lambda cls, traces: lifted.append(len(traces)) or from_traces(cls, traces)))
        out = tmp_path / "corpus.out"
        assert main(["map-cable", "charter", "--sweep-vps", "1", "--corpus-format", corpus_format,
                     "--corpus-out", str(out)]) == 0
        paths = (out, tmp_path / "corpus.followup.out")
        if corpus_format == "binary":
            assert len(lifted) == 2
            assert [len(load_corpus(path)) for path in paths] == lifted
        else:
            assert lifted == []
            for path in paths:
                parse_artifact(path.read_text(), kind="trace-corpus")

    def test_json_export_does_not_import_numpy(self, tmp_path):
        script = textwrap.dedent("""
            import sys
            from repro.cli import main
            from repro.infer.pipeline import CableInferencePipeline

            for name in ("slash24_targets", "rdns_targets"):
                full = getattr(CableInferencePipeline, name)
                setattr(CableInferencePipeline, name, lambda self, full=full: full(self)[:8])
            assert main(["map-cable", "charter", "--sweep-vps", "1", "--corpus-out", sys.argv[1]]) == 0
            print("numpy" in sys.modules)
        """)
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src) + os.pathsep + os.environ.get("PYTHONPATH", ""))
        out = tmp_path / "corpus.json"
        run = subprocess.run([sys.executable, "-c", script, str(out)], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "False"
        assert out.exists()


class TestCorruptCheckpointResume:
    def test_resume_from_corrupt_checkpoint_is_a_clean_error(
        self, tmp_path, capsys
    ):
        """Satellite of the supervised-execution PR: a truncated or
        garbled checkpoint on ``--resume`` must exit 3 with one
        ``error:`` line, never a traceback."""
        bad = tmp_path / "campaign.ckpt"
        bad.write_text('{"version": 1, "stages": {TRUNCATED')
        code = main(["map-cable", "comcast", "--sweep-vps", "2",
                     "--resume", str(bad)])
        assert code == 3
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:")
        assert "\n" not in err
        assert "Traceback" not in err


@pytest.fixture
def traces_run(monkeypatch):
    """Counts every traceroute the command under test runs."""
    from repro.measure.traceroute import Tracerouter

    calls = []
    trace = Tracerouter.trace

    def counted(self, *args, **kwargs):
        calls.append(args)
        return trace(self, *args, **kwargs)

    monkeypatch.setattr(Tracerouter, "trace", counted)
    return calls


class TestUnhonourableConfigRefused:
    """A configuration the campaign cannot honour is one ``error:`` line
    and exit 3 before any probing, not a run that quietly loses it."""

    @pytest.mark.parametrize("flags, message", [
        (["--faults", "1.5"], "probe_loss must be a probability in [0, 1]"),
        (["--min-vps", "100"], "min_vps 100 exceeds"),
        (["--worker-crash", "0.5"], "worker chaos (crash, stall, slow) needs supervised workers"),
        (["--sweep-vps", "0"], "sweep_vps 0 is outside 1.."),
        (["--sweep-vps", "999"], "sweep_vps 999 is outside 1.."),
        (["--attempts", "0"], "attempts must be at least 1, got 0"),
        (["--workers", "-1"], "workers must be 0 or more, got -1"),
        (["--min-vps", "0"], "min_vps must be at least 1, got 0"),
        (["--checkpoint", "a", "--resume", "b"], "--checkpoint a and --resume b name two files"),
    ], ids=["faults-above-1", "min-vps-above-fleet", "worker-chaos-serial",
            "sweep-vps-0", "sweep-vps-above-fleet", "attempts-0", "workers-negative",
            "min-vps-0", "checkpoint-and-resume-differ"])
    def test_refused_before_probing(self, flags, message, capsys, traces_run, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["map-cable", "charter", "--sweep-vps", "1", *flags])
        assert code == 3
        captured = capsys.readouterr()
        err = captured.err.strip()
        assert err.startswith("error:") and "\n" not in err
        assert message in err
        assert "regions inferred" not in captured.out
        assert traces_run == []
        assert list(tmp_path.iterdir()) == []

    def test_bias_lab_without_vantage_points(self, capsys, traces_run):
        assert main(["bias", "report", "--vps", "0"]) == 3
        err = capsys.readouterr().err.strip()
        assert err == "error: vp_count 0 is outside 1..36, the vantage points outside comcast"
        assert traces_run == []

    def test_service_with_no_queue(self, tmp_path, capsys):
        assert main(["service", "run", str(tmp_path / "state"), "--queue-limit", "0", "--until-idle"]) == 3
        err = capsys.readouterr().err.strip()
        assert err == "error: queue_limit must be at least 1, got 0"


class TestProfileReport:
    def test_one_line_per_phase_then_total_and_peak_rss(self, capsys, monkeypatch):
        from repro.infer.pipeline import CableInferencePipeline

        for name in ("slash24_targets", "rdns_targets"):
            full = getattr(CableInferencePipeline, name)
            monkeypatch.setattr(CableInferencePipeline, name, lambda self, full=full: full(self)[:8])
        assert main(["map-cable", "charter", "--sweep-vps", "1", "--profile"]) == 0
        lines = capsys.readouterr().out.splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("collect "))
        report = lines[start:start + 8]
        assert [line.split()[0] for line in report] == [
            "collect", "aliases", "ip2co", "adjacency", "refine", "entries", "total", "peak",
        ]
        for line in report[:6]:
            seconds, share = line.split()[1:]
            assert seconds.endswith("s") and share.endswith("%")
        phases = sum(float(line.split()[1].rstrip("s")) for line in report[:6])
        assert float(report[6].split()[1].rstrip("s")) == pytest.approx(phases, abs=0.01)
        assert report[7].startswith("peak rss") and report[7].endswith(" MiB")
