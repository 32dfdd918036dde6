"""The cast-plan command-line interface."""

import pytest

from repro.cli import DEFAULT_SERVICE_PORT, build_parser, main
from repro.errors import CastError, CatalogError


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_plan_defaults(self):
        args = build_parser().parse_args(["plan"])
        assert args.workload == "facebook"
        assert args.vms == 25
        assert not args.basic

    def test_experiment_takes_a_name(self):
        args = build_parser().parse_args(["experiment", "table4"])
        assert args.name == "table4"

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == DEFAULT_SERVICE_PORT
        assert args.restarts == 4
        assert args.cache_size == 128
        assert args.max_inflight == 4

    def test_submit_defaults(self):
        args = build_parser().parse_args(
            ["submit", "--workload-file", "wl.json"]
        )
        assert args.port == DEFAULT_SERVICE_PORT
        assert args.workload_file == "wl.json"
        assert args.restarts is None  # server's default wins

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.workload == "facebook"
        assert args.tier == "objStore"
        assert args.vms == 25
        assert not args.batch
        assert not args.check

    def test_experiment_accepts_fast_sim(self):
        args = build_parser().parse_args(["experiment", "fig7", "--fast-sim"])
        assert args.fast_sim is True

    def test_fast_sim_reaches_the_simulation_experiments(self):
        # --fast-sim must actually be forwarded, not silently dropped:
        # every simulation-heavy experiment entry accepts the kwarg.
        import inspect

        from repro.cli import _EXPERIMENTS, _register_experiments

        _register_experiments()
        for name in ("fig7", "fig9", "sensitivity"):
            params = inspect.signature(_EXPERIMENTS[name]).parameters
            assert "fast_sim" in params, name


class TestCommands:
    def test_catalog_prints_all_tiers(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        for tier in ("ephSSD", "persSSD", "persHDD", "objStore"):
            assert tier in out
        assert "0.218" in out

    def test_plan_small_workload(self, capsys):
        rc = main(["plan", "--workload", "small", "--vms", "10",
                   "--iterations", "100", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "CAST++" in out
        assert "utility" in out

    def test_plan_basic_and_verbose(self, capsys):
        rc = main(["plan", "--workload", "small", "--vms", "10",
                   "--iterations", "100", "--basic", "--verbose"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "CAST plan" in out
        assert "sjob-00" in out

    def test_plan_unknown_workload_fails(self, capsys):
        with pytest.raises(SystemExit):
            main(["plan", "--workload", "mystery"])

    def test_experiment_table4(self, capsys):
        assert main(["experiment", "table4"]) == 0
        out = capsys.readouterr().out
        assert "=== table4 ===" in out
        assert "3000" in out

    def test_experiment_unknown_name(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_simulate_batch_passes_parity_check(self, capsys):
        rc = main(["simulate", "--workload", "small", "--tier", "persSSD",
                   "--batch", "--check"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "simulated" in out
        assert "fast path" in out
        assert "parity check passed" in out

    def test_simulate_exact_path(self, capsys):
        rc = main(["simulate", "--workload", "small", "--tier", "objStore"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "simulated" in out
        assert "fast path" not in out  # no --batch, no counters line


class TestSweepAndCatalogs:
    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.providers == "google,aws,azure"
        assert args.reps == 2
        assert args.vms == 25
        assert not args.cold
        assert not args.json

    def test_catalogs_lists_every_provider(self, capsys):
        assert main(["catalogs"]) == 0
        out = capsys.readouterr().out
        for key in ("google", "aws", "azure"):
            assert f"{key}:" in out
        for tier in ("ephSSD", "persSSD", "persHDD", "objStore"):
            assert tier in out

    def test_catalogs_json(self, capsys):
        import json

        assert main(["catalogs", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert {e["key"] for e in entries} >= {"google", "aws", "azure"}
        for e in entries:
            assert len(e["tiers"]) == 4
            assert all(t["price_gb_month"] > 0 for t in e["tiers"])

    def test_sweep_runs_and_ranks(self, capsys):
        rc = main(["sweep", "--workload", "small", "--vms", "5",
                   "--iterations", "100", "--reps", "1",
                   "--providers", "google,aws"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "4 points" not in out  # 2 catalogs x 1 workload x 1 knob
        assert "2 points" in out
        assert "google" in out and "aws" in out
        assert "vs best" in out

    def test_sweep_json_payload(self, capsys):
        import json

        rc = main(["sweep", "--workload", "small", "--vms", "5",
                   "--iterations", "100", "--reps", "1",
                   "--providers", "google", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "sweep"
        assert payload["parity_ok"] is True

    def test_crosscloud_registered_as_experiment(self):
        import inspect

        from repro.cli import _EXPERIMENTS, _register_experiments

        _register_experiments()
        assert "crosscloud" in _EXPERIMENTS
        assert "workers" in inspect.signature(_EXPERIMENTS["crosscloud"]).parameters


class TestProvidersAndFiles:
    def test_catalog_aws(self, capsys):
        assert main(["catalog", "--provider", "aws"]) == 0
        out = capsys.readouterr().out
        assert "aws-2015" in out
        assert "c3.4xlarge" in out

    def test_plan_from_workload_file(self, capsys, tmp_path):
        from repro.workloads.io import save_json
        from repro.workloads.swim import synthesize_small_workload

        path = tmp_path / "wl.json"
        save_json(synthesize_small_workload(n_jobs=4), path)
        rc = main(["plan", "--workload-file", str(path), "--vms", "5",
                   "--iterations", "50"])
        assert rc == 0
        assert "4 jobs" in capsys.readouterr().out

    def test_plan_rejects_workflow_file(self, capsys, tmp_path):
        from repro.workloads.io import save_json
        from repro.workloads.workflow import search_engine_workflow

        path = tmp_path / "wf.json"
        save_json(search_engine_workflow(), path)
        assert main(["plan", "--workload-file", str(path)]) == 2
        assert "workflow" in capsys.readouterr().err

    def test_size_subcommand(self, capsys):
        rc = main(["size", "--workload", "small", "--sizes", "5,10",
                   "--iterations", "50"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "best size:" in out
        assert "VMs" in out

    def test_unknown_provider_raises_cast_error_not_keyerror(self):
        from repro.cli import _resolve_provider

        with pytest.raises(CatalogError, match="unknown provider"):
            _resolve_provider("digitalocean")


class TestMainErrorHandling:
    """``main`` turns interrupts and domain errors into clean exits —
    ``build_parser`` binds the command functions from module globals at
    call time, so monkeypatching them reaches ``main``'s dispatch."""

    def test_keyboard_interrupt_exits_130(self, capsys, monkeypatch):
        import repro.cli as cli_mod

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_mod, "_cmd_catalog", interrupted)
        assert main(["catalog"]) == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "Traceback" not in err

    def test_cast_error_exits_2(self, capsys, monkeypatch):
        import repro.cli as cli_mod

        def failing(args):
            raise CastError("the catalog is on fire")

        monkeypatch.setattr(cli_mod, "_cmd_catalog", failing)
        assert main(["catalog"]) == 2
        assert "on fire" in capsys.readouterr().err


class TestServiceRoundTrip:
    """End-to-end: serve in a subprocess, submit via main()."""

    @pytest.fixture()
    def live_server(self):
        import os
        import re
        import signal
        import subprocess
        import sys

        env = dict(os.environ)
        src = str(__import__("pathlib").Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--pool-processes", "0", "--restarts", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"listening on [\d.]+:(\d+)", banner)
            assert match, f"no banner: {banner!r}"
            yield proc, int(match.group(1))
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()

    def test_submit_twice_second_is_cached(self, capsys, live_server):
        proc, port = live_server
        argv = ["submit", "--workload", "small", "--vms", "5",
                "--iterations", "40", "--port", str(port), "--show-stats"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "CAST++ plan for small-16" in first
        assert "cache hits=0" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "served from cache" in second
        assert "cache hits=1" in second
        # Identical rendering of the plan itself either way.
        assert first.splitlines()[0] == second.splitlines()[0]
        assert first.splitlines()[1] == second.splitlines()[1]

    def test_serve_exits_130_on_sigint(self, live_server):
        import signal

        proc, _port = live_server
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=30) == 130

    def test_submit_without_server_fails_cleanly(self, capsys):
        rc = main(["submit", "--workload", "small", "--port", "1",
                   "--iterations", "10"])
        assert rc == 2
        assert "no planner" in capsys.readouterr().err


class TestSessionReplay:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        import numpy as np

        from repro.session import save_trace
        from repro.workloads.io import job_to_dict, workload_to_dict
        from repro.workloads.swim import synthesize_small_workload

        base = synthesize_small_workload(
            n_jobs=8, rng=np.random.default_rng(11), name="replay"
        )
        arrivals = synthesize_small_workload(
            n_jobs=2, rng=np.random.default_rng(12), name="arr"
        )
        jobs = []
        for i, job in enumerate(arrivals.jobs):
            d = job_to_dict(job)
            d["job_id"] = f"arr-{i}"
            jobs.append(d)
        events = [
            {"kind": "add", "jobs": jobs},
            {"kind": "remove", "job_ids": [base.jobs[0].job_id]},
        ]
        path = tmp_path / "trace.json"
        save_trace(
            str(path),
            {
                "spec": workload_to_dict(base),
                "iterations": 200,
                "config": {"parity_check_every": 1},
            },
            events,
        )
        return str(path)

    def test_parser_defaults(self):
        args = build_parser().parse_args(["session", "--replay", "t.json"])
        assert args.replay == "t.json"
        assert args.iterations is None  # trace values win unless overridden
        assert args.out is None

    def test_replay_runs_and_summarizes(self, capsys, trace_path):
        assert main(["session", "--replay", trace_path]) == 0
        out = capsys.readouterr().out
        # open (full) + add (warm) + remove (warm), parity-checked.
        assert "replayed 2 events" in out
        assert "full: 1" in out and "warm: 2" in out
        assert "warm re-plan latency" in out
        assert "parity=ok" in out

    def test_replay_writes_results_json(self, capsys, tmp_path, trace_path):
        import json

        out_path = tmp_path / "replay.json"
        rc = main(["session", "--replay", trace_path, "--out", str(out_path)])
        assert rc == 0
        payload = json.loads(out_path.read_text())
        assert payload["modes"] == {"full": 1, "warm": 2}
        assert len(payload["replans"]) == 3
        assert all(r["parity_ok"] for r in payload["replans"])
        assert payload["summary"]["resident_jobs"] == 9
        assert "plan" not in payload["summary"]

    def test_removed_config_key_fails_cleanly(self, capsys, tmp_path):
        from repro.session import save_trace

        path = tmp_path / "old.json"
        save_trace(str(path), {"config": {"warm_temp_init": 0.1}}, [])
        rc = main(["session", "--replay", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "warm_temp_init" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_missing_trace_fails_cleanly(self, capsys, tmp_path):
        rc = main(["session", "--replay", str(tmp_path / "nope.json")])
        assert rc == 2
        assert capsys.readouterr().err


class TestOperationalParsers:
    def test_top_defaults(self):
        args = build_parser().parse_args(["top"])
        assert args.port == DEFAULT_SERVICE_PORT
        assert args.interval == 2.0
        assert not args.once
        assert not args.fleet
        assert not args.no_color

    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile"])
        assert args.duration == 1.0
        assert args.interval == 0.005
        assert args.out is None

    def test_debug_dump_defaults(self):
        args = build_parser().parse_args(["debug-dump", "--out", "b.jsonl"])
        assert args.port == DEFAULT_SERVICE_PORT
        assert args.out == "b.jsonl"

    def test_serve_and_fleet_take_dump_dir(self):
        assert build_parser().parse_args(
            ["serve", "--dump-dir", "/tmp/dumps"]).dump_dir == "/tmp/dumps"
        assert build_parser().parse_args(
            ["fleet", "--dump-dir", "/tmp/dumps"]).dump_dir == "/tmp/dumps"

    def test_cast_error_trace_id_printed(self, capsys, monkeypatch):
        """Errors relayed from a daemon carry a trace id; main() prints
        it so the failure can be chased in a debug dump."""
        import repro.cli as cli_mod

        def failing(args):
            exc = CastError("shard said no")
            exc.trace_id = "abcdef0123456789abcdef0123456789"
            raise exc

        monkeypatch.setattr(cli_mod, "_cmd_catalog", failing)
        assert main(["catalog"]) == 2
        err = capsys.readouterr().err
        assert "shard said no" in err
        assert "[trace abcdef012345]" in err


class TestOperationalCommands:
    """top/profile/debug-dump against a live daemon subprocess."""

    @pytest.fixture()
    def live_server(self):
        import os
        import re
        import signal
        import subprocess
        import sys

        env = dict(os.environ)
        src = str(__import__("pathlib").Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--pool-processes", "0", "--restarts", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"listening on [\d.]+:(\d+)", banner)
            assert match, f"no banner: {banner!r}"
            yield proc, int(match.group(1))
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()

    def test_top_once_renders_a_frame(self, capsys, live_server):
        _proc, port = live_server
        assert main(["submit", "--workload", "small", "--vms", "5",
                     "--iterations", "20", "--port", str(port)]) == 0
        capsys.readouterr()
        assert main(["top", "--once", "--port", str(port)]) == 0
        frame = capsys.readouterr().out
        assert f"cast-plan top — 127.0.0.1:{port}" in frame
        assert "SLO" in frame
        assert "Latency by op (ms)" in frame
        assert "plan" in frame
        # --once goes to stdout pipes: never ANSI-colored.
        assert "\x1b[" not in frame

    def test_profile_prints_subsystem_table(self, capsys, live_server,
                                            tmp_path):
        _proc, port = live_server
        out = str(tmp_path / "profile.folded")
        assert main(["profile", "--port", str(port),
                     "--duration", "0.2", "--out", out]) == 0
        text = capsys.readouterr().out
        assert "sampled" in text
        assert "subsystem" in text
        import os
        assert os.path.exists(out)

    def test_debug_dump_writes_a_loadable_bundle(self, capsys, live_server,
                                                 tmp_path):
        from repro.obs.flightrec import load_bundle

        _proc, port = live_server
        path = str(tmp_path / "bundle.jsonl")
        assert main(["debug-dump", "--port", str(port), "--out", path]) == 0
        out = capsys.readouterr().out
        assert f"wrote {path}" in out
        bundle = load_bundle(path)
        assert bundle["meta"]["reason"] == "cli"
        assert bundle["config"]["role"] == "server"

    def test_submit_error_prints_trace_id(self, capsys, live_server):
        _proc, port = live_server
        rc = main(["submit", "--workload", "small", "--vms", "0",
                   "--iterations", "10", "--port", str(port)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "at least one VM" in err
        assert "[trace " in err

    def test_top_without_server_fails_cleanly(self, capsys):
        rc = main(["top", "--once", "--port", "1"])
        assert rc == 2
        assert "no planner" in capsys.readouterr().err
