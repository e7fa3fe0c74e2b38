"""Replay harness: trace determinism, stats, naive baseline, CLI round trips."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.serve import (
    ReconstructionServer,
    RequestTrace,
    ServerConfig,
    naive_throughput,
    replay,
    synthetic_trace,
)


@pytest.fixture
def keys(serve_registry):
    return serve_registry.keys()


class TestSyntheticTrace:
    def test_deterministic_for_a_seed(self, keys):
        a = synthetic_trace(keys, 500, seed=7)
        b = synthetic_trace(keys, 500, seed=7)
        assert a.key_idx.tobytes() == b.key_idx.tobytes()
        assert a.tenant_idx.tobytes() == b.tenant_idx.tobytes()
        c = synthetic_trace(keys, 500, seed=8)
        assert a.key_idx.tobytes() != c.key_idx.tobytes()

    def test_zipf_skew_concentrates_on_a_hot_key(self, keys):
        trace = synthetic_trace(keys, 2000, seed=0, skew=1.5)
        counts = np.bincount(trace.key_idx, minlength=len(keys))
        assert counts.max() > trace.num_requests // 2  # one hot key dominates
        assert (counts > 0).all()  # but the tail is still exercised

    def test_chunk_fraction_and_deadline_columns(self, keys):
        trace = synthetic_trace(keys, 1000, seed=0, chunk_fraction=0.25, deadline=9.0)
        frac = trace.kinds.mean()
        assert 0.15 < frac < 0.35
        req = trace.request(int(np.argmax(trace.kinds)))
        assert req.kind == "chunk"
        assert req.deadline == 9.0

    def test_validation(self, keys):
        with pytest.raises(ValueError, match="at least one key"):
            synthetic_trace([], 10)
        with pytest.raises(ValueError, match="num_requests"):
            synthetic_trace(keys, 0)
        with pytest.raises(ValueError, match="column"):
            RequestTrace(
                keys=list(keys),
                key_idx=np.zeros(3, dtype=np.int32),
                tenants=["default"],
                tenant_idx=np.zeros(2, dtype=np.int32),
                kinds=np.zeros(3, dtype=np.uint8),
                chunks=np.zeros(3, dtype=np.int32),
                deadlines=np.full(3, np.nan),
            )

    def test_save_load_round_trip(self, keys, tmp_path):
        trace = synthetic_trace(keys, 300, tenants=("a", "b"), seed=3, chunk_fraction=0.1)
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = RequestTrace.load(path)
        assert loaded.keys == trace.keys
        assert loaded.tenants == trace.tenants
        assert loaded.key_idx.tobytes() == trace.key_idx.tobytes()
        assert loaded.kinds.tobytes() == trace.kinds.tobytes()
        for i in (0, 150, 299):
            assert loaded.request(i) == trace.request(i)


class TestReplay:
    def test_replay_reports_sane_stats(self, serve_registry, keys):
        trace = synthetic_trace(keys, 3000, tenants=("a", "b"), seed=1)
        with ReconstructionServer(serve_registry) as server:
            stats = replay(server, trace)
        assert stats.requests == 3000
        assert stats.statuses == {"ok": 3000}
        assert stats.rps > 0
        assert 0 <= stats.p50_ms <= stats.p99_ms
        assert stats.cache_hit_rate > 0.9  # 3 keys, 16 slots: nearly all hits
        assert stats.server["requests"] == 3000
        payload = stats.to_dict()
        json.dumps(payload)  # JSON-serializable end to end
        assert payload["requests"] == 3000

    def test_each_request_is_counted_once(self, serve_registry, keys):
        """One result slot per namespace: results land while tickets for
        their keys are queued, and those tickets stay misses."""
        from repro.obs import counter
        from repro.obs.metrics import MetricsRegistry, activate, deactivate

        trace = synthetic_trace(keys, 3000, tenants=("a", "b"), seed=1)
        previous = activate(MetricsRegistry())
        try:
            config = ServerConfig(cache_slots=1)
            with ReconstructionServer(serve_registry, config) as server:
                stats = replay(server, trace)
            outcomes = ("hits", "misses", "throttled", "rejected")
            n = stats.server
            assert sum(n[name] for name in outcomes) == n["requests"] == 3000
            assert sum(
                counter(f"serve.cache.{name}").value for name in ("hits", "misses")
            ) == 3000
        finally:
            deactivate(previous)

    def test_replay_validates_in_flight_window(self, serve_registry, keys):
        trace = synthetic_trace(keys, 10)
        with ReconstructionServer(serve_registry) as server:
            with pytest.raises(ValueError, match="max_in_flight"):
                replay(server, trace, max_in_flight=0)

    def test_naive_throughput_baseline(self, serve_registry, keys):
        trace = synthetic_trace(keys, 50, seed=0)
        rps, duration = naive_throughput(serve_registry, trace, limit=20)
        assert rps > 0
        assert duration > 0
        with pytest.raises(ValueError, match="at least one"):
            naive_throughput(serve_registry, trace, limit=0)


class TestCli:
    @pytest.fixture(scope="class")
    def built(self, tmp_path_factory):
        """A registry built through the real CLI entry point."""
        from repro.cli import main

        root = tmp_path_factory.mktemp("cli-registry") / "reg"
        rc = main(
            [
                "serve", "build", str(root),
                "--dims", "10", "10", "5",
                "--fraction", "0.06",
                "--timesteps", "0", "1",
                "--epochs", "4",
                "--finetune-epochs", "2",
                "--hidden", "12", "6",
                "--fractions", "0.03", "0.06",
            ]
        )
        assert rc == 0
        return root

    def test_serve_ls(self, built, capsys):
        from repro.cli import main

        assert main(["serve", "ls", str(built)]) == 0
        out = capsys.readouterr().out
        assert "combustion-f0.060000" in out
        assert "timesteps=[0, 1]" in out

    def test_replay_reports_json(self, built, tmp_path, capsys):
        from repro.cli import main

        report = tmp_path / "stats.json"
        rc = main(
            [
                "replay", str(built),
                "--requests", "500",
                "--report", str(report),
            ]
        )
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        saved = json.loads(report.read_text())
        assert printed == saved
        assert saved["requests"] == 500
        assert saved["statuses"] == {"ok": 500}

    def test_replay_record_then_trace(self, built, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "trace.npz"
        rc = main(
            [
                "replay", str(built),
                "--requests", "200",
                "--record", str(trace_path),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        rc = main(["replay", str(built), "--trace", str(trace_path)])
        assert rc == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["requests"] == 200

    def test_replay_cache_slots_reach_the_server(self, built, capsys):
        from repro.cli import main

        rc = main(["replay", str(built), "--requests", "300", "--cache-slots", "1"])
        assert rc == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["requests"] == 300
        assert stats["server"]["config"] == {"cache_slots": 1}

    @pytest.mark.parametrize(
        "flag",
        [["--max-batch", "8"], ["--no-batching"], ["--transport", "local"]],
        ids=["max-batch", "no-batching", "transport"],
    )
    def test_removed_flags_are_usage_errors(self, built, flag, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["replay", str(built), "--requests", "10", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_replay_obs_telemetry(self, built, tmp_path, capsys):
        from repro.cli import main
        from repro.obs import load_run

        obs_dir = tmp_path / "obs-run"
        rc = main(
            [
                "replay", str(built),
                "--requests", "300",
                "--obs", str(obs_dir),
            ]
        )
        assert rc == 0
        record = load_run(obs_dir)
        metrics = record.metrics
        assert metrics["counters"]["serve.requests"] == 300
        assert "serve.latency_ms" in metrics["histograms"]
        span_names = {e.get("name") for e in record.events if e.get("kind") == "span_open"}
        assert "serve.batch" in span_names

    def test_empty_registry_is_an_error(self, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "registry.json").write_text(
            json.dumps({"schema": 1, "namespaces": {}})
        )
        assert main(["replay", str(tmp_path)]) == 1
        assert "no keys" in capsys.readouterr().err
