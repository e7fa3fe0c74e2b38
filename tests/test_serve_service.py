"""ReconstructionServer: coalescing, stacking, backpressure, streaming."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import (
    ModelKey,
    ReconstructionServer,
    ServeError,
    ServeRequest,
    ServerConfig,
    StaleResultError,
    TokenBucket,
)


@pytest.fixture
def keys(serve_registry):
    return serve_registry.keys()


def make_server(registry, **overrides) -> ReconstructionServer:
    defaults = dict(transport="local")
    defaults.update(overrides)
    return ReconstructionServer(registry, ServerConfig(**defaults))


class TestBasics:
    def test_serve_full_field_and_chunks(self, serve_registry, keys):
        with make_server(serve_registry) as server:
            field = server.serve(ServeRequest(key=keys[0]), timeout=60)
            ns = serve_registry.namespace(keys[0].dataset, keys[0].fraction)
            assert field.values.shape == (ns.geometry.num_samples,)
            assert field.predictions.shape == (ns.geometry.num_voids,)
            volume = field.assemble()
            assert volume.shape == ns.grid.dims
            # streamed chunks tile the predictions exactly
            streamed = np.concatenate([block for _, _, block in field.chunks()])
            assert streamed.tobytes() == field.predictions.tobytes()

    def test_chunk_request(self, serve_registry, keys):
        with make_server(serve_registry) as server:
            chunk = server.serve(ServeRequest(key=keys[0], kind="chunk", chunk=0), timeout=60)
            field = server.serve(ServeRequest(key=keys[0]), timeout=60)
            assert chunk.array().tobytes() == field.predictions[chunk.start:chunk.stop].tobytes()

    def test_served_bits_match_offline_campaign_sink(self, serve_registry, keys):
        """Acceptance: served output == the run_campaign reconstruct path."""
        from repro.perf.campaign import make_reconstruction_sink

        ns = serve_registry.namespace(keys[0].dataset, keys[0].fraction)
        sink = make_reconstruction_sink(
            ns.geometry, {"fcnn": ns.base.clone()}, warm_pool=False
        )
        try:
            with make_server(serve_registry) as server:
                for key in keys:
                    weights, values = serve_registry.hot(key)
                    slot = sink.publish(key.timestep, values, {"fcnn": weights})
                    offline, _ = sink.reconstruct(slot, "fcnn")
                    served = server.serve(ServeRequest(key=key), timeout=60)
                    assert served.assemble().tobytes() == offline.tobytes()
        finally:
            sink.close()

    def test_unknown_key_errors_the_ticket(self, serve_registry):
        with make_server(serve_registry) as server:
            ticket = server.submit(ServeRequest(key=ModelKey("nope", 0.5, 0)))
            with pytest.raises(KeyError):
                ticket.result(timeout=60)
            assert ticket.status == "error"

    def test_unknown_timestep_errors_only_that_key(self, serve_registry, keys):
        with make_server(serve_registry) as server:
            bad = server.submit(ServeRequest(key=ModelKey("combustion", 0.06, 99)))
            good = server.submit(ServeRequest(key=keys[0]))
            assert good.result(timeout=60) is not None
            with pytest.raises(KeyError):
                bad.result(timeout=60)

    def test_invalid_chunk_index_errors(self, serve_registry, keys):
        with make_server(serve_registry) as server:
            ticket = server.submit(ServeRequest(key=keys[0], kind="chunk", chunk=99))
            with pytest.raises(IndexError):
                ticket.result(timeout=60)

    def test_invalid_kind_rejected_at_construction(self, keys):
        with pytest.raises(ValueError, match="kind"):
            ServeRequest(key=keys[0], kind="firehose")


class TestCoalescingAndStacking:
    def test_same_key_requests_coalesce_into_one_eval(self, serve_registry, keys):
        with make_server(serve_registry, batch_window=0.25) as server:
            tickets = [server.submit(ServeRequest(key=keys[0])) for _ in range(6)]
            for ticket in tickets:
                assert ticket.result(timeout=60) is not None
            stats = server.stats()
            assert stats["evals"] == 1
            assert stats["coalesced"] == 5

    def test_distinct_timesteps_stack_into_one_fused_eval(self, serve_registry, keys):
        with make_server(serve_registry, batch_window=0.25) as server:
            tickets = [server.submit(ServeRequest(key=key)) for key in keys]
            for ticket in tickets:
                assert ticket.result(timeout=60) is not None
            stats = server.stats()
            assert stats["evals"] == 1
            assert stats["mean_stack_k"] == len(keys)

    def test_max_batch_splits_oversized_stacks(self, serve_registry, keys):
        with make_server(serve_registry, batch_window=0.25, max_batch=2) as server:
            tickets = [server.submit(ServeRequest(key=key)) for key in keys]
            for ticket in tickets:
                ticket.result(timeout=60)
            assert server.stats()["evals"] == 2  # 3 keys -> stacks of 2 + 1

    def test_cache_hits_complete_synchronously(self, serve_registry, keys):
        with make_server(serve_registry) as server:
            server.serve(ServeRequest(key=keys[0]), timeout=60)
            ticket = server.submit(ServeRequest(key=keys[0]))
            assert ticket.done()  # no queue round-trip
            assert ticket.status == "ok"
            assert server.stats()["hits"] == 1


class TestBackpressure:
    def test_token_bucket(self):
        clock = [0.0]
        bucket = TokenBucket(rate=1.0, burst=2, clock=lambda: clock[0])
        assert bucket.try_take() and bucket.try_take()
        assert not bucket.try_take()  # burst exhausted
        clock[0] += 1.0
        assert bucket.try_take()  # refilled at 1 token/s

    def test_tenant_throttling(self, serve_registry, keys):
        with make_server(
            serve_registry, tenant_rate=0.001, tenant_burst=1
        ) as server:
            first = server.submit(ServeRequest(key=keys[0], tenant="alice"))
            second = server.submit(ServeRequest(key=keys[0], tenant="alice"))
            other = server.submit(ServeRequest(key=keys[0], tenant="bob"))
            assert second.status == "throttled"
            with pytest.raises(ServeError, match="throttled"):
                second.result()
            assert first.result(timeout=60) is not None
            assert other.result(timeout=60) is not None  # per-tenant buckets

    def test_queue_bound_rejects(self, serve_registry, keys):
        with make_server(serve_registry, max_queue=1, batch_window=0.5) as server:
            tickets = [server.submit(ServeRequest(key=key)) for key in keys]
            statuses = sorted(t.status for t in tickets)
            assert "rejected" in statuses
            for ticket in tickets:
                if ticket.status != "rejected":
                    ticket.wait(60)

    def test_deadline_shedding(self, serve_registry, keys):
        with make_server(serve_registry, batch_window=0.4) as server:
            doomed = server.submit(ServeRequest(key=keys[0], deadline=0.01))
            patient = server.submit(ServeRequest(key=keys[1], deadline=60.0))
            assert patient.result(timeout=60) is not None
            doomed.wait(60)
            assert doomed.status == "shed"
            with pytest.raises(ServeError, match="shed"):
                doomed.result()
            assert server.stats()["shed"] == 1


class TestResultRing:
    def test_slot_recycling_raises_stale(self, serve_registry, keys):
        with make_server(serve_registry, cache_slots=1) as server:
            first = server.serve(ServeRequest(key=keys[0]), timeout=60)
            first.predictions  # valid while the slot is live
            server.serve(ServeRequest(key=keys[1]), timeout=60)  # recycles the slot
            with pytest.raises(StaleResultError):
                first.predictions
            with pytest.raises(StaleResultError):
                list(first.chunks())
            # re-requesting re-materializes the same bits
            again = server.serve(ServeRequest(key=keys[0]), timeout=60)
            assert again.predictions.shape[0] > 0

    def test_shm_transport_when_available(self, serve_registry, keys):
        import os

        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm")
        with make_server(serve_registry, transport="shm") as server:
            field = server.serve(ServeRequest(key=keys[0]), timeout=60)
            assert np.isfinite(field.predictions).all()
            assert server.stats()["transports"] == {keys[0].namespace_id: "shm"}

    def test_local_and_shm_transports_agree_bitwise(self, serve_registry, keys):
        import os

        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm")
        with make_server(serve_registry, transport="local") as server:
            local = server.serve(ServeRequest(key=keys[0]), timeout=60).assemble()
        with make_server(serve_registry, transport="shm") as server:
            shm = server.serve(ServeRequest(key=keys[0]), timeout=60).assemble()
        assert local.tobytes() == shm.tobytes()


class TestLifecycle:
    def test_close_drains_pending_tickets(self, serve_registry, keys):
        server = make_server(serve_registry, batch_window=0.2)
        tickets = [server.submit(ServeRequest(key=key)) for key in keys]
        server.close()
        for ticket in tickets:
            assert ticket.done()

    def test_submit_after_close_raises(self, serve_registry, keys):
        server = make_server(serve_registry)
        server.close()
        with pytest.raises(ServeError, match="closed"):
            server.submit(ServeRequest(key=keys[0]))

    def test_close_is_idempotent(self, serve_registry):
        server = make_server(serve_registry)
        server.close()
        server.close()

    def test_close_releases_engine_arenas(self, serve_registry, keys):
        server = make_server(serve_registry)
        field = server.serve(ServeRequest(key=keys[0]), timeout=60)
        volume = field.assemble()
        engine = server._namespaces[keys[0].namespace_id].engine
        assert engine._ws.nbytes > 0
        server.close()
        assert engine._ws.nbytes == 0
        # a response taken before close still assembles to the same bytes
        assert field.assemble().tobytes() == volume.tobytes()

    def test_ticket_latency_recorded(self, serve_registry, keys):
        with make_server(serve_registry) as server:
            ticket = server.submit(ServeRequest(key=keys[0]))
            ticket.result(timeout=60)
            assert ticket.latency is not None
            assert ticket.latency >= 0.0
