"""ReconstructionServer: coalescing, backpressure, streaming, lifecycle."""

from __future__ import annotations

import threading

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


@pytest.fixture
def gate(monkeypatch):
    """Hold every new server's dispatcher until the test sets the event.

    Requests submitted meanwhile sit in the queue, so the dispatcher's
    first wake-up drains them together: batching without a sleep.
    """
    opened = threading.Event()
    run = ReconstructionServer._run

    def gated_run(self):
        opened.wait(60)  # bounded, so a test failing before set() cannot hang close()
        run(self)

    monkeypatch.setattr(ReconstructionServer, "_run", gated_run)
    yield opened
    opened.set()  # a failed test must not leave a dispatcher parked


def make_server(registry, **overrides) -> ReconstructionServer:
    return ReconstructionServer(registry, ServerConfig(**overrides))


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


class TestConfig:
    @pytest.mark.parametrize(
        "name, value", [("max_batch", 8), ("batch_window", 0.0), ("transport", "local")]
    )
    def test_removed_fields_are_rejected(self, name, value):
        with pytest.raises(TypeError):
            ServerConfig(**{name: value})

    @pytest.mark.parametrize(
        "name, value",
        [
            ("on_nonfinite", "bogus"),
            ("tenant_rate", 0),
            ("tenant_burst", 0),
            ("max_queue", 0),
            ("cache_slots", 0),
        ],
    )
    def test_invalid_values_raise_at_construction(self, name, value):
        with pytest.raises(ValueError, match=name):
            ServerConfig(**{name: value})


class TestCoalescingAndStacking:
    def test_same_key_requests_coalesce_into_one_eval(self, serve_registry, keys, gate):
        with make_server(serve_registry) as server:
            tickets = [server.submit(ServeRequest(key=keys[0])) for _ in range(6)]
            gate.set()
            for ticket in tickets:
                assert ticket.result(timeout=60) is not None
            stats = server.stats()
            assert stats["evals"] == 1
            assert stats["coalesced"] == 5

    def test_distinct_timesteps_share_one_evaluate_call(self, serve_registry, keys, gate):
        with make_server(serve_registry) as server:
            tickets = [server.submit(ServeRequest(key=key)) for key in keys]
            gate.set()
            for ticket in tickets:
                assert ticket.result(timeout=60) is not None
            stats = server.stats()
            assert stats["evals"] == 1
            assert stats["eval_members"] == len(keys)

    def test_cache_hits_complete_synchronously(self, serve_registry, keys):
        with make_server(serve_registry) as server:
            server.serve(ServeRequest(key=keys[0]), timeout=60)
            ticket = server.submit(ServeRequest(key=keys[0]))
            assert ticket.done()  # no queue round-trip
            assert ticket.status == "ok"
            assert server.stats()["hits"] == 1

    def test_a_queued_ticket_stays_a_miss(self, serve_registry, keys, monkeypatch):
        """The result for a queued ticket's key lands in the ring before the
        dispatcher reaches the ticket: it is answered from the ring, and
        counted once, as the miss it was at submit."""
        evaluating, release = threading.Event(), threading.Event()
        hot = serve_registry.hot

        def held_hot(key):
            evaluating.set()
            assert release.wait(60)
            return hot(key)

        monkeypatch.setattr(serve_registry, "hot", held_hot)
        with make_server(serve_registry) as server:
            first = server.submit(ServeRequest(key=keys[0]))
            assert evaluating.wait(60)
            second = server.submit(ServeRequest(key=keys[0]))  # not in the ring yet
            release.set()
            for ticket in (first, second):
                assert ticket.result(timeout=60) is not None
            stats = server.stats()
        assert (stats["requests"], stats["hits"], stats["misses"], stats["evals"]) == (2, 0, 2, 1)


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

    def test_queue_bound_rejects(self, serve_registry, keys, gate):
        with make_server(serve_registry, max_queue=1) as server:
            tickets = [server.submit(ServeRequest(key=key)) for key in keys]
            assert [t.status for t in tickets] == ["pending"] + ["rejected"] * (len(keys) - 1)
            gate.set()
            assert tickets[0].result(timeout=60) is not None

    def test_deadline_shedding(self, serve_registry, keys, gate):
        now = [0.0]
        with ReconstructionServer(serve_registry, clock=lambda: now[0]) as server:
            doomed = server.submit(ServeRequest(key=keys[0], deadline=0.01))
            patient = server.submit(ServeRequest(key=keys[1], deadline=60.0))
            now[0] = 1.0  # past the first deadline while both are queued
            gate.set()
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


class TestLifecycle:
    def test_close_drains_pending_tickets(self, serve_registry, keys, gate):
        server = make_server(serve_registry)
        tickets = [server.submit(ServeRequest(key=key)) for key in keys]
        closer = threading.Thread(target=server.close)
        closer.start()
        with server._cond:  # release the dispatcher only once close() has begun
            assert server._cond.wait_for(lambda: server._closed, timeout=60)
        gate.set()
        closer.join(60)
        assert not closer.is_alive()
        for ticket in tickets:
            assert ticket.status == "ok"

    def test_submit_racing_close_raises_instead_of_queueing(self, serve_registry, keys):
        """A request admitted while close() runs must not sit in the queue forever."""
        server = make_server(serve_registry, tenant_rate=1.0)

        class ClosingBucket:
            def try_take(self):
                server.close()  # lands between submit's first check and the queue
                return True

        server._buckets["racer"] = ClosingBucket()
        with pytest.raises(ServeError, match="closed"):
            server.submit(ServeRequest(key=keys[0], tenant="racer"))
        assert not server._queue

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
