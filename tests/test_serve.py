"""End-to-end tests: the wall-clock serving runtime over real sockets.

Every test spins up the full stack — :class:`QueryService` popping a
:class:`~repro.sim.clocks.WallClock` inside asyncio, fronted by the
stdlib HTTP server on an ephemeral port — and drives it through the
client helper, exactly the way ``python -m repro serve`` is used.  Stream
time is compressed (10 ms per stream minute) so the whole file runs in
seconds while exercising the same scheduling decisions as real time.
"""

from __future__ import annotations

import asyncio
import contextlib

import pytest

from repro.errors import WorkloadError
from repro.obs import events
from repro.serve import HTTPServer, QueryService, ServeConfig, http_request
from repro.serve.bench import ServeBenchConfig, percentile, serve_bench, serve_smoke


def verify_serve_journal(journal) -> dict:
    """:func:`~repro.durable.verify_journal` under the journal's config."""
    from repro.durable import verify_journal
    from repro.serve.service import build_serve_scheduler, journal_serve_config

    serve_config = journal_serve_config(journal)
    return verify_journal(
        journal, lambda: build_serve_scheduler(serve_config)[0]
    )


def config(**overrides) -> ServeConfig:
    base = dict(
        seconds_per_minute=0.01, num_templates=6, ga_generations=5, seed=11,
    )
    base.update(overrides)
    return ServeConfig(**base)


async def _with_server(cfg, body):
    """Start a service + server, run ``body(service, host, port)``, drain."""
    service = QueryService(cfg)
    server = HTTPServer(service, port=0)
    await server.start()
    try:
        host, port = server.address
        await body(service, host, port)
    finally:
        await server.stop()
    return service


class TestHTTPRoundTrips:
    def test_concurrent_submissions_complete_with_ledgers(self):
        async def body(service, host, port):
            responses = await asyncio.gather(*(
                http_request(host, port, "POST", "/submit", {"template": i % 6})
                for i in range(5)
            ))
            for status, payload in responses:
                assert status == 200
                assert payload["outcome"] == "completed"
                ledger = payload["ledger"]
                assert ledger["reported_iv"] == payload["iv"]
                assert ledger["completed_at"] == payload["completed_at"]

        service = asyncio.run(_with_server(config(), body))
        assert service.check_trace() == []
        assert len(service.results) == 5

    def test_submit_by_template_name(self):
        async def body(service, host, port):
            name = service.templates[0].name
            status, payload = await http_request(
                host, port, "POST", "/submit", {"template": name}
            )
            assert status == 200
            assert payload["query"] == name

        asyncio.run(_with_server(config(), body))

    def test_unknown_template_is_a_400(self):
        async def body(service, host, port):
            status, payload = await http_request(
                host, port, "POST", "/submit", {"template": "nope"}
            )
            assert status == 400 and "unknown template" in payload["error"]
            status, payload = await http_request(
                host, port, "POST", "/submit", {"template": 999}
            )
            assert status == 400 and "out of range" in payload["error"]

        asyncio.run(_with_server(config(), body))

    @pytest.mark.parametrize(
        "value", [1e999, "abc", [1]], ids=["inf", "string", "list"]
    )
    def test_non_finite_or_non_numeric_business_value_is_a_400(self, value):
        # 1e999 travels as the JSON token Infinity: admitting it answered
        # 200 with "iv": Infinity, which is not JSON; the other two raised
        # inside the handler and answered 500.
        async def body(service, host, port):
            status, payload = await http_request(
                host, port, "POST", "/submit",
                {"template": 0, "business_value": value},
            )
            assert status == 400 and "business_value" in payload["error"]
            assert service.arrival_log == []

        asyncio.run(_with_server(config(), body))

    def test_stalled_request_is_answered_408(self, monkeypatch):
        from repro.serve import httpd

        monkeypatch.setattr(httpd, "_READ_DEADLINE_SECONDS", 0.2)

        async def body(service, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(b"POST /submit HTTP/1.1\r\n")
                await writer.drain()
                raw = await asyncio.wait_for(reader.read(), timeout=3.0)
            finally:
                writer.close()
                await writer.wait_closed()
            assert raw.startswith(b"HTTP/1.1 408 ")

        asyncio.run(_with_server(config(), body))

    def test_connections_beyond_the_cap_are_answered_503(self, monkeypatch):
        from repro.serve import httpd

        monkeypatch.setattr(httpd, "_MAX_CONNECTIONS", 2, raising=False)

        async def exchange(host, port, request: bytes) -> bytes:
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(request)
                await writer.drain()
                return await asyncio.wait_for(reader.read(), timeout=3.0)
            finally:
                writer.close()
                await writer.wait_closed()

        async def body(service, host, port):
            stalled = []
            for _ in range(2):
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"GET /healthz HTTP/1.1\r\n")
                await writer.drain()
                stalled.append((reader, writer))
            await asyncio.sleep(0.1)  # let the server accept both
            raw = await exchange(
                host, port, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            head, _, payload = raw.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 503 "), raw
            assert b"\r\nRetry-After: 1\r\n" in head
            assert b"connections" in payload
            for reader, writer in stalled:
                writer.write_eof()
                raw = await asyncio.wait_for(reader.read(), timeout=3.0)
                assert raw.startswith(b"HTTP/1.1 400 ")
                writer.close()
                await writer.wait_closed()
            status, payload = await http_request(host, port, "GET", "/healthz")
            assert status == 200 and payload["ok"]

        asyncio.run(_with_server(config(), body))

    def test_fire_and_forget_then_result_endpoint(self):
        async def body(service, host, port):
            status, payload = await http_request(
                host, port, "POST", "/submit", {"template": 1, "wait": False}
            )
            assert status == 200 and payload["outcome"] in (
                "admitted", "deferred",
            )
            status, result = await http_request(
                host, port, "GET", f"/result/{payload['qid']}"
            )
            assert status == 200 and result["outcome"] == "completed"

        asyncio.run(_with_server(config(), body))

    def test_unknown_qid_is_a_404_and_bad_qid_a_400(self):
        async def body(service, host, port):
            status, _ = await http_request(host, port, "GET", "/result/123")
            assert status == 404
            status, _ = await http_request(host, port, "GET", "/result/abc")
            assert status == 400

        asyncio.run(_with_server(config(), body))

    def test_metrics_status_and_healthz(self):
        async def body(service, host, port):
            await http_request(host, port, "POST", "/submit", {"template": 0})
            status, metrics = await http_request(host, port, "GET", "/metrics")
            assert status == 200
            assert metrics["counters"]["query.submitted"] >= 1
            status, page = await http_request(host, port, "GET", "/status")
            assert status == 200 and "live status" in page
            status, health = await http_request(host, port, "GET", "/healthz")
            assert status == 200 and health["ok"] is True
            status, _ = await http_request(host, port, "GET", "/nope")
            assert status == 404

        asyncio.run(_with_server(config(), body))


async def _exchange(
    host: str, port: int, chunks: list[bytes], pause: float = 0.0,
    eof: bool = False,
) -> bytes:
    """Send ``chunks`` (``pause`` seconds apart), maybe half-close, and
    read the whole answer."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for chunk in chunks:
            writer.write(chunk)
            await writer.drain()
            if pause:
                await asyncio.sleep(pause)
        if eof:
            writer.write_eof()
        return await asyncio.wait_for(reader.read(), timeout=5.0)
    finally:
        writer.close()
        with contextlib.suppress(ConnectionError):
            await writer.wait_closed()


def _status(raw: bytes) -> int:
    return int(raw.split(b" ", 2)[1])


async def _with_http_server(cfg, body):
    """Like :func:`_with_server`, but ``body(server, host, port)``."""
    server = HTTPServer(QueryService(cfg), port=0)
    await server.start()
    try:
        await body(server, *server.address)
    finally:
        await server.stop()


class TestHostileInput:
    """Torn, slow-drip and lying requests on the protocol transport."""

    def test_a_head_dripped_one_byte_at_a_time_is_answered(self):
        payload = b'{"template": 2}'
        request = (
            b"POST /submit HTTP/1.1\r\nHost: x\r\nContent-Length: "
            + str(len(payload)).encode() + b"\r\n\r\n" + payload
        )

        async def body(service, host, port):
            raw = await _exchange(
                host, port, [request[i:i + 1] for i in range(len(request))],
                pause=0.002,
            )
            assert _status(raw) == 200, raw
            assert b'"ledger"' in raw
            assert len(service.arrival_log) == 1

        asyncio.run(_with_server(config(), body))

    def test_a_body_shorter_than_its_content_length_is_a_400(self):
        async def body(service, host, port):
            raw = await _exchange(host, port, [
                b"POST /submit HTTP/1.1\r\nContent-Length: 100\r\n\r\n",
                b'{"template": 0}',
            ], eof=True)
            assert _status(raw) == 400, raw
            assert service.arrival_log == []

        asyncio.run(_with_server(config(), body))

    @pytest.mark.parametrize("length", [b"-5", b"-0x10", b"abc", b"1e3", b"5 5"])
    def test_a_negative_or_non_numeric_content_length_is_a_400(self, length):
        async def body(service, host, port):
            raw = await _exchange(host, port, [
                b"POST /submit HTTP/1.1\r\nContent-Length: " + length
                + b"\r\n\r\n" + b'{"template": 0}',
            ])
            assert _status(raw) == 400, raw
            assert b'"error": "bad Content-Length' in raw
            assert service.arrival_log == []

        asyncio.run(_with_server(config(), body))

    @pytest.mark.parametrize("excess, status", [(0, 200), (1, 400), (4000, 400)])
    def test_a_head_over_16_kib_is_a_400(self, excess, status):
        from repro.serve import httpd

        start = b"GET /healthz HTTP/1.1\r\nX-Pad: "
        pad = httpd._MAX_HEAD_BYTES - len(start) - 4 + excess
        head = start + b"a" * pad + b"\r\n\r\n"

        async def body(service, host, port):
            raw = await _exchange(host, port, [head])
            assert _status(raw) == status, raw[:200]

        asyncio.run(_with_server(config(), body))

    def test_a_body_over_the_limit_is_a_400(self):
        async def body(service, host, port):
            raw = await _exchange(host, port, [
                b"POST /submit HTTP/1.1\r\nContent-Length: 65537\r\n\r\n",
            ])
            assert _status(raw) == 400 and b"too large" in raw

        asyncio.run(_with_server(config(), body))

    def test_aborted_clients_release_their_connection_slots(self, monkeypatch):
        from repro.serve import httpd

        monkeypatch.setattr(httpd, "_MAX_CONNECTIONS", 4)

        async def settled(server) -> None:
            for _ in range(200):
                if server._connections == 0:
                    return
                await asyncio.sleep(0.01)

        async def body(server, host, port):
            for batch in range(5):  # 20 clients, never more than the cap
                writers = []
                for _ in range(4):
                    _reader, writer = await asyncio.open_connection(host, port)
                    writer.write(b"POST /submit HTTP/1.1\r\nContent-Le")
                    await writer.drain()
                    writers.append(writer)
                await asyncio.sleep(0.05)
                assert server._connections == 4
                for index, writer in enumerate(writers):
                    if (batch + index) % 2:
                        writer.transport.abort()  # a reset
                    else:
                        writer.close()  # an orderly hang-up mid-request
                await settled(server)
                assert server._connections == 0
            status, payload = await http_request(host, port, "GET", "/healthz")
            assert status == 200 and payload["ok"]
            # The cap still admits four: each is answered, none refused.
            held = []
            for _ in range(4):
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"GET /healthz HTTP/1.1\r\n")
                await writer.drain()
                held.append((reader, writer))
            await asyncio.sleep(0.05)
            assert server._connections == 4
            for reader, writer in held:
                writer.write(b"Host: x\r\n\r\n")
                raw = await asyncio.wait_for(reader.read(), timeout=5.0)
                assert _status(raw) == 200, raw
                writer.close()
            await settled(server)
            assert server._connections == 0

        asyncio.run(_with_http_server(config(), body))


class TestAdmissionOverHTTP:
    def test_absurd_iv_floor_sheds_everything(self):
        async def body(service, host, port):
            status, payload = await http_request(
                host, port, "POST", "/submit", {"template": 0}
            )
            assert status == 200 and payload["outcome"] == "shed"

        service = asyncio.run(_with_server(config(iv_floor=1e9), body))
        # A shed query never enters the system: no lifecycle events, and
        # the trace still audits clean (no dangling submit).
        kinds = [record.kind for record in service.tracer.records]
        assert events.SUBMIT not in kinds
        assert events.MQO_SHED in kinds
        assert service.check_trace() == []

    def test_draining_service_refuses_submissions(self):
        async def body(service, host, port):
            service.begin_shutdown()
            status, payload = await http_request(
                host, port, "POST", "/submit", {"template": 0}
            )
            assert status == 503 and "draining" in payload["error"]
            with pytest.raises(WorkloadError):
                service.submit(0)

        asyncio.run(_with_server(config(), body))


class TestShutdownContracts:
    def test_drained_trace_is_checker_clean_and_replay_equal(self):
        async def body(service, host, port):
            await asyncio.gather(*(
                http_request(host, port, "POST", "/submit", {"template": i % 6})
                for i in range(4)
            ))

        service = asyncio.run(_with_server(config(), body))
        assert service.check_trace() == []
        assert service.replay().decisions == service.session.decisions

    def test_no_alert_dangles_open_after_shutdown(self):
        async def body(service, host, port):
            await http_request(host, port, "POST", "/submit", {"template": 0})

        service = asyncio.run(_with_server(config(), body))
        assert service.monitor is not None
        assert [a for a in service.monitor.alerts if a.open] == []


class TestDurabilityOverHTTP:
    async def _with_journaled_server(self, journal, body):
        service = QueryService(config(), journal=journal)
        server = HTTPServer(service, port=0)
        await server.start()
        try:
            host, port = server.address
            await body(service, host, port)
        finally:
            await server.stop()
        return service

    def test_checkpoint_endpoint_snapshots_the_journal(self, tmp_path):
        from repro.durable import read_journal

        journal = tmp_path / "serve.journal"

        async def body(service, host, port):
            await http_request(host, port, "POST", "/submit", {"template": 0})
            status, payload = await http_request(
                host, port, "POST", "/checkpoint"
            )
            assert status == 200
            assert payload["ok"] is True
            assert payload["pops"] > 0
            assert payload["journal_bytes"] >= payload["offset"]

        asyncio.run(self._with_journaled_server(journal, body))
        kinds = [p["kind"] for p, _ in read_journal(journal)]
        assert kinds[0] == "header"
        assert "snapshot" in kinds
        assert verify_serve_journal(journal)["ok"]

    def test_checkpoint_without_a_journal_is_a_400(self):
        async def body(service, host, port):
            status, payload = await http_request(
                host, port, "POST", "/checkpoint"
            )
            assert status == 400
            assert "journal" in payload["error"]

        asyncio.run(_with_server(config(), body))

    def test_shutdown_with_in_flight_submit_journals_then_resolves(
        self, tmp_path
    ):
        # A submission accepted before the drain began must resolve its
        # futures *and* leave a durable arrival record — never be dropped
        # on the floor because shutdown raced it.
        from repro.durable import read_journal

        journal = tmp_path / "serve.journal"

        async def body(service, host, port):
            task = asyncio.create_task(http_request(
                host, port, "POST", "/submit", {"template": 0}
            ))
            while not service.arrival_log:  # accepted + journaled
                await asyncio.sleep(0.001)
            service.begin_shutdown()
            status, payload = await task
            assert status == 200
            assert "outcome" in payload or "qid" in payload

        service = asyncio.run(self._with_journaled_server(journal, body))
        assert service.check_trace() == []
        records = [p for p, _ in read_journal(journal)]
        kinds = [p["kind"] for p in records]
        assert kinds.count("arrival") == 1
        # begin_shutdown ran twice (test + server.stop); the journal must
        # still audit clean.
        assert verify_serve_journal(journal)["ok"]

    def test_resume_run_of_a_killed_serve_journal_terminates(
        self, tmp_path, monkeypatch
    ):
        # A killed service journals nothing about its shutdown.  Finishing
        # its run must still end once nothing is pending, not tick on.
        from repro.durable import harness, recover, resume_run
        from repro.mqo.online import SessionObserver, drive
        from repro.serve.service import build_serve_scheduler

        journal = tmp_path / "serve.journal"

        async def killed_mid_flight():
            service = QueryService(config(), journal=journal)
            runner = asyncio.create_task(service.run())
            decisions = [service.submit(template)[1] for template in range(3)]
            await asyncio.gather(*decisions)
            runner.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await runner
            service._journal.close()  # what process exit would do

        asyncio.run(killed_mid_flight())

        class PopBudget(SessionObserver):
            pops = 0

            def before_pop(self, session, now, tag, payload):
                self.pops += 1
                if self.pops > 1000:
                    raise AssertionError("still popping after 1,000 events")

        budget = PopBudget()
        monkeypatch.setattr(
            harness, "drive",
            lambda session, clock, observers=(), **kwargs: drive(
                session, clock, [*observers, budget], **kwargs
            ),
        )
        recovered = recover(journal, build_serve_scheduler(config())[0])
        finished = resume_run(recovered)
        session = finished.session
        assert len(finished.ledgers) == session.stats.dispatched == 3
        assert not (session.queue or session.plan or session.deferred)
        assert not recovered.clock


class TestJournalHeader:
    def test_unknown_serve_config_key_is_named(self, tmp_path):
        # A hostile or newer header must not reach ServeConfig(**config)
        # as a bare TypeError: resume and resume-verify read it first.
        from dataclasses import asdict

        from repro.durable.journal import JournalWriter
        from repro.durable.recovery import header_record
        from repro.serve.service import journal_serve_config

        journal = tmp_path / "serve.journal"
        writer = JournalWriter(journal)
        writer.append(header_record({
            "driver": "serve",
            "serve_config": {**asdict(config()), "warp_factor": 9},
        }))
        writer.close()
        with pytest.raises(WorkloadError, match="warp_factor"):
            journal_serve_config(journal)


class TestShutdownEdges:
    def test_wallclock_stop_is_idempotent(self):
        from repro.sim.clocks import WallClock

        async def body():
            clock = WallClock(seconds_per_minute=0.01)
            clock.push(0.0, "tick", 1)
            clock.stop()
            clock.stop()  # second stop: no error, still draining
            assert await clock.wait_pop() == (0.0, "tick", 1)
            assert await clock.wait_pop() is None
            clock.stop()  # stop after drain is also safe
            assert await clock.wait_pop() is None

        asyncio.run(body())

    def test_begin_shutdown_is_idempotent_on_the_service(self):
        async def body(service, host, port):
            await http_request(host, port, "POST", "/submit", {"template": 0})
            service.begin_shutdown()
            service.begin_shutdown()
            assert not service.accepting

        # server.stop() shuts down a third time.
        service = asyncio.run(_with_server(config(), body))
        assert not service.accepting
        assert service.check_trace() == []
        assert service.replay().decisions == service.session.decisions


class TestIdleService:
    def test_idle_service_pops_and_journals_nothing(self, tmp_path):
        # Nothing pending means no window in the clock: an idle service
        # neither wakes nor writes.
        journal = tmp_path / "serve.journal"

        async def body():
            service = QueryService(config(), journal=journal)
            runner = asyncio.create_task(service.run())
            await service.submit(0)[2]
            # Let the window after the completion find nothing pending
            # (a ticking chain never empties the clock: 2 s bound).
            for _ in range(200):
                if not service.clock:
                    break
                await asyncio.sleep(0.01)
            before = (service.pops, journal.stat().st_size)
            await asyncio.sleep(0.5)
            after = (service.pops, journal.stat().st_size)
            scheduled = len(service.clock)
            service.begin_shutdown()
            await runner
            return before, after, scheduled

        before, after, scheduled = asyncio.run(body())
        assert after == before
        assert scheduled == 0
        assert verify_serve_journal(journal)["ok"]


class TestServeBenchHarness:
    def test_percentile_nearest_rank(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 0.0) == 10.0
        assert percentile(values, 0.5) == 30.0
        assert percentile(values, 1.0) == 40.0
        with pytest.raises(Exception):
            percentile([], 0.5)

    def test_smoke_passes(self):
        assert asyncio.run(serve_smoke()) == 0

    @pytest.mark.slow
    def test_bench_shape_matches_the_committed_snapshot(self):
        data = asyncio.run(serve_bench(ServeBenchConfig(
            baseline_queries=4, overload_queries=4,
        )))
        for phase in ("baseline", "overload"):
            for key in (
                "queries", "shed_rate", "qps", "iv_total",
                "latency_p50_ms", "latency_p95_ms", "latency_p99_ms",
            ):
                assert key in data[phase]
        assert data["trace"]["violations"] == 0
        assert data["trace"]["replay_equal"] is True
