"""``/metrics`` content negotiation + the Prometheus text exposition.

Unit-level: :func:`to_prometheus` over both snapshot shapes the repo
produces.  End-to-end: the HTTP server's ``?format=`` negotiation —
JSON by default, Prometheus 0.0.4 on request, and a 400 naming the
supported formats on anything else.
"""

from __future__ import annotations

import asyncio

from repro.obs.live import LiveRegistry, TableSyncState
from repro.obs.metrics import Histogram, to_prometheus
from repro.serve import HTTPServer, QueryService, ServeConfig, http_request


def config(**overrides) -> ServeConfig:
    base = dict(
        seconds_per_minute=0.01, num_templates=6, ga_generations=5, seed=11,
    )
    base.update(overrides)
    return ServeConfig(**base)


async def _with_server(cfg, body):
    service = QueryService(cfg)
    server = HTTPServer(service, port=0)
    await server.start()
    try:
        host, port = server.address
        await body(service, host, port)
    finally:
        await server.stop()
    return service


class TestPrometheusExposition:
    def test_counters_and_gauges_render_with_types(self):
        text = to_prometheus({
            "counters": {"query.completed": 3.0},
            "gauges": {"sync.staleness.mean": 1.5},
        })
        assert "# TYPE repro_query_completed counter" in text
        assert "repro_query_completed 3" in text
        assert "# TYPE repro_sync_staleness_mean gauge" in text
        assert "repro_sync_staleness_mean 1.5" in text
        assert text.endswith("\n")

    def test_histogram_renders_cumulative_buckets(self):
        hist = Histogram("query.cl.hist", bounds=(1.0, 2.0))
        for value in (0.5, 1.5, 1.7, 5.0):
            hist.observe(value)
        text = to_prometheus({"histograms": {hist.name: hist.snapshot()}})
        assert "# TYPE repro_query_cl_hist histogram" in text
        assert 'repro_query_cl_hist_bucket{le="1"} 1' in text
        # Cumulative: the le="2" bucket includes everything below it.
        assert 'repro_query_cl_hist_bucket{le="2"} 3' in text
        assert 'repro_query_cl_hist_bucket{le="+Inf"} 4' in text
        assert "repro_query_cl_hist_count 4" in text
        assert "repro_query_cl_hist_sum 8.7" in text

    def test_live_snapshot_rates_quantiles_and_table_labels(self):
        registry = LiveRegistry()
        table = TableSyncState(half_life=10.0)
        table.apply(now=4.0, at=3.0, gap=1.0)
        registry._tables["orders"] = table
        registry.now = 5.0
        text = to_prometheus(registry.snapshot())
        assert "# TYPE repro_time gauge" in text
        assert "# TYPE repro_query_arrivals_ewma gauge" in text
        assert "# TYPE repro_query_cl_p95 gauge" in text
        assert 'repro_sync_table_staleness{table="orders"} 2' in text

    def test_custom_prefix_and_name_sanitization(self):
        text = to_prometheus({"counters": {"mqo.shed": 1.0}}, prefix="dss")
        assert "dss_mqo_shed 1" in text
        assert "." not in text.split()[-2]


class TestMetricsContentNegotiation:
    def test_default_and_explicit_json(self):
        async def body(service, host, port):
            status, payload = await http_request(host, port, "GET", "/metrics")
            assert status == 200
            assert "counters" in payload
            status, explicit = await http_request(
                host, port, "GET", "/metrics?format=json"
            )
            assert status == 200
            assert explicit.keys() == payload.keys()

        asyncio.run(_with_server(config(), body))

    def test_prometheus_format_is_plain_text_with_types(self):
        async def body(service, host, port):
            await http_request(host, port, "POST", "/submit", {"template": 0})
            status, text = await http_request(
                host, port, "GET", "/metrics?format=prometheus"
            )
            assert status == 200
            assert isinstance(text, str)  # text/plain, not parsed JSON
            assert "# TYPE repro_query_submitted counter" in text
            assert "# TYPE repro_query_cl_hist histogram" in text

        asyncio.run(_with_server(config(), body))

    def test_unknown_format_is_a_400_naming_supported_formats(self):
        async def body(service, host, port):
            status, payload = await http_request(
                host, port, "GET", "/metrics?format=xml"
            )
            assert status == 400
            assert payload["supported"] == list(HTTPServer.METRICS_FORMATS)
            assert "xml" in payload["error"]

        asyncio.run(_with_server(config(), body))

    def test_other_query_params_are_ignored(self):
        async def body(service, host, port):
            status, payload = await http_request(
                host, port, "GET", "/metrics?verbose=1"
            )
            assert status == 200
            assert "counters" in payload

        asyncio.run(_with_server(config(), body))
