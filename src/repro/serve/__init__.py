"""The wall-clock serving runtime: live queries over HTTP.

Everything below :mod:`repro.serve` runs the *same* online-MQO machinery
as the simulations — :class:`~repro.mqo.online.OnlineSession` driven
through the :class:`~repro.sim.clocks.Clock` seam — but under real time
and a real network:

* :mod:`repro.serve.service` — :class:`QueryService`: the asyncio event
  loop popping a :class:`~repro.sim.clocks.WallClock`, admitting/shedding
  live submissions, tracing a checker-clean lifecycle with IV ledger
  entries, and recording the arrival trace for deterministic replay;
* :mod:`repro.serve.httpd` — a stdlib-only HTTP/1.1 front end
  (``/submit``, ``/result``, ``/metrics``, ``/status``, ``/shutdown``);
* :mod:`repro.serve.bench` — the concurrent load generator behind
  ``python -m repro serve-bench`` / ``serve-smoke`` and the committed
  ``BENCH_serve.json`` numbers.
"""

from repro import _lazy_exports

_EXPORTS = {
    "ServeConfig": "service",
    "QueryService": "service",
    "HTTPServer": "httpd",
    "http_request": "httpd",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
