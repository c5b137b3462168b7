"""Comparison approaches from Section 4.1 plus the IVQP router factory.

* **Federation** — no replicas at the DSS: every query is decomposed and
  executed at the remote servers, immediately.
* **Data Warehouse** — every base table has a local replica; queries are
  answered entirely from replicas, immediately, never contacting remote
  servers.
* **IVQP** — the paper's information value-driven router.
"""

from repro import _lazy_exports

_EXPORTS = {
    "FederationRouter": "federation",
    "ReplayRouter": "replay",
    "WarehouseRouter": "warehouse",
    "federation_router": "federation",
    "ivqp_router": "ivqp",
    "warehouse_router": "warehouse",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
