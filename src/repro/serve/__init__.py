"""``repro.serve`` — the HTTP serving sidecar over :class:`GraphCacheService`.

The ROADMAP's north star is a deployable, observable GC+ service; this
package is the network-facing front end every prior layer stopped short
of.  It is deliberately thin-dependency: the server is a stdlib
:class:`socketserver.ThreadingTCPServer` that reads HTTP/1.1 itself (one
read of the head, one write per response), the wire format is plain
JSON, and the metrics endpoint emits the Prometheus text exposition
format by hand — nothing to install, nothing to pin.

Layers:

* :mod:`repro.serve.wire` — the JSON wire codec: graphs, query results,
  explain receipts and mutation outcomes to/from plain dicts;
* :mod:`repro.serve.metrics` — Prometheus text rendering over the
  service's monotonic :meth:`~repro.api.GraphCacheService.counters`
  plus the server's own request/latency instrumentation;
* :mod:`repro.serve.server` — :class:`CacheServer`: the sidecar itself
  (``/query``, ``/query/batch``, ``/mutate``, ``/explain``,
  ``/healthz``, ``/readyz``, ``/metrics``) with a bounded
  :class:`~repro.api.ServiceSession` pool and graceful drain
  (stop accepting → finish in-flight → snapshot → close).

Entry point: ``python -m repro serve`` (see ``docs/serving.md``).
"""

from repro.serve.metrics import render_prometheus
from repro.serve.server import CacheServer, DrainReport
from repro.serve.wire import (
    WireError,
    graph_from_wire,
    graph_to_wire,
    plan_to_wire,
    result_to_wire,
)

__all__ = [
    "CacheServer",
    "DrainReport",
    "WireError",
    "graph_from_wire",
    "graph_to_wire",
    "plan_to_wire",
    "render_prometheus",
    "result_to_wire",
]
