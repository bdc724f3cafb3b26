"""`repro.obs` — zero-cost-when-disabled observability for the whole stack.

Three layers, all defaulting to disabled no-ops:

* :mod:`repro.obs.tracer` — hierarchical span tracing
  (``inference → layer → phase-op`` in the GNNIE executor,
  ``sweep → cell`` in the fleet runner), carrying both host wall time and
  modeled attribution (cycles / MACs / DRAM bytes / energy);
* :mod:`repro.obs.metrics` — a counter/gauge registry fed by the GNNIE
  executor's cache simulations, the sweep runner and the tune loop;
* :mod:`repro.obs.export` — Chrome-trace/Perfetto JSON (validated by
  :mod:`repro.obs.schema`), metrics JSON/CSV dumps and flame-style tables.

Surfaced by ``repro profile`` and the ``--trace`` flag on
``repro sweep`` / ``repro tune``.
"""

from repro.obs.export import (
    chrome_trace_document,
    chrome_trace_events,
    flame_rows,
    metrics_to_csv,
    metrics_to_json,
    write_chrome_trace,
)
from repro.obs.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    MetricsRegistry,
    NullMetricsRegistry,
)
from repro.obs.schema import assert_valid_chrome_trace, validate_chrome_trace
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, SpanRecord, Tracer

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "SpanRecord",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "Counter",
    "Gauge",
    "chrome_trace_events",
    "chrome_trace_document",
    "write_chrome_trace",
    "metrics_to_json",
    "metrics_to_csv",
    "flame_rows",
    "validate_chrome_trace",
    "assert_valid_chrome_trace",
]
