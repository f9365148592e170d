"""Unified observability: span tracing, metrics, and trace exporters.

``repro.obs`` is the measurement substrate the rest of the reproduction
reports into — the paper's per-layer attribution method turned into a
first-class subsystem:

* :mod:`repro.obs.tracer` — nested, thread/process-safe spans and instant
  events, with a process-wide active tracer (:func:`install_tracer`) and a
  no-op fast path when tracing is off;
* :mod:`repro.obs.metrics` — counters, gauges and percentile histograms in
  picklable registries, aggregated process-wide by
  :func:`aggregate_metrics`;
* :mod:`repro.obs.export` — Chrome-trace JSON (``chrome://tracing`` /
  Perfetto), JSONL event logs, flat metrics JSON, plus the schema checker
  behind ``python -m repro.obs.check``.

The package is dependency-free and imports nothing from the rest of
``repro``, so every layer (simulator, pipeline, sweeps, CLI) can report
into it without cycles.  See ``docs/OBSERVABILITY.md`` for the tour.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "export": (
        "chrome_trace",
        "summarize_spans",
        "validate_chrome_trace",
        "write_chrome_trace",
        "write_jsonl",
        "write_metrics",
    ),
    "metrics": (
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "aggregate_metrics",
        "global_registry",
        "register_metrics_provider",
        "reset_global_registry",
    ),
    "tracer": (
        "Span",
        "TraceEvent",
        "Tracer",
        "active_tracer",
        "install_tracer",
        "span",
        "tracing_enabled",
        "uninstall_tracer",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
