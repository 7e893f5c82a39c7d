"""``repro.obs`` — the unified instrumentation layer.

Three cooperating pieces:

* :class:`MetricsRegistry` (:mod:`repro.obs.registry`) — always-on
  counters/gauges/histograms with labeled children.  The scheduler,
  the cache replay and the bus publish here; the service's
  ``/metrics`` endpoint and the CLI's ``--metrics-out`` dump it.
* span timers (:mod:`repro.obs.spans`) — nested wall-clock timers the
  pipeline stages run under.
* the event recorder (:mod:`repro.obs.recorder`) — **off by
  default**.  ``enable_tracing()`` swaps the no-op
  :data:`NULL_RECORDER` for an :class:`EventRecorder` that captures
  per-node busy/stall spans, distributor blocking and FIFO occupancy
  from the timing models, exportable as Chrome ``chrome://tracing`` JSON
  (``--trace-out``).  Simulation results are bit-identical with the
  recorder on or off; with it off, instrumented sites cost one
  ``is not None``/attribute check.

Typical use::

    from repro import obs

    rec = obs.enable_tracing()
    ...run experiments...
    rec.write_chrome_trace("trace.json")
    print(obs.registry().snapshot())
    obs.disable_tracing()
"""

from __future__ import annotations

from repro.obs.recorder import (
    NULL_RECORDER,
    EventRecorder,
    NullRecorder,
    disable_tracing,
    enable_tracing,
    recorder,
    set_recorder,
    tracing_enabled,
)
from repro.obs.registry import (
    DEFAULT_SIZE_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry,
)
from repro.obs.spans import Span, current_span, span

__all__ = [
    "DEFAULT_SIZE_BUCKETS",
    "DEFAULT_TIME_BUCKETS",
    "Counter",
    "EventRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NullRecorder",
    "Span",
    "current_span",
    "disable_tracing",
    "enable_tracing",
    "recorder",
    "registry",
    "reset",
    "set_recorder",
    "span",
    "tracing_enabled",
]


def reset() -> None:
    """Test hook: drop all metrics and disable tracing."""
    registry().reset()
    disable_tracing()
