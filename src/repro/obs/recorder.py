"""Event recorder for the timing models, with Chrome-trace export.

The recorder is the opt-in half of the observability layer.  When
enabled (``repro.obs.enable_tracing()`` or the CLI's ``--trace-out``),
the finite-FIFO machine (its distributor, triangle FIFOs and nodes),
the node timing model and the host pipeline stages feed it timestamped
records:

* **spans** — a named interval on a *track* (busy/stall per node,
  blocked time on the distributor, process lifetimes, host stages);
* **values** — a sampled series (FIFO occupancy at each store/take);
* **instants** — point events.

A track is a ``(process, thread)`` label pair — e.g. ``("sim",
"node-3")`` — which the Chrome exporter maps onto ``pid``/``tid``
integers plus the metadata events ``chrome://tracing`` uses to show
human names.  Sim timestamps are engine cycles written verbatim into
the trace's microsecond field; host timestamps are monotonic wall
microseconds on their own ``host`` process row.

When tracing is off the module-level :data:`NULL_RECORDER` stands in:
every method is a pass-through no-op, so instrumented code costs one
attribute check per event site and simulation results are bit-identical
either way.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Protocol, Tuple, Union

Track = Tuple[str, str]

#: The ``args`` payload attached to trace events.
EventArgs = Dict[str, object]


class RecorderLike(Protocol):
    """What instrumented code needs from a recorder.

    Both :class:`NullRecorder` and :class:`EventRecorder` satisfy this
    structurally; hot paths hold a ``RecorderLike`` (or ``None``) so the
    enabled/disabled decision is one attribute check, never an
    ``isinstance``.
    """

    @property
    def enabled(self) -> bool: ...

    def span(self, track: Track, name: str, start: float, end: float,
             args: Optional[EventArgs] = None) -> None: ...

    def instant(self, track: Track, name: str, ts: float,
                args: Optional[EventArgs] = None) -> None: ...

    def value(self, track: Track, name: str, ts: float, value: float) -> None: ...


class NullRecorder:
    """The disabled recorder: records nothing, costs (almost) nothing."""

    __slots__ = ()
    enabled = False

    def span(self, track: Track, name: str, start: float, end: float,
             args: Optional[EventArgs] = None) -> None:
        pass

    def instant(self, track: Track, name: str, ts: float,
                args: Optional[EventArgs] = None) -> None:
        pass

    def value(self, track: Track, name: str, ts: float, value: float) -> None:
        pass

    def __bool__(self) -> bool:
        return False


#: The shared disabled recorder (stateless, safe to reuse everywhere).
NULL_RECORDER = NullRecorder()


class EventRecorder:
    """Collects spans/values/instants and exports them.

    Events accumulate in Chrome trace-event form as they arrive (one
    dict append per event) while tiny running aggregates per
    ``(track, name)`` key make :meth:`summary` cheap afterwards.
    """

    enabled = True

    def __init__(self) -> None:
        self.events: List[Dict[str, object]] = []
        self._meta: List[Dict[str, object]] = []
        self._pids: Dict[str, int] = {}
        self._tids: Dict[Tuple[int, str], int] = {}
        # (track, name) -> [count, total_dur, max_dur, max_end]
        self._span_aggregates: Dict[Tuple[Track, str], List[float]] = {}
        # (track, name) -> list of sampled values
        self._value_samples: Dict[Tuple[Track, str], List[float]] = {}

    # -- track bookkeeping -------------------------------------------

    def _ids(self, track: Track) -> Tuple[int, int]:
        process, thread = track
        pid = self._pids.get(process)
        if pid is None:
            pid = len(self._pids) + 1
            self._pids[process] = pid
            self._meta.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "ts": 0, "args": {"name": process},
            })
        key = (pid, thread)
        tid = self._tids.get(key)
        if tid is None:
            tid = len(self._tids) + 1
            self._tids[key] = tid
            self._meta.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "ts": 0, "args": {"name": thread},
            })
        return pid, tid

    # -- recording ----------------------------------------------------

    def span(self, track: Track, name: str, start: float, end: float,
             args: Optional[EventArgs] = None) -> None:
        """Record a complete ``[start, end]`` interval on ``track``."""
        pid, tid = self._ids(track)
        duration = float(end) - float(start)
        event: Dict[str, object] = {
            "ph": "X", "name": name, "cat": track[0],
            "ts": float(start), "dur": duration,
            "pid": pid, "tid": tid,
        }
        if args:
            event["args"] = args
        self.events.append(event)
        aggregate = self._span_aggregates.get((track, name))
        if aggregate is None:
            aggregate = [0, 0.0, 0.0, float("-inf")]
            self._span_aggregates[(track, name)] = aggregate
        aggregate[0] += 1
        aggregate[1] += duration
        aggregate[2] = max(aggregate[2], duration)
        aggregate[3] = max(aggregate[3], float(end))

    def instant(self, track: Track, name: str, ts: float,
                args: Optional[EventArgs] = None) -> None:
        """Record a point event at ``ts`` on ``track``."""
        pid, tid = self._ids(track)
        event: Dict[str, object] = {
            "ph": "i", "name": name, "cat": track[0],
            "ts": float(ts), "pid": pid, "tid": tid, "s": "t",
        }
        if args:
            event["args"] = args
        self.events.append(event)

    def value(self, track: Track, name: str, ts: float, value: float) -> None:
        """Record one sample of a counter series (FIFO occupancy)."""
        pid, tid = self._ids(track)
        self.events.append({
            "ph": "C", "name": name, "cat": track[0],
            "ts": float(ts), "pid": pid, "tid": tid,
            "args": {name: value},
        })
        self._value_samples.setdefault((track, name), []).append(float(value))

    # -- export -------------------------------------------------------

    def chrome_trace(self) -> Dict[str, object]:
        """The full run as a ``chrome://tracing`` JSON object."""
        return {
            "traceEvents": self._meta + self.events,
            "displayTimeUnit": "ms",
        }

    def write_chrome_trace(self, path: Union[str, "os.PathLike[str]"]) -> None:
        """Write :meth:`chrome_trace` to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle, indent=1)

    # -- summaries ----------------------------------------------------

    def span_summary(self) -> Dict[str, Dict[str, float]]:
        """Per ``process/thread/name`` span totals."""
        out: Dict[str, Dict[str, float]] = {}
        for ((process, thread), name), agg in sorted(self._span_aggregates.items()):
            out[f"{process}/{thread}/{name}"] = {
                "count": agg[0],
                "total": agg[1],
                "max": agg[2],
                "last_end": agg[3],
            }
        return out

    def node_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-node busy/stall totals and utilization from sim spans."""
        nodes: Dict[str, Dict[str, float]] = {}
        for ((process, thread), name), agg in self._span_aggregates.items():
            if process != "sim" or not thread.startswith("node"):
                continue
            if name not in ("busy", "stall"):
                continue
            node = nodes.setdefault(
                thread, {"busy_cycles": 0.0, "stall_cycles": 0.0, "finish": 0.0}
            )
            node[f"{name}_cycles"] += agg[1]
            node["finish"] = max(node["finish"], agg[3])
        for node in nodes.values():
            finish = node["finish"]
            node["utilization"] = node["busy_cycles"] / finish if finish > 0 else 0.0
        return dict(sorted(nodes.items()))

    def value_summary(self) -> Dict[str, Dict[str, object]]:
        """Per-series sample stats plus a power-of-two histogram.

        This is where the FIFO occupancy histograms come from: each
        triangle FIFO samples its depth at every store/take, and the
        summary buckets those samples by ``<= 0, 1, 2, 4, 8, ...``.
        """
        out: Dict[str, Dict[str, object]] = {}
        for ((process, thread), name), samples in sorted(self._value_samples.items()):
            histogram: Dict[str, int] = {}
            for sample in samples:
                edge = 0
                while edge < sample:
                    edge = 1 if edge == 0 else edge * 2
                histogram[f"<={edge:g}"] = histogram.get(f"<={edge:g}", 0) + 1
            out[f"{process}/{thread}/{name}"] = {
                "count": len(samples),
                "min": min(samples),
                "max": max(samples),
                "mean": sum(samples) / len(samples),
                "histogram": dict(
                    sorted(histogram.items(), key=lambda kv: float(kv[0][2:]))
                ),
            }
        return out

    def summary(self) -> Dict[str, object]:
        """Everything the ``--metrics-out`` dump wants from the trace."""
        return {
            "events": len(self.events),
            "nodes": self.node_summary(),
            "spans": self.span_summary(),
            "values": self.value_summary(),
        }


# -- the process-wide current recorder --------------------------------

_current: RecorderLike = NULL_RECORDER


def recorder() -> RecorderLike:
    """The currently installed recorder (the null one unless enabled)."""
    return _current


def set_recorder(new: RecorderLike) -> RecorderLike:
    """Install ``new`` as the process recorder; returns the previous one."""
    global _current
    previous, _current = _current, new
    return previous


def enable_tracing() -> EventRecorder:
    """Install (and return) a fresh :class:`EventRecorder`."""
    fresh = EventRecorder()
    set_recorder(fresh)
    return fresh


def disable_tracing() -> None:
    """Put the null recorder back (the default state)."""
    set_recorder(NULL_RECORDER)


def tracing_enabled() -> bool:
    """True when an :class:`EventRecorder` is installed."""
    return _current.enabled
