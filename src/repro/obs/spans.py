"""Nested span timers for host-side (wall-clock) phases.

A span is a named ``with`` block: it knows its parent (spans nest per
thread), observes its duration into the default registry's
``span.<name>`` histogram, and — when tracing is enabled — also lands
on the recorder's ``("host", <thread>)`` track so pipeline stages show
up in the same ``chrome://tracing`` view as the simulated machine.

Spans are the only wall-time account of the pipeline (see
:mod:`repro.pipeline.store`): a stage computation is a span named
``stage.<stage>`` and a disk-tier load one named ``load.<stage>``, and
``--timings`` reports their histogram sums.  The CLI times each
experiment with an ``experiment.<name>`` span.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional, cast

from repro.obs.recorder import recorder
from repro.obs.registry import DEFAULT_TIME_BUCKETS, registry

_local = threading.local()


class Span:
    """One live (or finished) span; see :func:`span`."""

    __slots__ = ("name", "parent", "depth", "seconds")

    def __init__(self, name: str, parent: Optional["Span"]) -> None:
        self.name = name
        self.parent = parent
        self.depth = 0 if parent is None else parent.depth + 1
        self.seconds: Optional[float] = None  # set when the block exits

    @property
    def path(self) -> str:
        """Slash-joined names from the root span down to this one."""
        if self.parent is None:
            return self.name
        return f"{self.parent.path}/{self.name}"


def current_span() -> Optional[Span]:
    """The innermost span open on this thread (None outside any)."""
    return cast(Optional[Span], getattr(_local, "top", None))


@contextmanager
def span(name: str, **args: object) -> Iterator[Span]:
    """Time a block as ``name``; nests under any enclosing span.

    Always observes the duration into the registry histogram
    ``span.<name>``; when tracing is enabled, additionally records a
    host-track trace event whose args carry the nesting ``path`` plus
    any keyword ``args``.
    """
    opened = Span(name, current_span())
    _local.top = opened
    started = time.perf_counter()
    try:
        yield opened
    finally:
        elapsed = time.perf_counter() - started
        opened.seconds = elapsed
        _local.top = opened.parent
        registry().histogram(
            f"span.{name}", edges=DEFAULT_TIME_BUCKETS
        ).observe(elapsed)
        active = recorder()
        if active.enabled:
            end_us = time.perf_counter() * 1e6
            active.span(
                ("host", threading.current_thread().name),
                name,
                end_us - elapsed * 1e6,
                end_us,
                args={"path": opened.path, **args} if args else {"path": opened.path},
            )
