"""Layer tracing from outside the program: wrap public callables, record spans.

:func:`install` replaces a fixed list of the simulator's public
functions and methods with timing wrappers.  A module-level function
is also replaced in every loaded ``repro`` module that imported it by
name, so ``repro.core.machine.drain_node`` is traced as well as
``repro.core.node.drain_node``; modules imported later bind the
wrapper.  Methods are replaced on their class.

A wrapper records a span (layer, target, start, end, parent span,
iteration) while the tracer is enabled and also counts the work that
crossed the boundary (lines, fragments, triangles, ...), so ratios are
measured where the work happens.  A disabled wrapper calls straight
through.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from types import ModuleType
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, module, attribute) of every traced callable; a dotted
#: attribute is a method on a class.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("workloads", "repro.workloads.generator", "generate_scene"),
    ("workloads", "repro.workloads.sequence", "pan_sequence"),
    ("workloads", "repro.workloads.sequence", "translate_scene"),
    ("raster", "repro.raster.raster", "rasterize_scene"),
    ("core.routing", "repro.core.routing", "compute_routing_plan"),
    ("core.routing", "repro.core.routing", "assemble_routed_work"),
    ("core.replay", "repro.core.routing", "compute_replay"),
    ("texture.filtering", "repro.texture.filtering", "TrilinearFilter.line_addresses"),
    ("cache", "repro.cache.models", "RealCache.misses"),
    ("texture.pages", "repro.texture.pages", "PageTable.translate"),
    ("texture.pages", "repro.texture.pages", "PageTable.observe"),
    ("texture.pages", "repro.texture.pages", "PageTable.advance_frame"),
    ("core.node", "repro.core.node", "drain_node"),
    ("core.distributor", "repro.core.distributor", "interleave_stream"),
    ("core.distributor", "repro.core.distributor", "run_event_machine"),
    ("core.machine", "repro.core.machine", "simulate_machine"),
)

#: Layers in the order they are reported.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))


def _routing(args: tuple, plan: Any) -> Dict[str, float]:
    return {
        "core.routing.triangles": args[0].num_triangles,
        "core.routing.routed_pairs": sum(map(len, plan.routed)),
    }


def _paging(args: tuple, stats: Dict[str, int]) -> Dict[str, float]:
    return {
        "texture.pages.paged_in": stats["paged_in"],
        "texture.pages.accesses": stats["access_count"],
        "texture.pages.faults": stats["fault_accesses"],
    }


#: Work counted at a target's boundary: attribute -> (args, result) -> increments.
COUNTERS: Dict[str, Callable[[tuple, Any], Dict[str, float]]] = {
    "rasterize_scene": lambda args, fragments: {"raster.fragments": len(fragments)},
    "compute_routing_plan": _routing,
    "TrilinearFilter.line_addresses": lambda args, lines: {
        "texture.filtering.lines": lines.size
    },
    "RealCache.misses": lambda args, mask: {
        "cache.accesses": len(args[1]),
        "cache.misses": int(mask.sum()),
    },
    "PageTable.translate": lambda args, lines: {"texture.pages.lines": len(args[1])},
    "PageTable.observe": lambda args, _: {"texture.pages.lines": len(args[1])},
    "PageTable.advance_frame": _paging,
    "interleave_stream": lambda args, stream: {"core.distributor.entries": len(stream)},
}


class Span:
    """One traced call: ``end`` stays None until the call returns."""

    __slots__ = ("layer", "target", "start", "end", "parent", "iteration")

    def __init__(self, layer: str, target: str, start: float, parent: int, iteration: str):
        self.layer = layer
        self.target = target
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent
        self.iteration = iteration

    def as_dict(self) -> Dict[str, object]:
        return {name: getattr(self, name) for name in self.__slots__}


class Tracer:
    """Spans and boundary counts for the calls made while enabled."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = False
        self.iteration = ""
        self.counts: Dict[str, float] = defaultdict(float)
        #: ``simulate_machine`` results of the current iteration.
        self.machine_results: List[Any] = []
        self._stack: List[int] = []

    def begin(self, iteration: str) -> None:
        """Start recording under ``iteration`` with fresh counts."""
        self.enabled = True
        self.iteration = iteration
        self.counts = defaultdict(float)
        self.machine_results = []

    def end(self) -> None:
        self.enabled = False

    def wrap(self, layer: str, target: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(target)
        is_machine = target == "simulate_machine"
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            span = Span(layer, target, 0.0, stack[-1] if stack else -1, self.iteration)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            self.counts[f"{layer}.calls"] += 1
            if counter is not None:
                for name, amount in counter(args, result).items():
                    self.counts[name] += amount
            if is_machine:
                self.machine_results.append(result)
            return result

        return functools.wraps(fn)(traced)

    def self_times(self, iteration: str) -> Dict[str, float]:
        """Per-layer self time of ``iteration``: duration minus child spans."""
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent >= 0 and span.iteration == iteration and span.end is not None:
                child_time[span.parent] += span.end - span.start
        totals = {layer: 0.0 for layer in LAYERS}
        for index, span in enumerate(self.spans):
            if span.iteration == iteration and span.end is not None:
                totals[span.layer] += span.end - span.start - child_time[index]
        return totals


def resolve(module_name: str, attribute: str) -> Tuple[Any, str, Callable]:
    """``(owner, name, callable)`` of a target; raises if it is gone."""
    owner: Any = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    fn = getattr(owner, name)
    if not callable(fn):
        raise TypeError(f"{module_name}.{attribute} is not callable")
    return owner, name, fn


def install(tracer: Tracer) -> int:
    """Wrap every target; returns how many references were replaced.

    Modules imported afterwards bind the wrappers, since the defining
    module's attribute is replaced first.
    """
    replaced = 0
    for layer, module_name, attribute in TARGETS:
        owner, name, fn = resolve(module_name, attribute)
        wrapper = tracer.wrap(layer, attribute, fn)
        setattr(owner, name, wrapper)
        replaced += 1
        if isinstance(owner, ModuleType):
            for key, module in list(sys.modules.items()):
                if key.startswith("repro") and getattr(module, name, None) is fn:
                    setattr(module, name, wrapper)
                    replaced += 1
    return replaced
