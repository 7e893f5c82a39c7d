"""Top-level machine simulation.

:func:`simulate_machine` takes one of two forms.  ``(Scene,
MachineConfig)`` routes the scene through the distribution, replays
each node's fragment stream through its private cache, then times the
result.  ``(RoutedWork, TimingConfig)`` only times a work that is
already routed and replayed: a FIFO-depth, bus-ratio or geometry sweep
routes once and times many.  Every label of the result (scene,
distribution, cache model, processor count) and the setup floor come
from the work itself, so a timing-only config cannot pair a work with
another machine's routing.  Any other pairing is refused.

A node is timed one way per regime.  An untraced run with an ideal
geometry stage and a ``fifo_capacity`` above the deepest per-node
triangle stream (the paper's default 10 000-entry buffer) gives every
node its next triangle the moment it frees up, so each node drains in
closed form (:func:`repro.core.node.drain_node`).  Every other run goes
through the finite-FIFO recurrence
(:func:`repro.core.distributor.run_event_machine`): a traced one,
because only the recurrence records spans, a geometry-throttled one,
and one whose FIFO can fill.  Above the deepest stream the recurrence
never blocks, and the two agree cycle for cycle: tests set
``fifo_capacity`` equal to the deepest stream, or trace at the default
FIFO, to enforce that claim.

``busy`` and the ``bus.*`` totals do not depend on the path: ``busy``
is the routed work's ``node_work`` and the bus totals follow from each
node's texels and the bus ratio (:func:`repro.core.node.bus_totals`).

Everything upstream of the timing model is a pipeline artifact
(:mod:`repro.pipeline`): ``build_routed_work`` memoizes the routing
plan and cache replay by content identity, so repeated sweep points
pay for their shared prefixes once.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

import numpy as np

from repro.core.config import MachineConfig, TimingConfig
from repro.core.distributor import run_event_machine
from repro.core.geometry_stage import geometry_release_times
from repro.core.node import bus_totals, drain_node
from repro.core.results import MachineResult, NodeTimings
from repro.core.routing import RoutedWork, build_routed_work
from repro.distribution.single import SingleProcessor
from repro.errors import ConfigurationError
from repro.geometry.scene import Scene


def _fifo_never_fills(timing: TimingConfig, work: RoutedWork) -> bool:
    """True when the FIFO can hold every node's whole triangle stream."""
    deepest = max((len(ids) for ids in work.triangles), default=0)
    return timing.fifo_capacity > deepest


def simulate_machine(
    source: Union[Scene, RoutedWork],
    config: Union[MachineConfig, TimingConfig],
    baseline_cycles: Optional[float] = None,
) -> MachineResult:
    """Simulate one frame: a scene on a machine, or a routed work under a timing.

    ``(scene, MachineConfig)`` routes and replays the scene (memoized
    by :func:`build_routed_work`), then times it under
    ``config.timing``.  ``(work, TimingConfig)`` times a routed work
    as built, reading its labels and setup floor from it.  Any other
    pairing raises :class:`ConfigurationError`.  Nodes drain in closed
    form when there is no recorder, no geometry stage and the FIFO can
    never fill, and through the finite-FIFO recurrence otherwise.
    """
    from repro import obs
    from repro.pipeline import stage_timer

    if isinstance(source, Scene) and isinstance(config, MachineConfig):
        work = build_routed_work(
            source,
            config.distribution,
            cache_spec=config.cache,
            cache_config=config.cache_config,
            setup_cycles=config.setup_cycles,
        )
        timing = config.timing
    elif isinstance(source, RoutedWork) and isinstance(config, TimingConfig):
        work, timing = source, config
    else:
        raise ConfigurationError(
            "simulate_machine times a Scene under a MachineConfig or a "
            f"RoutedWork under a TimingConfig, not a {type(source).__name__} "
            f"under a {type(config).__name__}"
        )

    # One attribute check up front: the hot loops below see either a
    # live recorder or None, never the null object's method dispatch.
    active = obs.recorder()
    recorder = active if active.enabled else None
    n = work.num_processors

    release: Optional[np.ndarray] = None
    if timing.geometry_engines > 0:
        release = geometry_release_times(
            work.num_triangles, timing.geometry_engines, timing.geometry_cycles
        )

    extras: Dict[str, Any] = {}
    with stage_timer("timing"):
        if recorder is None and release is None and _fifo_never_fills(timing, work):
            finish = np.zeros(n)
            stall = np.zeros(n)
            for node in range(n):
                finish[node], stall[node] = drain_node(
                    work.pixels[node],
                    work.texels[node],
                    work.setup_cycles,
                    timing.bus_ratio,
                )
            cycles = float(finish.max()) if n else 0.0
        else:
            event_stats: Dict[str, Any] = {}
            cycles, node_finish = run_event_machine(
                work.stream(),
                n,
                timing.fifo_capacity,
                work.setup_cycles,
                timing.bus_ratio,
                release=release,
                stats=event_stats,
                recorder=recorder,
            )
            finish = np.asarray(node_finish)
            stall = np.asarray(event_stats["stall_per_node"])
            extras = {
                "distributor_blocked_cycles": event_stats.get("blocked_cycles", 0.0),
                "distributor_blocked_per_node": event_stats.get("blocked_per_node"),
                "fifo_high_water": event_stats.get("fifo_high_water"),
            }

    registry = obs.registry()
    registry.counter("machine.simulations").inc()
    for series, amount in bus_totals(work.texels, timing.bus_ratio).items():
        registry.counter(f"bus.{series}").labels(scene=work.scene_name).inc(amount)
    work.cache.publish(registry, scene=work.scene_name)

    return MachineResult(
        scene_name=work.scene_name,
        distribution=work.distribution,
        cache_name=work.cache_name,
        bus_ratio=timing.bus_ratio,
        fifo_capacity=timing.fifo_capacity,
        num_processors=n,
        cycles=cycles,
        timings=NodeTimings(finish=finish, busy=work.node_work, stall=stall),
        node_pixels=work.node_pixels,
        cache=work.cache,
        baseline_cycles=baseline_cycles,
        extras=extras,
    )


def single_processor_baseline(scene: Scene, config: MachineConfig) -> float:
    """Frame time of the same engine with one processor.

    Everything but the distribution is inherited from ``config`` so the
    speedup isolates the effect of parallelisation.
    """
    solo = config.with_distribution(SingleProcessor())
    return simulate_machine(scene, solo).cycles

