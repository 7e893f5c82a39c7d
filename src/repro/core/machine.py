"""Top-level machine simulation.

Gluing the substrates together: rasterise the scene once, route
triangles through the distribution, replay each node's fragment stream
through its private cache, then run the timing model.  A node is timed
one way per regime.  An untraced run with an ideal geometry stage and a
``fifo_capacity`` above the deepest per-node triangle stream (the
paper's default 10 000-entry buffer) gives every node its next triangle
the moment it frees up, so each node drains in closed form
(:func:`repro.core.node.drain_node`).  Every other run goes through the
finite-FIFO recurrence (:func:`repro.core.distributor.run_event_machine`):
a traced one, because only the recurrence records spans, a
geometry-throttled one, and one whose FIFO can fill.  Above the deepest
stream the recurrence never blocks, and the two agree cycle for cycle:
tests set ``fifo_capacity`` equal to the deepest stream, or trace at the
default FIFO, to enforce that claim.

``busy`` and the ``bus.*`` totals do not depend on the path: ``busy``
is the routed work's ``node_work`` and the bus totals follow from each
node's texels and the bus ratio (:func:`repro.core.node.bus_totals`).

Everything upstream of the timing model is a pipeline artifact
(:mod:`repro.pipeline`): ``build_routed_work`` memoizes the routing
plan and cache replay by content identity, so timing-only sweeps (FIFO
depth, bus ratio) and repeated sweep points pay for their shared
prefixes once.  The timing model itself is instrumented under the
``timing`` stage of ``pipeline.stats()``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.cache.models import make_cache_model
from repro.core.config import MachineConfig
from repro.core.distributor import run_event_machine
from repro.core.geometry_stage import geometry_release_times
from repro.core.node import bus_totals, drain_node
from repro.core.results import MachineResult, NodeTimings
from repro.core.routing import RoutedWork, build_routed_work
from repro.distribution.single import SingleProcessor
from repro.errors import ConfigurationError
from repro.geometry.scene import Scene


def _fifo_never_fills(config: MachineConfig, work: RoutedWork) -> bool:
    """True when the FIFO can hold every node's whole triangle stream."""
    deepest = max((len(ids) for ids in work.triangles), default=0)
    return config.fifo_capacity > deepest


def simulate_machine(
    scene: Scene,
    config: MachineConfig,
    baseline_cycles: Optional[float] = None,
    routed: Optional[RoutedWork] = None,
) -> MachineResult:
    """Simulate one frame of ``scene`` on the configured machine.

    ``routed`` lets callers that sweep timing-only parameters (FIFO
    size, bus ratio) reuse one routing/cache replay across runs; it must
    be built with ``config.setup_cycles``, or :class:`ConfigurationError`
    is raised (its ``node_work`` is ``busy``).  Nodes drain in closed form
    when there is no recorder, no geometry stage and the FIFO can never
    fill, and through the finite-FIFO recurrence otherwise.
    """
    from repro import obs
    from repro.pipeline import stage_timer

    # One attribute check up front: the hot loops below see either a
    # live recorder or None, never the null object's method dispatch.
    active = obs.recorder()
    recorder = active if active.enabled else None

    if routed is not None and int(routed.setup_cycles) != int(config.setup_cycles):
        raise ConfigurationError(
            f"routed work was built with setup_cycles={routed.setup_cycles}, "
            f"the machine has setup_cycles={config.setup_cycles}"
        )
    work = routed or build_routed_work(
        scene,
        config.distribution,
        cache_spec=config.cache,
        cache_config=config.cache_config,
        setup_cycles=config.setup_cycles,
    )
    n = work.num_processors

    release: Optional[np.ndarray] = None
    if config.geometry_engines > 0:
        release = geometry_release_times(
            scene.num_triangles, config.geometry_engines, config.geometry_cycles
        )

    extras: Dict[str, Any] = {}
    with stage_timer("timing"):
        if recorder is None and release is None and _fifo_never_fills(config, work):
            finish = np.zeros(n)
            stall = np.zeros(n)
            for node in range(n):
                finish[node], stall[node] = drain_node(
                    work.pixels[node],
                    work.texels[node],
                    config.setup_cycles,
                    config.bus_ratio,
                )
            cycles = float(finish.max()) if n else 0.0
        else:
            event_stats: Dict[str, Any] = {}
            cycles, node_finish = run_event_machine(
                work.stream(),
                n,
                config.fifo_capacity,
                config.setup_cycles,
                config.bus_ratio,
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
    for series, amount in bus_totals(work.texels, config.bus_ratio).items():
        registry.counter(f"bus.{series}").labels(scene=scene.name).inc(amount)
    work.cache.publish(registry, scene=scene.name)

    cache_model = make_cache_model(config.cache, config.cache_config)
    return MachineResult(
        scene_name=scene.name,
        distribution=config.distribution.describe(),
        cache_name=cache_model.name,
        bus_ratio=config.bus_ratio,
        fifo_capacity=config.fifo_capacity,
        num_processors=n,
        cycles=cycles,
        timings=NodeTimings(finish=finish, busy=work.node_work, stall=stall),
        node_pixels=work.node_pixels,
        node_work=work.node_work,
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

