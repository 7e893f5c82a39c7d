"""Top-level machine simulation.

Gluing the substrates together: rasterise the scene once, route
triangles through the distribution, replay each node's fragment stream
through its private cache, then run the timing model.  Two timing paths
exist — an exact fast path for machines whose triangle FIFO never fills
(the paper's default 10 000-entry buffer) and the finite-FIFO
recurrence for the buffer study — chosen by whether ``fifo_capacity``
exceeds the deepest per-node triangle stream.  They agree cycle for
cycle on the never-full case: tests set ``fifo_capacity`` equal to the
deepest stream, which takes the finite-FIFO path while no push ever
blocks, to enforce that claim.

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

from repro.bus.bus import BusModel, publish_bus_totals
from repro.cache.models import make_cache_model
from repro.core.config import MachineConfig
from repro.core.distributor import run_event_machine
from repro.core.geometry_stage import geometry_release_times
from repro.core.node import drain_node
from repro.core.results import MachineResult, NodeTimings
from repro.core.routing import RoutedWork, build_routed_work
from repro.distribution.single import SingleProcessor
from repro.geometry.scene import Scene


def _fifo_is_effectively_infinite(config: MachineConfig, work: RoutedWork) -> bool:
    """True when no FIFO can ever fill, so the fast path is exact."""
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
    size, bus ratio) reuse one routing/cache replay across runs.  The
    exact fast timing path runs whenever the FIFO can never fill, the
    finite-FIFO recurrence otherwise.
    """
    from repro import obs
    from repro.pipeline import stage_timer

    # One attribute check up front: the hot loops below see either a
    # live recorder or None, never the null object's method dispatch.
    active = obs.recorder()
    recorder = active if active.enabled else None

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
    bus_totals: Dict[str, float] = {"transfers": 0, "texels": 0, "busy_cycles": 0.0}
    with stage_timer("timing"):
        if _fifo_is_effectively_infinite(config, work):
            finish = np.zeros(n)
            busy = np.zeros(n)
            stall = np.zeros(n)
            for node in range(n):
                arrivals = release[work.triangles[node]] if release is not None else None
                bus = BusModel(config.bus_ratio)
                timing = drain_node(
                    work.pixels[node],
                    work.texels[node],
                    config.setup_cycles,
                    config.bus_ratio,
                    arrivals=arrivals,
                    recorder=recorder,
                    node_id=node,
                    bus=bus,
                )
                finish[node] = timing.finish
                busy[node] = timing.busy_cycles
                stall[node] = timing.stall_cycles
                for series, amount in bus.totals().items():
                    bus_totals[series] += amount
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
            busy = np.array(
                [np.maximum(p, config.setup_cycles).sum() for p in work.pixels],
                dtype=float,
            )
            stall = np.asarray(event_stats["stall_per_node"])
            bus_totals = event_stats["bus_totals"]
            extras = {
                "distributor_blocked_cycles": event_stats.get("blocked_cycles", 0.0),
                "distributor_blocked_per_node": event_stats.get("blocked_per_node"),
                "fifo_high_water": event_stats.get("fifo_high_water"),
            }

    registry = obs.registry()
    registry.counter("machine.simulations").inc()
    publish_bus_totals(registry, bus_totals, scene=scene.name)
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
        timings=NodeTimings(finish=finish, busy=busy, stall=stall),
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


def speedup(scene: Scene, config: MachineConfig) -> float:
    """Convenience wrapper: baseline cycles / parallel cycles."""
    baseline = single_processor_baseline(scene, config)
    result = simulate_machine(scene, config, baseline_cycles=baseline)
    if result.cycles == 0:
        return float(config.num_processors)
    return baseline / result.cycles
