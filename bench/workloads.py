"""The benchmark's pinned workloads, built from the simulator's public API.

Each workload is a function ``(seed, scale) -> iteration``: it builds
the inputs that stay outside the timed loop and returns a zero-argument
callable that runs one timed iteration and returns the model outputs
(plain JSON values) the runner digests and checks.  Timed iterations
run at the workload's ``FULL_SCALE``; the warm-up runs at half that
linear scale and ``--smoke`` at ``SMOKE_SCALE``.

The seed places the frame against the screen-space tile grid: it picks
a pixel offset ``(dx, dy)`` in ``[0, 32)^2`` and translates the
generated frame by it, so nodes see different tiles of the same world
and every cache stream changes.  No seed (``None``) is the offset
``(0, 0)``: the pinned frame with the pinned outputs.  The generator's
own seed is left alone on purpose: changing it changes the triangle
count by 3-9% (interquartile range over 20 seeds; 9% on truc640 at
scale 0.5), which would swamp the timing noise the benchmark must
resolve.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import pipeline
from repro.analysis.batch import distribution_from_spec, machine_config_from_spec
from repro.analysis.buffering import buffer_sweep
from repro.core.machine import simulate_machine
from repro.geometry.scene import Scene
from repro.workloads.generator import generate_scene
from repro.workloads.scenes import SCENE_SPECS
from repro.workloads.sequence import pan_sequence, translate_scene
from repro.workloads.vt import require_vt_spec, run_vt_sequence

Iteration = Callable[[], Dict[str, object]]

#: Linear scene scale of each workload's timed iterations.
FULL_SCALE = {"paper_frame": 1.0, "small_tris": 0.5, "fifo_sweep": 0.5, "vt_pan": 0.5}

#: Linear scene scale of every workload in ``--smoke`` mode.
SMOKE_SCALE = 0.125

#: Exclusive upper bound of the seed-derived pixel offset.
MAX_OFFSET = 32


def seed_offset(seed: Optional[int]) -> Tuple[int, int]:
    """The ``(dx, dy)`` pixel offset a seed places the frame at."""
    if seed is None:
        return 0, 0
    dx, dy = np.random.default_rng(seed).integers(0, MAX_OFFSET, size=2)
    return int(dx), int(dy)


def place(scene: Scene, seed: Optional[int]) -> Scene:
    """``scene`` translated by the seed's offset, keeping its identity.

    The translated copy carries an artifact key derived from the
    original's, so it takes the same memoized pipeline path as the
    untranslated frame.
    """
    dx, dy = seed_offset(seed)
    moved = translate_scene(scene, -float(dx), -float(dy))
    if scene.artifact_key is not None:
        moved.artifact_key = f"{scene.artifact_key}@{dx},{dy}"
    return moved


def machine_outputs(result) -> Dict[str, object]:
    """The model outputs of one ``simulate_machine`` call."""
    return {
        "cycles": float(result.cycles),
        "finish": [float(value) for value in result.timings.finish],
        "accesses": int(result.cache.line_accesses),
        "misses": int(result.cache.misses),
    }


def _frame(scene_name: str, scale: float, machine: Dict[str, object], seed) -> Iteration:
    spec = SCENE_SPECS[scene_name]

    def iteration() -> Dict[str, object]:
        pipeline.store().clear()
        scene = place(generate_scene(spec, scale=scale), seed)
        distribution = distribution_from_spec(machine, scene.height)
        config = machine_config_from_spec(machine, distribution)
        return machine_outputs(simulate_machine(scene, config))

    return iteration


def paper_frame(seed: Optional[int], scale: float) -> Iteration:
    """truc640 through block-16 / 64P / 16 KB LRU / FIFO 10000 (fast timing path)."""
    machine = {"family": "block", "size": 16, "processors": 64, "fifo": 10000}
    return _frame("truc640", scale, machine, seed)


def small_tris(seed: Optional[int], scale: float) -> Iteration:
    """room3 through block-16 / 4P / LRU on the event path.

    At scale 0.5 each node queues about 28 k triangles, more than the
    10 000-entry FIFO holds, so the default rule picks the event
    kernel.  The FIFO scales with the pixel count, so smaller frames
    overflow it the same way.
    """
    fifo = round(10000 * (scale / FULL_SCALE["small_tris"]) ** 2)
    machine = {"family": "block", "size": 16, "processors": 4, "fifo": fifo}
    return _frame("room3", scale, machine, seed)


def fifo_sweep(seed: Optional[int], scale: float) -> Iteration:
    """Figure 8's perfect-cache panel: 64P, widths {8,16,32} x depths {1,10,100,500}."""
    scene = place(generate_scene(SCENE_SPECS["truc640"], scale=scale), seed)
    scene.fragments()

    def iteration() -> Dict[str, object]:
        pipeline.store().clear()
        speedups = buffer_sweep(
            scene, "block", (8, 16, 32), (1, 10, 100, 500),
            num_processors=64, cache="perfect", bus_ratio=2.0,
        )
        return {
            "speedups": [
                [size, depth, float(value)]
                for (size, depth), value in sorted(speedups.items())
            ]
        }

    return iteration


def vt_pan(seed: Optional[int], scale: float) -> Iteration:
    """vt-quake's 3-frame pan through block-16 / 16P and one page table."""
    spec = require_vt_spec("vt-quake")
    frames: List[Scene] = [
        place(frame, seed)
        for frame in pan_sequence(
            spec.scene_spec(), scale, spec.frames, spec.pan_dx, spec.pan_dy
        )
    ]
    for frame in frames:
        frame.fragments()
    machine = {"family": "block", "size": 16, "processors": 16}

    def iteration() -> Dict[str, object]:
        pipeline.store().clear()
        sequence = run_vt_sequence(spec, machine, scale=scale, scenes=frames)
        return {
            "total_cycles": float(sequence.total_cycles),
            "frames": [
                {
                    **machine_outputs(frame.result),
                    "baseline_cycles": float(frame.baseline_cycles),
                    "vt": dict(frame.vt),
                }
                for frame in sequence.frames
            ],
        }

    return iteration


#: Workload name -> the function that builds it, in the order ``--sets`` alternates them.
WORKLOADS: Dict[str, Callable[[Optional[int], float], Iteration]] = {
    "paper_frame": paper_frame,
    "small_tris": small_tris,
    "fifo_sweep": fifo_sweep,
    "vt_pan": vt_pan,
}


def headline(name: str, outputs: Dict[str, object]) -> str:
    """One line of the outputs a reader checks by eye (cycles, miss rate)."""
    if name == "fifo_sweep":
        speedups = [row[2] for row in outputs["speedups"]]
        return f"speedups {min(speedups):.4f}..{max(speedups):.4f}"
    if name == "vt_pan":
        return f"total cycles {outputs['total_cycles']:.0f}"
    miss_rate = outputs["misses"] / outputs["accesses"] if outputs["accesses"] else 0.0
    return f"cycles {outputs['cycles']:.0f}, miss rate {miss_rate:.6f}"
