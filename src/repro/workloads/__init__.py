"""Benchmark workloads.

The paper drives its simulator with triangle traces captured from
Quake1/Quake2/Half-Life demos and two micro-benchmarks.  Those traces
are not redistributable, so this package synthesises scenes whose
*measured* characteristics (Table 1 of the paper: screen size, pixels
rendered, depth complexity, triangle/texture counts, working-set size,
unique texel-to-fragment ratio, and spatially clustered depth
complexity) match each original benchmark.  Every phenomenon the paper
studies is a function of exactly those statistics.
"""

from repro.workloads.generator import ClusterSpec, SceneSpec, generate_scene
from repro.workloads.scenes import (
    SCENE_NAMES,
    SCENE_SPECS,
    build_scene,
)
from repro.workloads.sequence import pan_sequence, translate_scene
from repro.workloads.vt import (
    VT_SCENE_NAMES,
    VT_SCENE_SPECS,
    VtSceneSpec,
    VtSequenceResult,
    run_vt_sequence,
)

__all__ = [
    "ClusterSpec",
    "SceneSpec",
    "generate_scene",
    "SCENE_NAMES",
    "SCENE_SPECS",
    "build_scene",
    "pan_sequence",
    "translate_scene",
    "VT_SCENE_NAMES",
    "VT_SCENE_SPECS",
    "VtSceneSpec",
    "VtSequenceResult",
    "run_vt_sequence",
]
