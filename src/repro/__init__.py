"""repro — reproduction of "The Best Distribution for a Parallel OpenGL
3D Engine with Texture Caches" (Vartanian, Béchennec, Drach-Temam,
HPCA 2000).

A trace-driven, cycle-level simulator of a parallel sort-middle
texture-mapping engine built from commodity nodes with private 16 KB
texture caches, plus the synthetic virtual-reality workloads, analysis
drivers and experiment specs that regenerate every table and figure of
the paper's evaluation.

Quick start::

    from repro import build_scene, BlockInterleaved, MachineConfig, simulate_machine

    scene = build_scene("truc640", scale=0.125)
    config = MachineConfig(distribution=BlockInterleaved(16, width=16))
    result = simulate_machine(scene, config)
    print(result.summary())
"""

from repro.cache import CacheConfig
from repro.core import (
    MachineConfig,
    MachineResult,
    TimingConfig,
    simulate_machine,
    single_processor_baseline,
)
from repro.distribution import (
    BlockInterleaved,
    ContiguousBands,
    Distribution,
    ScanLineInterleaved,
    SingleProcessor,
)
from repro.errors import (
    ConfigurationError,
    ReproError,
    SimulationError,
    TraceFormatError,
)
from repro.geometry import (
    Scene,
    SceneStatistics,
    Triangle,
    Vertex,
    load_trace,
    save_trace,
)
from repro.texture import MipmappedTexture
from repro.workloads import (
    SCENE_NAMES,
    SCENE_SPECS,
    SceneSpec,
    build_scene,
    generate_scene,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # machine
    "MachineConfig",
    "MachineResult",
    "TimingConfig",
    "simulate_machine",
    "single_processor_baseline",
    "CacheConfig",
    # distributions
    "Distribution",
    "BlockInterleaved",
    "ScanLineInterleaved",
    "ContiguousBands",
    "SingleProcessor",
    # geometry
    "Scene",
    "SceneStatistics",
    "Triangle",
    "Vertex",
    "load_trace",
    "save_trace",
    "MipmappedTexture",
    # workloads
    "SCENE_NAMES",
    "SCENE_SPECS",
    "SceneSpec",
    "build_scene",
    "generate_scene",
    # errors
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "TraceFormatError",
]
