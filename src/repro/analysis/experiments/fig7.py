"""Figure 7: the headline speedup sweeps (bandwidth-limited bus).

``fig7_panel`` stays module-level so it pickles for the process pool;
scene panels fan out over ``REPRO_WORKERS`` processes, sharing their
scene/routing/replay artifacts through the pipeline's disk store.

The experiment is declared as an :class:`~repro.expfw.spec.ExperimentSpec`:
``fig7-ratio2`` is a derived child spec (same runner, ``bus_ratio=2.0``
default and a narrower scene list), and the ``family`` panel axis
writes one ``results/`` file per family.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.analysis.experiments.common import (
    FAMILIES,
    FAMILY_ROW_LABEL,
    PROCESSOR_COUNTS,
    SCALE,
    family_sizes,
    text_runner,
)
from repro.analysis.performance import SpeedupStudy
from repro.analysis.tables import format_series
from repro.expfw.params import Param, ParamSpace
from repro.expfw.spec import ExperimentSpec, register_spec
from repro.workloads import SCENE_NAMES, build_scene



def fig7_panel(
    scene_name: str, family: str, scale: float, bus_ratio: float = 1.0
) -> Dict[Tuple[int, int], float]:
    """One scene's Figure-7 sweep: {(size, processors): speedup}."""
    study = SpeedupStudy(build_scene(scene_name, scale), cache="lru", bus_ratio=bus_ratio)
    sweep = study.sweep(family, family_sizes(family), PROCESSOR_COUNTS)
    return {key: round(value, 2) for key, value in sweep.items()}


def fig7(
    family: str,
    scale: float,
    bus_ratio: float = 1.0,
    scenes: Iterable[str] = SCENE_NAMES,
    workers: Optional[int] = None,
) -> str:
    """Figure 7: speedups, 16 KB cache, bandwidth-limited bus.

    Scene panels are independent, so they fan out over ``workers``
    processes (default: the ``REPRO_WORKERS`` environment variable).
    """
    from repro.analysis.parallel import keyed_tasks, worker_count

    scenes = list(scenes)
    if workers is None:
        workers = worker_count()
    panels = keyed_tasks(
        fig7_panel,
        [(name, (name, family, scale, bus_ratio)) for name in scenes],
        workers=workers,
    )
    blocks = [
        format_series(
            name,
            panels[name],
            row_label=FAMILY_ROW_LABEL[family],
        )
        for name in scenes
    ]
    header = (
        f"Figure 7 ({family}): speedup, 16KB cache, bus {bus_ratio:g} "
        f"texel/pixel (scale={scale})"
    )
    return header + "\n\n" + "\n\n".join(blocks)


FIG7 = register_spec(
    ExperimentSpec(
        name="fig7",
        description="speedups, 1x bus",
        space=ParamSpace(
            (
                SCALE,
                Param.choice("family", "block", FAMILIES, help="distribution family"),
                Param.number("bus_ratio", 1.0, minimum=0.1, maximum=16.0, help="bus texel/pixel"),
                Param.names("scenes", SCENE_NAMES, SCENE_NAMES, help="scene panels"),
            )
        ),
        runner=text_runner(fig7),
        panels={"family": FAMILIES},
    )
)

FIG7_RATIO2 = register_spec(
    FIG7.derive(
        name="fig7-ratio2",
        description="speedups, 2x bus (tech-report companion)",
        defaults={"bus_ratio": 2.0, "scenes": ("massive32_1255", "teapot_full")},
    )
)
