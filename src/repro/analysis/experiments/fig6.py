"""Figure 6: texel-to-fragment locality curves."""

from __future__ import annotations

from repro.analysis.experiments.common import (
    ALL_PROCESSOR_COUNTS,
    FAMILIES,
    FAMILY_ROW_LABEL,
    SCALE,
    family_sizes,
    text_runner,
)
from repro.analysis.locality import locality_sweep
from repro.analysis.tables import format_series
from repro.expfw.params import Param, ParamSpace
from repro.expfw.spec import ExperimentSpec, register_spec
from repro.workloads import SCENE_NAMES, build_scene


def fig6(scene: str, family: str, scale: float) -> str:
    """Figure 6: texel-to-fragment ratio, 16 KB caches, infinite bus."""
    sweep = locality_sweep(
        build_scene(scene, scale), family, family_sizes(family), ALL_PROCESSOR_COUNTS
    )
    rounded = {key: round(value, 3) for key, value in sweep.items()}
    return format_series(
        f"Figure 6: texel/fragment, {scene}, {family} (scale={scale})",
        rounded,
        row_label=FAMILY_ROW_LABEL[family],
    )


FIG6 = register_spec(
    ExperimentSpec(
        name="fig6",
        description="texel/fragment locality",
        space=ParamSpace(
            (
                SCALE,
                Param.choice("scene", "massive32_1255", SCENE_NAMES, help="workload"),
                Param.choice("family", "block", FAMILIES, help="distribution family"),
            )
        ),
        runner=text_runner(fig6),
        panels={"scene": ("massive32_1255", "teapot_full"), "family": FAMILIES},
    )
)
