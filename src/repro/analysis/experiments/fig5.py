"""Figure 5: load imbalance and perfect-cache speedup.

Both experiments are declared as :class:`~repro.expfw.spec.ExperimentSpec`
objects over (family, processors, scene, scale); the ``family`` panel
axis joins the ``block`` and ``sli`` panels in the CLI text and writes
one ``results/`` file per family.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.experiments.common import (
    ALL_PROCESSOR_COUNTS,
    FAMILIES,
    FAMILY_ROW_LABEL,
    SCALE,
    family_sizes,
    text_runner,
)
from repro.analysis.load_balance import imbalance_sweep
from repro.analysis.performance import SpeedupStudy
from repro.analysis.tables import format_series, format_table
from repro.expfw.params import Param, ParamSpace
from repro.expfw.spec import ExperimentSpec, register_spec
from repro.workloads import SCENE_NAMES, build_scene

#: Imbalance depends on blocks per processor, so it distorts on small
#: screens; the cache-free Figure-5 analysis can afford half the
#: paper's frame size.
FIG5_SCALE = replace(SCALE, default=0.5)


def fig5_imbalance(family: str, scale: float, processors: int = 64) -> str:
    """Figure 5 (top): % work imbalance at 64 processors, perfect cache."""
    sizes = family_sizes(family)
    rows = []
    for name in SCENE_NAMES:
        scene = build_scene(name, scale)
        sweep = imbalance_sweep(scene, family, sizes, processors)
        rows.append([name] + [round(sweep[size], 1) for size in sizes])
    prefix = "w" if family == "block" else "l"
    table = format_table(["scene"] + [f"{prefix}{s}" for s in sizes], rows)
    return (
        f"Figure 5 (top, {family}): % imbalance, {processors} processors "
        f"(scale={scale})\n{table}"
    )


def fig5_speedup(family: str, scale: float, scene: str = "massive32_1255") -> str:
    """Figure 5 (bottom): perfect-cache speedup vs processors."""
    study = SpeedupStudy(build_scene(scene, scale), cache="perfect")
    sweep = study.sweep(family, family_sizes(family), ALL_PROCESSOR_COUNTS)
    rounded = {key: round(value, 2) for key, value in sweep.items()}
    return format_series(
        f"Figure 5 (bottom, {family}): perfect-cache speedup, {scene} "
        f"(scale={scale})",
        rounded,
        row_label=FAMILY_ROW_LABEL[family],
    )


FIG5_IMBALANCE = register_spec(
    ExperimentSpec(
        name="fig5-imbalance",
        description="load imbalance, both distributions",
        space=ParamSpace(
            (
                FIG5_SCALE,
                Param.choice("family", "block", FAMILIES, help="distribution family"),
                Param.integer("processors", 64, minimum=1, maximum=1024, help="node count"),
            )
        ),
        runner=text_runner(fig5_imbalance),
        panels={"family": FAMILIES},
    )
)

FIG5_SPEEDUP = register_spec(
    ExperimentSpec(
        name="fig5-speedup",
        description="perfect-cache speedup vs processors",
        space=ParamSpace(
            (
                FIG5_SCALE,
                Param.choice("family", "block", FAMILIES, help="distribution family"),
                Param.choice("scene", "massive32_1255", SCENE_NAMES, help="workload"),
            )
        ),
        runner=text_runner(fig5_speedup),
        panels={"family": FAMILIES},
    )
)
