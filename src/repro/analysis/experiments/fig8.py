"""Figure 8: the triangle-buffer study."""

from __future__ import annotations

from repro.analysis.buffering import buffer_sweep
from repro.analysis.experiments.common import BUFFER_SIZES, FIG8_WIDTHS, SCALE, text_runner
from repro.analysis.tables import format_series
from repro.expfw.params import Param, ParamSpace
from repro.expfw.spec import ExperimentSpec, register_spec
from repro.workloads import build_scene


def fig8(cache: str, scale: float, bus_ratio: float = 2.0) -> str:
    """Figure 8: speedup vs block width and triangle-buffer size."""
    scene = build_scene("truc640", scale)
    sweep = buffer_sweep(
        scene,
        "block",
        sizes=FIG8_WIDTHS,
        buffer_sizes=BUFFER_SIZES,
        num_processors=64,
        cache=cache,
        bus_ratio=bus_ratio,
    )
    rounded = {key: round(value, 2) for key, value in sweep.items()}
    label = "perfect cache" if cache == "perfect" else f"16KB cache + {bus_ratio:g}x bus"
    return format_series(
        f"Figure 8: speedup, truc640, 64P block, {label} (scale={scale})",
        rounded,
        row_label="width",
        column_label="buffer",
    )


FIG8 = register_spec(
    ExperimentSpec(
        name="fig8",
        description="triangle-buffer study",
        space=ParamSpace(
            (
                SCALE,
                Param.choice("cache", "perfect", ("perfect", "lru"), help="cache model"),
                Param.number("bus_ratio", 2.0, minimum=0.1, maximum=16.0, help="bus texel/pixel"),
            )
        ),
        runner=text_runner(fig8),
        panels={"cache": ("perfect", "lru")},
    )
)
