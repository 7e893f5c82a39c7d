"""Shared sweep vocabulary of the paper's figures and experiment specs."""

from __future__ import annotations

from typing import Callable, Mapping, Tuple

from repro.expfw.params import Param, ParamSpace
from repro.expfw.spec import ExperimentSpec, RunResult, register_spec
from repro.workloads.scenes import DEFAULT_SCALE

#: Paper sweep vocabulary.
BLOCK_WIDTHS = (4, 8, 16, 32, 64, 128)
SLI_LINES = (1, 2, 4, 8, 16, 32)
PROCESSOR_COUNTS = (4, 16, 64)
ALL_PROCESSOR_COUNTS = (1, 2, 4, 8, 16, 32, 64)
BUFFER_SIZES = (1, 5, 10, 20, 50, 100, 500, 10000)
FIG8_WIDTHS = (2, 4, 8, 16, 32, 64, 128)

FAMILY_SIZES = {"block": BLOCK_WIDTHS, "sli": SLI_LINES}
FAMILIES = tuple(FAMILY_SIZES)
FAMILY_ROW_LABEL = {"block": "width", "sli": "lines"}


def family_sizes(family: str) -> Tuple[int, ...]:
    return FAMILY_SIZES[family]


#: The scene-scale knob every experiment spec declares.  A spec needing
#: another default declares ``replace(SCALE, default=...)``.
SCALE = Param.number("scale", DEFAULT_SCALE, minimum=0.001, maximum=1.0, help="scene scale")


def text_runner(experiment: Callable[..., str]) -> Callable[[Mapping[str, object]], RunResult]:
    """A spec runner that calls ``experiment(**params)`` for its text."""

    def run(params: Mapping[str, object]) -> RunResult:
        return RunResult(text=experiment(**params))

    return run


def register_scale_specs(*entries: Tuple[str, str, Callable[..., str]]) -> None:
    """Register one scale-only spec per ``(name, description, experiment)``.

    Each spec's only param is :data:`SCALE`; its text is
    ``experiment(scale=...)``.
    """
    for name, description, experiment in entries:
        register_spec(
            ExperimentSpec(
                name=name,
                description=description,
                space=ParamSpace((SCALE,)),
                runner=text_runner(experiment),
            )
        )
