"""repro.expfw — declarative experiments.

The experiment framework lifts the hand-enumerated figure sweeps into
typed objects: :mod:`repro.expfw.params` declares parameter spaces
(defaults, bounds, choices) and :mod:`repro.expfw.spec` declares
:class:`ExperimentSpec` objects (runner, panels, inheritance, per-run
overrides) registered in :data:`SPECS`, the one experiment registry.
The CLI runs a spec by name; the job service runs it as a job.
"""

from repro.expfw.params import Param, ParamSpace
from repro.expfw.spec import (
    SPECS,
    ExperimentSpec,
    RunResult,
    register_spec,
    require_spec,
)

__all__ = [
    "ExperimentSpec",
    "Param",
    "ParamSpace",
    "RunResult",
    "SPECS",
    "register_spec",
    "require_spec",
]
