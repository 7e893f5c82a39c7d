"""The distribution question re-asked under virtual texturing.

Figure 5/7 asked which screen-space distribution wins when every node
streams real (fully resident) texture lines.  Virtual texturing
changes the memory system underneath: line addresses go through a
page table, only a fraction of pages are resident, and residency
chases the camera via per-frame feedback.  ``vt-distribution`` sweeps
the same four families over page size × residency fraction and
reports, per cell, each family's cycles/speedup alongside the paging
behaviour (which is distribution-independent by construction — the
table's feedback comes from the submission-order stream, so every
family pages identically and the comparison isolates the
distribution).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Sequence

from repro.analysis.experiments.common import SCALE
from repro.analysis.tables import format_table
from repro.expfw.params import Param, ParamSpace
from repro.expfw.spec import ExperimentSpec, RunResult, register_spec
from repro.workloads.vt import VT_SCENE_NAMES, require_vt_spec, run_vt_sequence, vt_frames

#: The families Figure 5/7 compared, now over a paged texture system.
VT_FAMILIES = ("block", "bands", "sli", "morton")

#: The per-family size knob at its Figure-7 sweet spot (bands ignores it).
VT_FAMILY_SIZE = {"block": 16, "sli": 2, "morton": 16, "bands": 0}


def vt_distribution(
    scale: float,
    scenes: Sequence[str] = ("vt-quake",),
    pages: Sequence[int] = (8, 32),
    residencies: Sequence[float] = (0.25, 0.5),
    processors: int = 16,
) -> str:
    """One table per (scene, page size, residency): families compared."""
    blocks = []
    for scene_name in scenes:
        spec = require_vt_spec(scene_name)
        frames = vt_frames(spec, scale)
        for page_lines in pages:
            for residency in residencies:
                rows = []
                for family in VT_FAMILIES:
                    machine = {"family": family, "processors": processors}
                    if VT_FAMILY_SIZE[family]:
                        machine["size"] = VT_FAMILY_SIZE[family]
                    result = run_vt_sequence(
                        spec,
                        machine,
                        scale=scale,
                        page_lines=page_lines,
                        residency=residency,
                        scenes=frames,
                    )
                    rows.append(
                        [
                            result.distribution,
                            round(result.total_cycles),
                            f"{result.final.speedup:.2f}",
                            f"{result.final.miss_rate:.4f}",
                            f"{result.mean_fault_rate:.4f}",
                            result.total_paged_in,
                        ]
                    )
                header = (
                    f"{scene_name}: {page_lines}-line pages, "
                    f"{residency:g} resident, {processors}P "
                    f"({spec.frames}-frame pan, scale={scale})"
                )
                table = format_table(
                    [
                        "distribution",
                        "total cycles",
                        "final speedup",
                        "final miss rate",
                        "mean fault rate",
                        "pages paged in",
                    ],
                    rows,
                )
                blocks.append(f"{header}\n{table}")
    return (
        "VT distribution study: Figure 5/7 re-asked over a paged texture "
        "system\n(residency chases the pan via frame feedback; paging is "
        "identical across\nfamilies, so differences are the distribution's)"
        "\n\n" + "\n\n".join(blocks)
    )


def _run_vt_distribution(params: Mapping[str, object]) -> RunResult:
    scale = params["scale"]
    text = vt_distribution(
        scale,
        scenes=params["scenes"],
        pages=tuple(int(p) for p in params["pages"]),
        residencies=tuple(float(r) for r in params["residencies"]),
        processors=params["processors"],
    )
    return RunResult(text=text)


#: String-valued grids for the ``names`` param kind (converted at use).
_PAGE_CHOICES = ("4", "8", "16", "32", "64")
_RESIDENCY_CHOICES = ("0.125", "0.25", "0.5", "0.75", "1.0")

VT_DISTRIBUTION = register_spec(
    ExperimentSpec(
        name="vt-distribution",
        description="distribution families under virtual texturing",
        space=ParamSpace(
            (
                # Each cell replays a multi-frame pan per family, so
                # the default stays at an eighth of the paper's frame.
                replace(SCALE, default=0.125),
                Param.integer("processors", 16, minimum=1, maximum=64, help="node count"),
                Param.names("scenes", ("vt-quake",), VT_SCENE_NAMES, help="VT scenes"),
                Param.names("pages", ("8", "32"), _PAGE_CHOICES, help="page sizes (lines)"),
                Param.names(
                    "residencies", ("0.25", "0.5"), _RESIDENCY_CHOICES,
                    help="resident fractions",
                ),
            )
        ),
        runner=_run_vt_distribution,
    )
)
