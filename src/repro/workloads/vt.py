"""The virtual-texturing workload family.

Extends the Table-1 scene vocabulary with the knobs virtual texturing
adds — page size, residency fraction, and a feedback-driven paging
loop over a :func:`~repro.workloads.sequence.pan_sequence` — and runs
whole pan sequences through the machine simulator with the page table
(:mod:`repro.texture.pages`) spliced between the trilinear filter and
the texture caches.

Per frame of a sequence:

1. the frame's fragments are filtered once, in submission order and
   chunk by chunk; each chunk's virtual lines are **observed**
   (distribution-independent touch/fault feedback) and translated
   through the **frozen** table into the frame's line table
   (:func:`~repro.texture.pages.build_frame_lines`) — observing first
   is exact, because feedback never changes the mapping;
2. the frame is simulated from that table: every node's cache replay
   gathers its rows of translated (physical) line addresses, and
   faulted accesses collapse onto the shared fallback frame;
3. the same frame's single-processor baseline replays the same table,
   so the speedup isolates the distribution;
4. ``advance_frame`` applies the feedback: faulted pages page in,
   least-recently-touched residents evict — residency for frame k+1.

Because feedback is drawn from the global submission-order stream, the
residency trajectory is identical across distributions: the VT family
re-asks the paper's question (which distribution wins?) with the
texture system changed, not with a different paging history per
machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Union

from repro.cache.stream import DEFAULT_CHUNK
from repro.errors import ConfigurationError
from repro.geometry.scene import Scene
from repro.texture.filtering import TrilinearFilter
from repro.texture.pages import PageTable, VirtualTextureConfig, build_frame_lines
from repro.workloads.generator import SceneSpec
from repro.workloads.scenes import DEFAULT_SCALE
from repro.workloads.sequence import pan_sequence


@dataclass(frozen=True)
class VtSceneSpec:
    """A Table-1 scene extended with virtual-texturing knobs.

    ``base`` names the Table-1 :class:`SceneSpec` the frames derive
    from; ``texture_magnify`` scales its level-0 texture edges up so
    the virtual working set genuinely exceeds the resident fraction
    (Quake-era textures fit a half-resident table too comfortably to
    fault).  ``frames``/``pan_dx``/``pan_dy`` shape the pan sequence
    the paging feedback loop runs over.
    """

    name: str
    base: str
    page_lines: int = 16
    residency: float = 0.5
    frames: int = 3
    pan_dx: int = 32
    pan_dy: int = 0
    texture_magnify: int = 1

    def __post_init__(self) -> None:
        if self.frames < 1:
            raise ConfigurationError(f"need at least one frame, got {self.frames}")
        if self.pan_dx < 0 or self.pan_dy < 0:
            raise ConfigurationError("pan offsets must be non-negative")
        if self.texture_magnify < 1:
            raise ConfigurationError(
                f"texture_magnify must be >= 1, got {self.texture_magnify}"
            )
        # Validates page_lines/residency with the model's own rules.
        VirtualTextureConfig(self.page_lines, self.residency)

    def vt_config(
        self,
        page_lines: Optional[int] = None,
        residency: Optional[float] = None,
    ) -> VirtualTextureConfig:
        """The page-table configuration, with optional overrides."""
        return VirtualTextureConfig(
            page_lines if page_lines is not None else self.page_lines,
            residency if residency is not None else self.residency,
        )

    def scene_spec(self) -> SceneSpec:
        """The underlying generator spec (textures magnified, renamed)."""
        from repro.workloads.scenes import SCENE_SPECS

        if self.base not in SCENE_SPECS:
            raise ConfigurationError(
                f"unknown base scene {self.base!r} for VT spec {self.name!r}"
            )
        spec = SCENE_SPECS[self.base]
        if self.texture_magnify > 1:
            edges = tuple(
                (edge * self.texture_magnify, weight)
                for edge, weight in spec.texture_edges
            )
            spec = replace(spec, texture_edges=edges)
        return replace(spec, name=self.name)


#: The VT scene family: Table-1 statistics plus VT knobs.
VT_SCENE_SPECS: Dict[str, VtSceneSpec] = {
    "vt-quake": VtSceneSpec(
        name="vt-quake", base="quake", texture_magnify=2, residency=0.5, pan_dx=32
    ),
    "vt-teapot": VtSceneSpec(
        name="vt-teapot", base="teapot_full", residency=0.25, pan_dx=48
    ),
    "vt-truc640": VtSceneSpec(
        name="vt-truc640", base="truc640", texture_magnify=2, residency=0.5, pan_dx=32
    ),
}

VT_SCENE_NAMES = tuple(VT_SCENE_SPECS)


def require_vt_spec(name: str) -> VtSceneSpec:
    if name not in VT_SCENE_SPECS:
        raise ConfigurationError(
            f"unknown VT scene {name!r}; choose from {', '.join(VT_SCENE_NAMES)}"
        )
    return VT_SCENE_SPECS[name]


def vt_frames(spec: VtSceneSpec, scale: float) -> List[Scene]:
    """The spec's pan-sequence frames (shared world, shared textures)."""
    return pan_sequence(spec.scene_spec(), scale, spec.frames, spec.pan_dx, spec.pan_dy)


@dataclass
class VtFrameResult:
    """One frame of a VT sequence: machine metrics plus paging stats."""

    frame: int
    scene_name: str
    cycles: float
    baseline_cycles: float
    miss_rate: float
    texel_to_fragment: float
    #: The frame's paging stats from :meth:`PageTable.advance_frame`.
    vt: Dict[str, int]
    result: object = field(repr=False, default=None)

    @property
    def speedup(self) -> float:
        if self.cycles <= 0:
            return 0.0
        return self.baseline_cycles / self.cycles

    @property
    def fault_rate(self) -> float:
        accesses = self.vt.get("access_count", 0)
        if not accesses:
            return 0.0
        return self.vt.get("fault_accesses", 0) / accesses


@dataclass
class VtSequenceResult:
    """A whole pan sequence through one machine configuration."""

    spec: VtSceneSpec
    vt: VirtualTextureConfig
    distribution: str
    num_pages: int
    num_resident: int
    frames: List[VtFrameResult]

    @property
    def total_cycles(self) -> float:
        return sum(frame.cycles for frame in self.frames)

    @property
    def total_baseline_cycles(self) -> float:
        return sum(frame.baseline_cycles for frame in self.frames)

    @property
    def final(self) -> VtFrameResult:
        return self.frames[-1]

    @property
    def mean_fault_rate(self) -> float:
        if not self.frames:
            return 0.0
        return sum(frame.fault_rate for frame in self.frames) / len(self.frames)

    @property
    def total_paged_in(self) -> int:
        return sum(frame.vt.get("paged_in", 0) for frame in self.frames)

    def summary(self) -> str:
        lines = [
            f"{self.spec.name} [{self.distribution}] "
            f"{self.vt.describe()} ({self.num_resident}/{self.num_pages} pages)"
        ]
        for frame in self.frames:
            lines.append(
                f"  f{frame.frame}: cycles={frame.cycles:.0f} "
                f"speedup={frame.speedup:.2f} miss={frame.miss_rate:.4f} "
                f"faults={frame.vt.get('fault_accesses', 0)} "
                f"({frame.fault_rate:.4f}) paged_in={frame.vt.get('paged_in', 0)}"
            )
        lines.append(
            f"  total cycles={self.total_cycles:.0f} "
            f"mean fault rate={self.mean_fault_rate:.4f} "
            f"paged in={self.total_paged_in}"
        )
        return "\n".join(lines)


def run_vt_sequence(
    spec: Union[VtSceneSpec, str],
    machine: Optional[Mapping[str, object]] = None,
    scale: float = DEFAULT_SCALE,
    page_lines: Optional[int] = None,
    residency: Optional[float] = None,
    frames: Optional[int] = None,
    chunk_size: Optional[int] = None,
    scenes: Optional[List[Scene]] = None,
) -> VtSequenceResult:
    """Run one VT pan sequence through one machine configuration.

    ``machine`` is the same vocabulary as :mod:`repro.analysis.batch`
    entries (``family``/``processors``/``size``/``cache``/...), with
    the same defaults; ``page_lines``/``residency``/``frames`` override
    the spec's VT knobs; ``scenes`` lets a sweep share prebuilt pan
    frames across the (page, residency, family) grid — frames depend
    only on (spec, scale), never on the VT or machine point.
    """
    from repro.analysis.batch import distribution_from_spec, machine_config_from_spec
    from repro.core.machine import simulate_machine
    from repro.core.routing import build_routed_work
    from repro.distribution.single import SingleProcessor
    from repro.pipeline import fragments_artifact, stage_timer

    if isinstance(spec, str):
        spec = require_vt_spec(spec)
    if frames is not None:
        spec = replace(spec, frames=frames)
    machine_spec = dict(machine or {})

    sequence = scenes if scenes is not None else vt_frames(spec, scale)
    if len(sequence) < spec.frames:
        raise ConfigurationError(
            f"prebuilt sequence has {len(sequence)} frames, spec wants {spec.frames}"
        )
    sequence = sequence[: spec.frames]
    layout = sequence[0].memory_layout()
    tex_filter = TrilinearFilter(layout)
    table = PageTable(layout.total_lines, spec.vt_config(page_lines, residency))

    distribution = distribution_from_spec(machine_spec, sequence[0].height)
    config = machine_config_from_spec(machine_spec, distribution)
    solo = config.with_distribution(SingleProcessor())

    frame_results: List[VtFrameResult] = []
    for index, scene in enumerate(sequence):
        fragments = fragments_artifact(scene)
        with stage_timer("lines"):
            frame = build_frame_lines(
                table, tex_filter, fragments, chunk_size or DEFAULT_CHUNK, observe=True
            )
        routed = build_routed_work(
            scene,
            distribution,
            cache_spec=config.cache,
            cache_config=config.cache_config,
            setup_cycles=config.setup_cycles,
            chunk_size=chunk_size,
            layout=layout,
            translator=frame,
        )
        solo_routed = build_routed_work(
            scene,
            solo.distribution,
            cache_spec=solo.cache,
            cache_config=solo.cache_config,
            setup_cycles=solo.setup_cycles,
            chunk_size=chunk_size,
            layout=layout,
            translator=frame,
        )
        # Only one frame's line table is alive at a time.
        del frame
        baseline = simulate_machine(solo_routed, solo.timing).cycles
        result = simulate_machine(routed, config.timing, baseline_cycles=baseline)
        stats = table.advance_frame()
        frame_results.append(
            VtFrameResult(
                frame=index,
                scene_name=scene.name,
                cycles=result.cycles,
                baseline_cycles=baseline,
                miss_rate=result.cache.miss_rate,
                texel_to_fragment=result.texel_to_fragment,
                vt=stats,
                result=result,
            )
        )

    return VtSequenceResult(
        spec=spec,
        vt=table.config,
        distribution=distribution.describe(),
        num_pages=table.num_pages,
        num_resident=int(table.resident_mask().sum()),
        frames=frame_results,
    )
