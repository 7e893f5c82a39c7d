"""The job model of the experiment service.

A :class:`JobSpec` is a declarative experiment request, validated at
submission time against the registries the rest of the system already
maintains — scene names against ``repro.workloads.scenes.SCENE_SPECS``
and experiment names against ``repro.expfw.spec.SPECS``.  Three kinds
exist:

* ``experiment`` — render one experiment spec at a scale
  (``{"experiment": "fig6", "scale": 0.125}``; an omitted scale is the
  spec's declared default);
* ``simulate`` — run one machine point (``{"scene": "truc640",
  "processors": 16, "family": "block", "size": 16, ...}``) in the
  machine vocabulary of :func:`machine_from_payload`;
* ``vt`` — run one virtual-texturing pan sequence (``{"vt_scene":
  "vt-quake", "vt_pages": 16, "vt_residency": 0.5, "vt_frames": 3,
  ...}`` plus the same machine vocabulary); an omitted VT knob is the
  VT scene spec's own.

A field the job's kind does not read is rejected, not dropped.

Every spec derives a deterministic **result key** from the pipeline's
content-identity vocabulary (:mod:`repro.pipeline.keys`), so two
submissions describing the same computation address the same result:
the service coalesces them into one execution and serves repeats from
the content-addressed result store.

:func:`execute_payload` is the function every worker runs on its
leased payload; it revalidates the payload in the worker and returns a
JSON-serializable result payload.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from threading import Event
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.pipeline.keys import scene_key

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.geometry.scene import Scene

# -- job states -------------------------------------------------------

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
TIMED_OUT = "timed-out"

#: Every state a job can be in, in lifecycle order.
STATES = (QUEUED, RUNNING, DONE, FAILED, TIMED_OUT)
#: States a job never leaves.
TERMINAL_STATES = (DONE, FAILED, TIMED_OUT)

#: The field that names each job kind, in precedence order.
_KIND_NAMES = {"experiment": "experiment", "vt": "vt_scene", "simulate": "scene"}
_MACHINE_FIELDS = ("family", "processors", "size", "cache", "cache_kb", "ways", "bus_ratio", "fifo")
#: The spec fields each kind reads; any other spec field is rejected.
_KIND_FIELDS = {
    "experiment": ("experiment", "scale"),
    "simulate": ("scene", "scale") + _MACHINE_FIELDS,
    "vt": ("vt_scene", "vt_pages", "vt_residency", "vt_frames", "scale") + _MACHINE_FIELDS,
}

#: Submission keys that configure scheduling rather than the computation.
_OPTION_KEYS = ("priority", "timeout", "retries", "tenant")

#: Tenant jobs belong to when the submission names none.
DEFAULT_TENANT = "default"

# Clock seams (monkeypatchable in tests): wall time is for *display*
# timestamps only; durations are always monotonic deltas so a clock
# adjustment (NTP step, DST, manual set) can never corrupt them.
_WALL_CLOCK: Callable[[], float] = time.time
_MONOTONIC_CLOCK: Callable[[], float] = time.monotonic


def _wall_now() -> float:
    return _WALL_CLOCK()


def _monotonic_now() -> float:
    return _MONOTONIC_CLOCK()


@dataclass(frozen=True)
class JobSpec:
    """Declarative description of one unit of work (content identity).

    :func:`spec_from_payload` fills the fields its kind reads.
    """

    kind: str
    scale: float
    experiment: Optional[str] = None
    scene: Optional[str] = None
    family: Optional[str] = None
    processors: Optional[int] = None
    size: Optional[int] = None
    cache: Optional[str] = None
    cache_kb: Optional[int] = None
    ways: Optional[int] = None
    bus_ratio: Optional[float] = None
    fifo: Optional[int] = None
    vt_scene: Optional[str] = None
    vt_pages: Optional[int] = None
    vt_residency: Optional[float] = None
    vt_frames: Optional[int] = None

    def result_key(self) -> str:
        """Content-addressed identity of this spec's result.

        Built from the pipeline key vocabulary so the same computation
        always lands on the same store entry, across processes and
        across service restarts sharing a ``REPRO_ARTIFACT_DIR``.
        """
        if self.kind == "experiment":
            return f"experiment/{self.experiment}@{self.scale:g}"
        from repro.workloads.scenes import SCENE_SPECS

        geometry = ""
        if self.cache_kb is not None:
            geometry = f"#{self.cache_kb}kb{self.ways}w"
        if self.kind == "vt":
            from repro.pipeline.keys import spec_fingerprint
            from repro.workloads.vt import VT_SCENE_SPECS

            return (
                f"vt/{self.vt_scene}@{self.scale:g}"
                f"#{spec_fingerprint(VT_SCENE_SPECS[self.vt_scene])}"
                f"/pages={self.vt_pages}/res={self.vt_residency:g}"
                f"/frames={self.vt_frames}"
                f"/{self.family}{self.size}x{self.processors}"
                f"/cache={self.cache}{geometry}"
                f"/bus={self.bus_ratio:g}/fifo={self.fifo}"
            )
        return (
            f"simulate/{scene_key(SCENE_SPECS[self.scene], self.scale)}"
            f"/{self.family}{self.size}x{self.processors}"
            f"/cache={self.cache}{geometry}"
            f"/bus={self.bus_ratio:g}/fifo={self.fifo}"
        )

    def to_payload(self) -> Dict:
        """Plain-dict form that round-trips through ``spec_from_payload``
        (what a worker receives in its lease)."""
        if self.kind == "experiment":
            return {"experiment": self.experiment, "scale": self.scale}
        return {
            name: value
            for name, value in asdict(self).items()
            if value is not None and name not in ("kind", "experiment")
        }


def spec_from_payload(payload: Dict) -> JobSpec:
    """Validate a submission dict into a :class:`JobSpec`.

    Raises :class:`ConfigurationError` on unknown fields, on fields the
    job's kind does not read, on unknown experiment/scene names, or on
    out-of-range parameters — the HTTP layer maps that to a 400
    response.
    """
    if not isinstance(payload, dict):
        raise ConfigurationError(f"a job must be a JSON object, got {type(payload).__name__}")
    known = set(JobSpec.__dataclass_fields__) - {"kind"} | set(_OPTION_KEYS)
    unknown = set(payload) - known
    if unknown:
        raise ConfigurationError(
            f"unknown job field(s) {', '.join(sorted(map(repr, unknown)))}; "
            f"choose from {', '.join(sorted(known))}"
        )
    kinds = [kind for kind, name in _KIND_NAMES.items() if name in payload]
    if not kinds:
        raise ConfigurationError(
            "a job needs an 'experiment' name, a 'scene' or a 'vt_scene'"
        )
    kind = kinds[0]
    unread = set(payload) - set(_KIND_FIELDS[kind]) - set(_OPTION_KEYS)
    if unread:
        raise ConfigurationError(
            f"{kind} jobs do not read {', '.join(sorted(map(repr, unread)))}"
        )

    if kind == "experiment":
        from repro.expfw.spec import require_spec

        name = payload["experiment"]
        scale_param = require_spec(name).space.param("scale")
        scale = scale_param.validate(payload.get("scale", scale_param.default))
        return JobSpec(kind="experiment", experiment=name, scale=scale)

    from repro.workloads.scenes import DEFAULT_SCALE

    scale = _number(payload, "scale", default=DEFAULT_SCALE)
    if not 0 < scale <= 1:
        raise ConfigurationError(f"scale must be in (0, 1], got {scale}")
    machine = machine_from_payload(payload)
    if kind == "vt":
        from repro.texture.pages import VirtualTextureConfig
        from repro.workloads.vt import require_vt_spec

        vt_spec = require_vt_spec(payload["vt_scene"])
        vt_pages = _integer(payload, "vt_pages", default=vt_spec.page_lines, minimum=1)
        vt_residency = _number(payload, "vt_residency", default=vt_spec.residency)
        vt_frames = _integer(payload, "vt_frames", default=vt_spec.frames, minimum=1)
        # One source of truth for page-size/residency legality.
        VirtualTextureConfig(vt_pages, vt_residency)
        return JobSpec(
            kind="vt",
            vt_scene=vt_spec.name,
            vt_pages=vt_pages,
            vt_residency=vt_residency,
            vt_frames=vt_frames,
            scale=scale,
            **machine,
        )
    from repro.workloads.scenes import SCENE_NAMES, SCENE_SPECS

    scene = payload["scene"]
    if scene not in SCENE_SPECS:
        raise ConfigurationError(
            f"unknown scene {scene!r}; choose from {', '.join(SCENE_NAMES)}"
        )
    return JobSpec(kind="simulate", scene=scene, scale=scale, **machine)


def machine_from_payload(payload: Dict) -> Dict:
    """Validate the machine fields of a payload, defaults filled in.

    The result is the machine vocabulary of
    :func:`repro.analysis.batch.machine_config_from_spec`, with the
    defaults of :mod:`repro.core.config`; ``cache_kb`` and ``ways``
    appear, both of them, only when the payload sets either.
    """
    from repro.analysis.batch import FAMILIES
    from repro.cache.config import DEFAULT_CACHE
    from repro.cache.models import CACHE_MODELS
    from repro.core import config

    machine = {
        "family": _choice(payload, "family", config.DEFAULT_FAMILY, FAMILIES),
        "processors": _integer(payload, "processors", config.DEFAULT_PROCESSORS, minimum=1),
        "size": _integer(payload, "size", config.DEFAULT_SIZE, minimum=1),
        "cache": _choice(payload, "cache", config.DEFAULT_CACHE_MODEL, CACHE_MODELS),
        "bus_ratio": _number(payload, "bus_ratio", config.DEFAULT_BUS_RATIO),
        "fifo": _integer(payload, "fifo", config.DEFAULT_FIFO_CAPACITY, minimum=1),
    }
    if not machine["bus_ratio"] > 0:
        raise ConfigurationError(f"bus_ratio must be positive, got {machine['bus_ratio']}")
    if "cache_kb" in payload or "ways" in payload:
        kb = DEFAULT_CACHE.total_bytes // 1024
        machine["cache_kb"] = _integer(payload, "cache_kb", kb, minimum=1)
        machine["ways"] = _integer(payload, "ways", DEFAULT_CACHE.ways, minimum=1)
    return machine


def parse_submission(payload: Dict) -> Tuple[JobSpec, Dict]:
    """Split a submission into ``(spec, scheduling options)``.

    Options — ``priority`` (int, lower runs first), ``timeout``
    (seconds per attempt), ``retries`` (extra attempts after the
    first) and ``tenant`` (fair-queuing bucket) — affect scheduling
    only and stay out of the result key.
    """
    spec = spec_from_payload(payload)
    options: Dict = {}
    if "priority" in payload:
        options["priority"] = _integer(payload, "priority", default=0, minimum=None)
    if "tenant" in payload:
        tenant = payload["tenant"]
        if not isinstance(tenant, str) or not tenant.strip():
            raise ConfigurationError(
                f"tenant must be a non-empty string, got {tenant!r}"
            )
        options["tenant"] = tenant.strip()
    if "timeout" in payload:
        timeout = _number(payload, "timeout", default=0.0)
        if timeout <= 0:
            raise ConfigurationError(f"timeout must be positive, got {timeout}")
        options["timeout"] = timeout
    if "retries" in payload:
        options["retries"] = _integer(payload, "retries", default=0, minimum=0)
    return spec, options


def _choice(payload: Dict, name: str, default: str, names) -> str:
    raw = payload.get(name, default)
    if not isinstance(raw, str) or raw not in names:
        raise ConfigurationError(f"unknown {name} {raw!r}; choose from {', '.join(names)}")
    return raw


def _number(payload: Dict, name: str, default: float) -> float:
    raw = payload.get(name, default)
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigurationError(f"{name} must be a number, got {raw!r}")
    return float(raw)


def _integer(payload: Dict, name: str, default: int, minimum: Optional[int]) -> int:
    raw = payload.get(name, default)
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigurationError(f"{name} must be an int, got {raw!r}")
    if minimum is not None and raw < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {raw}")
    return raw


# -- the mutable job record ------------------------------------------


@dataclass
class Job:
    """One submitted request moving through the service's state machine.

    ``queued → running → done | failed | timed-out``; a worker lease
    that misses its heartbeat sends a running job back to ``queued``,
    and so does a failed or timed-out attempt with retry budget left.
    Mutations happen under the scheduler's lock; readers get consistent
    JSON via :meth:`to_json`.

    The ``*_at`` fields are wall-clock timestamps for display only;
    ``duration_seconds`` is a monotonic delta (first start → finish)
    and stays correct across clock adjustments.
    """

    id: str
    spec: JobSpec
    priority: int = 0
    tenant: str = DEFAULT_TENANT
    timeout: Optional[float] = None
    retries: int = 0
    state: str = QUEUED
    attempts: int = 0
    requeues: int = 0
    cached: bool = False
    error: Optional[str] = None
    created_at: float = field(default_factory=_wall_now)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    duration_seconds: Optional[float] = None
    result_key: str = ""
    started_monotonic: Optional[float] = field(default=None, repr=False, compare=False)
    terminal: Event = field(default_factory=Event, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.result_key:
            self.result_key = self.spec.result_key()

    def mark_started(self) -> None:
        """Record the first dispatch: wall stamp for display, monotonic
        mark for duration accounting (idempotent across requeues)."""
        if self.started_at is None:
            self.started_at = _wall_now()
        if self.started_monotonic is None:
            self.started_monotonic = _monotonic_now()

    def finish(self, state: str, error: Optional[str] = None) -> None:
        self.state = state
        self.error = error
        self.finished_at = _wall_now()
        if self.started_monotonic is not None:
            self.duration_seconds = _monotonic_now() - self.started_monotonic
        self.terminal.set()

    def to_json(self) -> Dict:
        return {
            "id": self.id,
            "state": self.state,
            "result_key": self.result_key,
            "spec": self.spec.to_payload(),
            "priority": self.priority,
            "tenant": self.tenant,
            "timeout": self.timeout,
            "retries": self.retries,
            "attempts": self.attempts,
            "requeues": self.requeues,
            "cached": self.cached,
            "error": self.error,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "duration_seconds": self.duration_seconds,
        }


# -- worker-side execution -------------------------------------------


def execute_payload(payload: Dict) -> Dict:
    """Run one job payload; the function every worker executes.

    Driven by a plain dict so it runs the same in a remote worker
    process as in the coordinator; revalidates the payload (workers
    import the same registries).  Returns a JSON-serializable result
    payload.
    """
    spec = spec_from_payload(payload)
    started = time.perf_counter()
    metrics: Optional[Dict[str, float]] = None
    if spec.kind == "experiment":
        from repro.expfw.spec import require_spec

        text = require_spec(spec.experiment).render(spec.scale)
    elif spec.kind == "vt":
        text, metrics = _simulate_vt(spec)
    else:
        from repro.workloads.scenes import build_scene

        text, metrics = simulate_point(build_scene(spec.scene, spec.scale), _machine(spec))
    result = {
        "key": spec.result_key(),
        "text": text,
        "elapsed_seconds": time.perf_counter() - started,
    }
    if metrics is not None:
        result["metrics"] = metrics
    return result


def _machine(spec: JobSpec) -> Dict:
    """The spec's machine fields as a :func:`machine_from_payload` dict."""
    fields = {name: getattr(spec, name) for name in _MACHINE_FIELDS}
    return {name: value for name, value in fields.items() if value is not None}


def _simulate_vt(spec: JobSpec) -> Tuple[str, Dict[str, float]]:
    """One virtual-texturing pan sequence as a job."""
    from repro.workloads.vt import run_vt_sequence

    result = run_vt_sequence(
        spec.vt_scene,
        _machine(spec),
        scale=spec.scale,
        page_lines=spec.vt_pages,
        residency=spec.vt_residency,
        frames=spec.vt_frames,
    )
    final = result.final
    metrics = {
        "cycles": float(result.total_cycles),
        "baseline_cycles": float(result.total_baseline_cycles),
        "speedup": float(final.speedup),
        "miss_rate": float(final.miss_rate),
        "fault_rate": float(result.mean_fault_rate),
        "paged_in": float(result.total_paged_in),
    }
    return result.summary(), metrics


def simulate_point(scene: "Scene", machine: Dict) -> Tuple[str, Dict[str, float]]:
    """Simulate one machine point on a built scene.

    ``machine`` is a :func:`machine_from_payload` dict.  Returns the
    one-line summary and the metrics of a ``simulate`` job; the
    ``run --path`` verb calls this on a loaded trace file.
    """
    from repro.analysis.batch import distribution_from_spec, machine_config_from_spec
    from repro.core.machine import simulate_machine, single_processor_baseline

    distribution = distribution_from_spec(machine, scene.height)
    config = machine_config_from_spec(machine, distribution)
    baseline = single_processor_baseline(scene, config)
    result = simulate_machine(scene, config, baseline_cycles=baseline)
    metrics = {
        "cycles": float(result.cycles),
        "baseline_cycles": float(baseline),
        "texel_to_fragment": float(result.texel_to_fragment),
        "imbalance_percent": float(result.work_imbalance_percent()),
    }
    if result.speedup is not None:
        metrics["speedup"] = float(result.speedup)
    if result.efficiency is not None:
        metrics["efficiency"] = float(result.efficiency)
    return result.summary(), metrics
