"""Declarative experiment specs: the one experiment registry.

An :class:`ExperimentSpec` is one named experiment as a typed object:
a :class:`~repro.expfw.params.ParamSpace` (defaults, bounds, choices),
a runner that maps resolved params to a :class:`RunResult`, optional
*panels* (axes whose sub-runs are joined into the CLI text and written
as one ``results/`` file each — the ``block``/``sli`` pairing every
figure hand-rolled before), and an optional :class:`TrialTemplate`
describing how the auto-search driver turns the experiment into
tunable machine points (tile size / SLI height / FIFO depth / cache
geometry).

:func:`register_spec` adds a spec to :data:`SPECS`, which the CLI, the
job service and the search driver resolve names from through
:func:`require_spec`.  Specs derive children with
:meth:`ExperimentSpec.derive` — parameter inheritance with per-child
default overrides (``fig7-ratio2`` is ``fig7`` with ``bus_ratio=2.0``
and a narrower scene list).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.expfw.params import Param, ParamSpace
from repro.pipeline.keys import fingerprint

#: Spec registry: experiment name -> spec, in registration order.
SPECS: Dict[str, "ExperimentSpec"] = {}

#: Separator between panel sub-runs in the joined CLI text.
PANEL_SEPARATOR = "\n\n"

#: Sentinel: ``derive`` keeps the parent's panels unless told otherwise.
_INHERIT = object()


@dataclass
class RunResult:
    """What one resolved experiment run produced."""

    text: str
    metrics: Dict[str, float] = field(default_factory=dict)
    artifacts: Tuple[str, ...] = ()


@dataclass(frozen=True)
class TrialTemplate:
    """How the search driver projects an experiment onto machine points.

    ``base`` fixes the non-searched payload fields (scene, processors,
    …), ``axes`` names the searched dimensions and their candidate
    values (a callable receives the resolved experiment params, so the
    size axis can follow the distribution family), and ``carry`` lists
    experiment params copied verbatim into every trial payload.
    """

    base: Mapping[str, object]
    axes: Callable[[Mapping[str, object]], Dict[str, Tuple[object, ...]]]
    carry: Tuple[str, ...] = ("scale", "family", "bus_ratio")
    objective: str = "speedup"
    maximize: bool = True

    def axes_for(self, params: Mapping[str, object]) -> Dict[str, Tuple[object, ...]]:
        axes = self.axes(params)
        if not axes:
            raise ConfigurationError("a trial template needs at least one axis")
        return {name: tuple(values) for name, values in axes.items()}

    def payload(
        self,
        params: Mapping[str, object],
        point: Mapping[str, object],
        fixed: Optional[Mapping[str, object]] = None,
    ) -> Dict[str, object]:
        """One trial's job payload: base < carried params < fixed < point."""
        payload: Dict[str, object] = dict(self.base)
        for name in self.carry:
            if name in params:
                payload[name] = params[name]
        payload.update(fixed or {})
        payload.update(point)
        return payload


class ExperimentSpec:
    """One declarative, parameterized experiment."""

    def __init__(
        self,
        name: str,
        description: str,
        space: ParamSpace,
        runner: Callable[[Mapping[str, object]], RunResult],
        panels: Optional[Mapping[str, Sequence[object]]] = None,
        trial: Optional[TrialTemplate] = None,
    ) -> None:
        self.name = name
        self.description = description
        self.space = space
        self.runner = runner
        self.panels = {k: tuple(v) for k, v in panels.items()} if panels else None
        self.trial = trial

    # -- running -----------------------------------------------------

    def resolve(
        self, overrides: Optional[Mapping[str, object]] = None
    ) -> Dict[str, object]:
        """Validate overrides into the full parameter mapping."""
        return self.space.resolve(overrides)

    def run(self, overrides: Optional[Mapping[str, object]] = None) -> RunResult:
        """Resolve and execute one run."""
        return self.runner(self.resolve(overrides))

    def panel_points(
        self, scale: Optional[float] = None
    ) -> List[Tuple[str, Dict[str, object]]]:
        """``(results stem, resolved params)`` for every panel point.

        ``scale=None`` keeps the spec's declared default.  The stem is
        the spec name with ``-`` -> ``_``, then ``_<value>`` for each
        panel axis in declaration order; a spec without panels has one
        point whose stem is its bare name.
        """
        axes = self.panels or {}
        base = {} if scale is None else {"scale": scale}
        prefix = self.name.replace("-", "_")
        return [
            (prefix + "".join(f"_{point[axis]}" for axis in axes), point)
            for point in self.space.grid(axes, base=base)
        ]

    def panel_texts(self, scale: Optional[float] = None) -> List[Tuple[str, str]]:
        """Run every panel point: ``(results stem, text)`` in order."""
        return [(stem, self.runner(point).text) for stem, point in self.panel_points(scale)]

    def render(self, scale: Optional[float] = None) -> str:
        """The CLI text: panel sub-runs joined by a blank line."""
        return PANEL_SEPARATOR.join(text for _, text in self.panel_texts(scale))

    # -- identity ----------------------------------------------------

    def fingerprint(self) -> str:
        """Config identity: the name plus the full space description."""
        described = json.dumps(
            {
                "name": self.name,
                "params": [param.describe() for param in self.space],
                "panels": {k: list(v) for k, v in (self.panels or {}).items()},
            },
            sort_keys=True,
        )
        return fingerprint(described)

    def run_key(self, params: Mapping[str, object], seed: Optional[int] = None) -> str:
        """Content-addressed identity of one resolved run."""
        canonical = json.dumps(
            {name: list(v) if isinstance(v, tuple) else v for name, v in params.items()},
            sort_keys=True,
        )
        suffix = "" if seed is None else f"/seed={seed}"
        return f"run/{self.name}/{fingerprint(canonical)}{suffix}"

    # -- inheritance -------------------------------------------------

    def derive(
        self,
        name: str,
        description: Optional[str] = None,
        defaults: Optional[Mapping[str, object]] = None,
        extra: Sequence[Param] = (),
        panels: object = _INHERIT,
        trial: Optional[TrialTemplate] = None,
    ) -> "ExperimentSpec":
        """A child spec: same runner, new defaults/params per override."""
        return ExperimentSpec(
            name=name,
            description=description if description is not None else self.description,
            space=self.space.derive(defaults=defaults, extra=extra),
            runner=self.runner,
            panels=self.panels if panels is _INHERIT else panels,
            trial=trial if trial is not None else self.trial,
        )

    def describe_params(self) -> str:
        return self.space.describe()


# -- registration -----------------------------------------------------


def register_spec(spec: ExperimentSpec) -> ExperimentSpec:
    """Add a spec to :data:`SPECS` (names are unique)."""
    if spec.name in SPECS:
        raise ConfigurationError(f"experiment spec {spec.name!r} registered twice")
    SPECS[spec.name] = spec
    return spec


def require_spec(name: str) -> ExperimentSpec:
    """Resolve a spec by name (importing the experiment modules first)."""
    import repro.analysis.experiments  # noqa: F401  (registers the specs)

    if name not in SPECS:
        raise ConfigurationError(
            f"unknown experiment {name!r}; choose from {', '.join(SPECS)}"
        )
    return SPECS[name]


def searchable_spec(name: str) -> ExperimentSpec:
    """Like :func:`require_spec`, but demands a trial template."""
    spec = require_spec(name)
    if spec.trial is None:
        raise ConfigurationError(
            f"experiment {name!r} declares no trial template, so it cannot "
            "be auto-searched"
        )
    return spec
