"""Declarative experiment specs: the one experiment registry.

An :class:`ExperimentSpec` is one named experiment as a typed object:
a :class:`~repro.expfw.params.ParamSpace` (defaults, bounds, choices),
a runner that maps resolved params to a :class:`RunResult`, and
optional *panels* (axes whose sub-runs are joined into the CLI text
and written as one ``results/`` file each — the ``block``/``sli``
pairing every figure hand-rolled before).

:func:`register_spec` adds a spec to :data:`SPECS`, which the CLI and
the job service resolve names from through :func:`require_spec`.
Specs derive children with :meth:`ExperimentSpec.derive` — parameter
inheritance with per-child default overrides (``fig7-ratio2`` is
``fig7`` with ``bus_ratio=2.0`` and a narrower scene list).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.expfw.params import Param, ParamSpace

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


class ExperimentSpec:
    """One declarative, parameterized experiment."""

    def __init__(
        self,
        name: str,
        description: str,
        space: ParamSpace,
        runner: Callable[[Mapping[str, object]], RunResult],
        panels: Optional[Mapping[str, Sequence[object]]] = None,
    ) -> None:
        self.name = name
        self.description = description
        self.space = space
        self.runner = runner
        self.panels = {k: tuple(v) for k, v in panels.items()} if panels else None

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

    # -- inheritance -------------------------------------------------

    def derive(
        self,
        name: str,
        description: Optional[str] = None,
        defaults: Optional[Mapping[str, object]] = None,
        extra: Sequence[Param] = (),
        panels: object = _INHERIT,
    ) -> "ExperimentSpec":
        """A child spec: same runner, new defaults/params per override."""
        return ExperimentSpec(
            name=name,
            description=description if description is not None else self.description,
            space=self.space.derive(defaults=defaults, extra=extra),
            runner=self.runner,
            panels=self.panels if panels is _INHERIT else panels,
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

