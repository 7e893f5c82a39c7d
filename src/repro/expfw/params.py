"""Typed parameter spaces for declarative experiments.

A :class:`Param` declares one experiment knob — its type, default,
bounds and (for enumerated knobs) the legal choices.  A
:class:`ParamSpace` is an ordered collection of params that validates
override dicts into fully-resolved parameter mappings, enumerates grid
cross-products, and derives child spaces (new defaults and/or extra
params) for experiment inheritance.

Resolution is strict: unknown names, out-of-range values and wrong
types raise :class:`~repro.errors.ConfigurationError` — the same
contract the job service uses for submissions, so a bad override fails
at the CLI/HTTP boundary, not halfway through a sweep.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

#: Parameter kinds and the python types they accept.
KINDS = ("int", "float", "str", "bool", "strs")


@dataclass(frozen=True)
class Param:
    """One declarative experiment parameter."""

    name: str
    kind: str
    default: object
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    choices: Optional[Tuple[object, ...]] = None
    help: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"param {self.name!r}: unknown kind {self.kind!r}; "
                f"choose from {', '.join(KINDS)}"
            )
        object.__setattr__(self, "default", self.validate(self.default))

    # -- constructors ------------------------------------------------

    @staticmethod
    def integer(
        name: str,
        default: int,
        minimum: Optional[int] = None,
        maximum: Optional[int] = None,
        help: str = "",
    ) -> "Param":
        return Param(name, "int", default, minimum=minimum, maximum=maximum, help=help)

    @staticmethod
    def number(
        name: str,
        default: float,
        minimum: Optional[float] = None,
        maximum: Optional[float] = None,
        help: str = "",
    ) -> "Param":
        return Param(name, "float", default, minimum=minimum, maximum=maximum, help=help)

    @staticmethod
    def choice(
        name: str, default: str, choices: Sequence[str], help: str = ""
    ) -> "Param":
        return Param(name, "str", default, choices=tuple(choices), help=help)

    @staticmethod
    def names(
        name: str,
        default: Sequence[str],
        choices: Sequence[str],
        help: str = "",
    ) -> "Param":
        """An ordered tuple of names, each validated against ``choices``."""
        return Param(name, "strs", tuple(default), choices=tuple(choices), help=help)

    @staticmethod
    def flag(name: str, default: bool, help: str = "") -> "Param":
        return Param(name, "bool", default, help=help)

    # -- validation --------------------------------------------------

    def validate(self, value: object) -> object:
        """Coerce and range-check one override; raises on bad input."""
        if self.kind == "bool":
            if not isinstance(value, bool):
                raise ConfigurationError(
                    f"param {self.name!r} must be a bool, got {value!r}"
                )
            return value
        if self.kind == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigurationError(
                    f"param {self.name!r} must be an int, got {value!r}"
                )
            return self._bounded(value)
        if self.kind == "float":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigurationError(
                    f"param {self.name!r} must be a number, got {value!r}"
                )
            return float(self._bounded(float(value)))
        if self.kind == "strs":
            if isinstance(value, str):
                value = (value,)
            if not isinstance(value, (list, tuple)):
                raise ConfigurationError(
                    f"param {self.name!r} must be a list of names, got {value!r}"
                )
            return tuple(self._choice(item) for item in value)
        return self._choice(value)

    def _bounded(self, value: float) -> float:
        if self.minimum is not None and value < self.minimum:
            raise ConfigurationError(
                f"param {self.name!r} must be >= {self.minimum:g}, got {value!r}"
            )
        if self.maximum is not None and value > self.maximum:
            raise ConfigurationError(
                f"param {self.name!r} must be <= {self.maximum:g}, got {value!r}"
            )
        return value

    def _choice(self, value: object) -> object:
        if not isinstance(value, str):
            raise ConfigurationError(
                f"param {self.name!r} must be a string, got {value!r}"
            )
        if self.choices is not None and value not in self.choices:
            raise ConfigurationError(
                f"param {self.name!r} must be one of "
                f"{', '.join(map(str, self.choices))}; got {value!r}"
            )
        return value

    def describe(self) -> str:
        """One-token summary for ``repro-experiments list``."""
        default = (
            ",".join(self.default) if isinstance(self.default, tuple) else self.default
        )
        detail = self.kind
        if self.choices is not None and self.kind != "strs":
            detail = "|".join(map(str, self.choices))
        elif self.minimum is not None or self.maximum is not None:
            low = "" if self.minimum is None else f"{self.minimum:g}<="
            high = "" if self.maximum is None else f"<={self.maximum:g}"
            detail = f"{self.kind}, {low}{self.name}{high}"
        return f"{self.name}={default} ({detail})"


@dataclass(frozen=True)
class ParamSpace:
    """An ordered, validating collection of :class:`Param`."""

    params: Tuple[Param, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        seen = set()
        for param in self.params:
            if param.name in seen:
                raise ConfigurationError(f"duplicate param {param.name!r}")
            seen.add(param.name)

    def __iter__(self) -> Iterator[Param]:
        return iter(self.params)

    def __contains__(self, name: str) -> bool:
        return any(param.name == name for param in self.params)

    def param(self, name: str) -> Param:
        for param in self.params:
            if param.name == name:
                return param
        raise ConfigurationError(
            f"unknown param {name!r}; choose from "
            f"{', '.join(param.name for param in self.params)}"
        )

    def defaults(self) -> Dict[str, object]:
        """The fully-defaulted parameter mapping (insertion-ordered)."""
        return {param.name: param.default for param in self.params}

    def resolve(self, overrides: Optional[Mapping[str, object]] = None) -> Dict[str, object]:
        """Validate ``overrides`` into a complete parameter mapping."""
        overrides = dict(overrides or {})
        unknown = set(overrides) - {param.name for param in self.params}
        if unknown:
            raise ConfigurationError(
                f"unknown param(s) {', '.join(sorted(map(repr, unknown)))}; "
                f"choose from {', '.join(param.name for param in self.params)}"
            )
        resolved = {}
        for param in self.params:
            if param.name in overrides:
                resolved[param.name] = param.validate(overrides[param.name])
            else:
                resolved[param.name] = param.default
        return resolved

    def grid(
        self,
        axes: Mapping[str, Sequence[object]],
        base: Optional[Mapping[str, object]] = None,
    ) -> List[Dict[str, object]]:
        """Cross product of ``axes`` over this space, each point resolved.

        Axis order follows the mapping's insertion order; the first
        axis varies slowest (matching the nesting of a hand-written
        ``for`` loop over the same values).
        """
        names = list(axes)
        combos = itertools.product(*(axes[name] for name in names))
        points = []
        for combo in combos:
            overrides = dict(base or {})
            overrides.update(zip(names, combo))
            points.append(self.resolve(overrides))
        return points

    def derive(
        self,
        defaults: Optional[Mapping[str, object]] = None,
        extra: Sequence[Param] = (),
    ) -> "ParamSpace":
        """A child space: new defaults for existing params, plus new ones."""
        defaults = dict(defaults or {})
        unknown = set(defaults) - {param.name for param in self.params}
        if unknown:
            raise ConfigurationError(
                f"cannot override unknown param(s) "
                f"{', '.join(sorted(map(repr, unknown)))}"
            )
        children = []
        for param in self.params:
            if param.name in defaults:
                children.append(
                    replace(param, default=param.validate(defaults[param.name]))
                )
            else:
                children.append(param)
        return ParamSpace(tuple(children) + tuple(extra))

    def describe(self) -> str:
        """Space summary for ``repro-experiments list``."""
        return "  ".join(param.describe() for param in self.params)
