"""Budgeted auto-search over experiment trial spaces.

The driver answers the paper's question — which distribution/geometry
wins — automatically: it enumerates a spec's trial axes (tile size /
SLI height / FIFO depth / cache geometry), evaluates trials as
simulate jobs, and keeps going until a **budget** of simulated cycles
or wall seconds runs out.  Two strategies:

* ``grid`` — the full cross product (optionally seeded-subsampled to
  ``max_trials``), evaluated at the experiment's scale;
* ``halving`` — successive halving: all candidates start at a reduced
  scene scale (cheap, low fidelity), the top ``1/eta`` per rung are
  promoted to the next scale, and only the finalists pay full price.

Trials run as jobs through one
:class:`~repro.service.client.JobDispatcher`: on an in-process
:class:`~repro.service.scheduler.Scheduler` with local worker threads
(inline search, and the ``POST /searches`` path on the service's own
scheduler), or over HTTP on a coordinator + worker fleet (the CLI's
``search --url``).  Either way every trial is leased, retried and
deduplicated like any other job.  :class:`TrialDispatcher` is the seam
a test fake plugs into.  Every trial and the final search report are
archived as re-runnable records (:mod:`repro.expfw.archive`).

Determinism: the driver takes an **explicit seed** and threads it
through a ``numpy.random.Generator`` — candidate subsampling and the
per-trial seeds recorded into the archive all derive from it; there is
no global PRNG state, so the same seed reproduces the same trial
sequence and the same record keys.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Protocol, Sequence

import numpy as np

from repro.errors import ConfigurationError, ServiceError
from repro.expfw.archive import RunArchive, environment_fingerprint, trial_record
from repro.expfw.spec import ExperimentSpec, searchable_spec
from repro.pipeline.keys import fingerprint


class TrialDispatcher(Protocol):
    """Anything that can evaluate one wave of trial payloads."""

    def run_many(self, payloads: Sequence[Dict]) -> List[Dict]: ...

STRATEGIES = ("grid", "halving", "both")
BUDGET_UNITS = ("cycles", "seconds")

#: Smallest scene scale a halving rung may drop to.
MIN_RUNG_SCALE = 1.0 / 64.0


# -- configuration ----------------------------------------------------


@dataclass
class SearchConfig:
    """One search request (the ``POST /searches`` body, validated)."""

    experiment: str
    budget: float
    unit: str = "cycles"
    strategy: str = "both"
    seed: int = 0
    overrides: Dict[str, object] = field(default_factory=dict)
    fixed: Dict[str, object] = field(default_factory=dict)
    max_trials: Optional[int] = None
    eta: int = 2
    rungs: int = 3
    wave: int = 4

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ConfigurationError(
                f"unknown strategy {self.strategy!r}; choose from "
                f"{', '.join(STRATEGIES)}"
            )
        if self.unit not in BUDGET_UNITS:
            raise ConfigurationError(
                f"unknown budget unit {self.unit!r}; choose from "
                f"{', '.join(BUDGET_UNITS)}"
            )
        if self.budget <= 0:
            raise ConfigurationError(f"budget must be positive, got {self.budget}")
        if self.eta < 2:
            raise ConfigurationError(f"eta must be >= 2, got {self.eta}")
        if self.rungs < 1:
            raise ConfigurationError(f"rungs must be >= 1, got {self.rungs}")
        if self.wave < 1:
            raise ConfigurationError(f"wave must be >= 1, got {self.wave}")
        if self.max_trials is not None and self.max_trials < 1:
            raise ConfigurationError(
                f"max_trials must be >= 1, got {self.max_trials}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigurationError(f"seed must be an int, got {self.seed!r}")

    def to_json(self) -> Dict[str, object]:
        return {
            "experiment": self.experiment,
            "budget": self.budget,
            "unit": self.unit,
            "strategy": self.strategy,
            "seed": self.seed,
            "overrides": dict(self.overrides),
            "fixed": dict(self.fixed),
            "max_trials": self.max_trials,
            "eta": self.eta,
            "rungs": self.rungs,
            "wave": self.wave,
        }


_CONFIG_KEYS = (
    "experiment",
    "budget",
    "unit",
    "strategy",
    "seed",
    "overrides",
    "fixed",
    "max_trials",
    "eta",
    "rungs",
    "wave",
)


def parse_search_payload(payload: Mapping) -> SearchConfig:
    """Validate a JSON search request into a :class:`SearchConfig`."""
    if not isinstance(payload, Mapping):
        raise ConfigurationError(
            f"a search request must be a JSON object, got {type(payload).__name__}"
        )
    unknown = set(payload) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigurationError(
            f"unknown search field(s) {', '.join(sorted(map(repr, unknown)))}; "
            f"choose from {', '.join(_CONFIG_KEYS)}"
        )
    if "experiment" not in payload:
        raise ConfigurationError("a search request needs an 'experiment' name")
    if "budget" not in payload:
        raise ConfigurationError("a search request needs a 'budget'")
    kwargs: Dict[str, object] = {}
    for name in _CONFIG_KEYS:
        if name in payload:
            kwargs[name] = payload[name]
    for name in ("overrides", "fixed"):
        if name in kwargs and not isinstance(kwargs[name], Mapping):
            raise ConfigurationError(f"search {name!r} must be an object")
    try:
        config = SearchConfig(**kwargs)  # type: ignore[arg-type]
    except TypeError as exc:
        raise ConfigurationError(f"invalid search request: {exc}") from exc
    searchable_spec(config.experiment)  # fail fast on unknown experiments
    return config


# -- budget -----------------------------------------------------------


class Budget:
    """Spend tracker: simulated cycles or wall seconds."""

    def __init__(self, limit: float, unit: str) -> None:
        self.limit = limit
        self.unit = unit
        self.spent = 0.0

    def charge(self, result: Mapping) -> None:
        if self.unit == "cycles":
            metrics = result.get("metrics") or {}
            self.spent += float(metrics.get("cycles") or 0.0)
        else:
            self.spent += float(result.get("elapsed_seconds") or 0.0)

    def exhausted(self) -> bool:
        return self.spent >= self.limit

    def snapshot(self) -> Dict[str, float]:
        return {"limit": self.limit, "unit": self.unit, "spent": self.spent}


# -- trials -----------------------------------------------------------


@dataclass
class Trial:
    """One evaluated (or pending) search point."""

    point: Dict[str, object]
    payload: Dict[str, object]
    seed: int
    strategy: str
    rung: int = 0
    result: Optional[Dict] = None
    record_key: Optional[str] = None

    def metric(self, objective: str) -> Optional[float]:
        if self.result is None:
            return None
        metrics = self.result.get("metrics") or {}
        value = metrics.get(objective)
        return None if value is None else float(value)


# -- the driver -------------------------------------------------------


class SearchDriver:
    """Runs one budgeted search and archives everything it evaluates."""

    def __init__(
        self,
        config: SearchConfig,
        dispatcher: TrialDispatcher,
        archive: Optional[RunArchive] = None,
    ) -> None:
        self.config = config
        self.spec: ExperimentSpec = searchable_spec(config.experiment)
        self.dispatcher = dispatcher
        self.archive = archive if archive is not None else RunArchive()
        self.rng = np.random.default_rng(config.seed)
        self.budget = Budget(config.budget, config.unit)
        self.trials: List[Trial] = []
        self.dropped = 0

    # -- candidate enumeration --------------------------------------

    def _candidates(self, params: Mapping[str, object]) -> List[Dict[str, object]]:
        axes = self.spec.trial.axes_for(params)
        names = list(axes)
        points: List[Dict[str, object]] = [{}]
        for name in names:
            points = [
                {**point, name: value} for point in points for value in axes[name]
            ]
        if self.config.max_trials is not None and len(points) > self.config.max_trials:
            picked = self.rng.choice(
                len(points), size=self.config.max_trials, replace=False
            )
            points = [points[index] for index in sorted(int(i) for i in picked)]
        return points

    # -- evaluation ---------------------------------------------------

    def _evaluate(
        self,
        params: Mapping[str, object],
        points: Sequence[Dict[str, object]],
        strategy: str,
        rung: int,
        scale: Optional[float] = None,
    ) -> List[Trial]:
        """Evaluate ``points`` in waves until done or budget exhausted."""
        fixed = dict(self.config.fixed)
        if scale is not None:
            fixed["scale"] = scale
        pending = [
            Trial(
                point=dict(point),
                payload=self.spec.trial.payload(params, point, fixed=fixed),
                seed=int(self.rng.integers(0, 2**31 - 1)),
                strategy=strategy,
                rung=rung,
            )
            for point in points
        ]
        evaluated: List[Trial] = []
        cursor = 0
        while cursor < len(pending):
            if self.budget.exhausted():
                self.dropped += len(pending) - cursor
                break
            wave = pending[cursor : cursor + self.config.wave]
            cursor += len(wave)
            results = self.dispatcher.run_many([trial.payload for trial in wave])
            for trial, result in zip(wave, results):
                trial.result = result
                self.budget.charge(result)
                record = trial_record(
                    experiment=self.spec.name,
                    strategy=trial.strategy,
                    rung=trial.rung,
                    point=trial.point,
                    payload=trial.payload,
                    seed=trial.seed,
                    result=result,
                    spec=self.spec,
                )
                trial.record_key = self.archive.record(record)
                evaluated.append(trial)
        self.trials.extend(evaluated)
        return evaluated

    def _rank(self, trials: Sequence[Trial]) -> List[Trial]:
        objective = self.spec.trial.objective
        scored = [trial for trial in trials if trial.metric(objective) is not None]
        missing = len(trials) - len(scored)
        if missing:
            raise ServiceError(
                f"{missing} trial result(s) carry no {objective!r} metric; "
                "are the workers running an older build?"
            )
        return sorted(
            scored,
            key=lambda trial: trial.metric(objective),
            reverse=self.spec.trial.maximize,
        )

    # -- strategies ---------------------------------------------------

    def _run_grid(self, params: Mapping[str, object]) -> Dict[str, object]:
        points = self._candidates(params)
        evaluated = self._evaluate(params, points, strategy="grid", rung=0)
        return {
            "candidates": len(points),
            "evaluated": len(evaluated),
        }

    def _rung_scales(self, target: float) -> List[float]:
        scales = [
            max(target * self.config.eta ** (r - (self.config.rungs - 1)), MIN_RUNG_SCALE)
            for r in range(self.config.rungs)
        ]
        return [min(scale, target) for scale in scales]

    def _run_halving(self, params: Mapping[str, object]) -> Dict[str, object]:
        points = self._candidates(params)
        scales = self._rung_scales(float(params.get("scale", 0.25)))
        survivors = points
        rung_log = []
        for rung, scale in enumerate(scales):
            evaluated = self._evaluate(
                params, survivors, strategy="halving", rung=rung, scale=scale
            )
            rung_log.append(
                {"rung": rung, "scale": scale, "evaluated": len(evaluated)}
            )
            if not evaluated:
                break
            ranked = self._rank(evaluated)
            if rung == len(scales) - 1:
                survivors = [ranked[0].point]
                break
            keep = max(1, math.ceil(len(ranked) / self.config.eta))
            survivors = [trial.point for trial in ranked[:keep]]
            if self.budget.exhausted():
                break
        return {"candidates": len(points), "rungs": rung_log}

    # -- the public entry point --------------------------------------

    def run(self) -> Dict[str, object]:
        """Execute the search; returns (and archives) the report."""
        started = time.monotonic()
        params = self.spec.resolve(self.config.overrides)
        strategy_log: Dict[str, object] = {}
        if self.config.strategy in ("grid", "both"):
            strategy_log["grid"] = self._run_grid(params)
        if self.config.strategy in ("halving", "both"):
            strategy_log["halving"] = self._run_halving(params)
        winner = self._winner(params)
        report = {
            "version": 1,
            "kind": "search",
            "key": self._report_key(),
            "experiment": self.spec.name,
            "config": self.config.to_json(),
            "params": {
                name: list(v) if isinstance(v, tuple) else v
                for name, v in params.items()
            },
            "objective": self.spec.trial.objective,
            "budget": self.budget.snapshot(),
            "strategies": strategy_log,
            "trials": [trial.record_key for trial in self.trials],
            "dropped": self.dropped,
            "winner": winner,
            "fingerprint": environment_fingerprint(self.spec),
            "elapsed_seconds": time.monotonic() - started,
            "created_at": time.time(),
        }
        self.archive.record(report)
        return report

    def _report_key(self) -> str:
        identity = json.dumps(self.config.to_json(), sort_keys=True)
        return f"search/{self.spec.name}/{fingerprint(identity)}"

    def _winner(self, params: Mapping[str, object]) -> Optional[Dict[str, object]]:
        """Best trial at the highest-fidelity scale evaluated."""
        if not self.trials:
            return None
        target = float(params.get("scale", 0.25))
        full = [
            trial
            for trial in self.trials
            if float(trial.payload.get("scale", target)) == target
        ]
        pool = full if full else self.trials
        best = self._rank(pool)[0]
        return {
            "point": best.point,
            "payload": best.payload,
            "strategy": best.strategy,
            "rung": best.rung,
            "metrics": dict((best.result or {}).get("metrics") or {}),
            "record_key": best.record_key,
            "at_full_scale": bool(full),
        }


def run_search(
    config: SearchConfig,
    dispatcher: Optional[TrialDispatcher] = None,
    archive: Optional[RunArchive] = None,
) -> Dict[str, object]:
    """One-shot convenience over :class:`SearchDriver`.

    With no ``dispatcher``, trials run on an in-process scheduler with
    ``max(1, worker_count())`` local worker threads.
    """
    if dispatcher is not None:
        return SearchDriver(config, dispatcher, archive=archive).run()
    from repro.analysis.parallel import worker_count
    from repro.service import JobDispatcher, Scheduler

    scheduler = Scheduler(local_workers=max(1, worker_count())).start()
    try:
        return SearchDriver(config, JobDispatcher(scheduler), archive=archive).run()
    finally:
        scheduler.stop()


def render_report(report: Dict[str, object]) -> str:
    """Human-readable search summary for the CLI."""
    lines = [
        f"search {report['experiment']} ({report['config']['strategy']}, "
        f"seed={report['config']['seed']})",
        f"  budget: {report['budget']['spent']:.0f}/{report['budget']['limit']:.0f} "
        f"{report['budget']['unit']} spent, {len(report['trials'])} trial(s), "
        f"{report['dropped']} dropped",
    ]
    winner = report.get("winner")
    if winner is None:
        lines.append("  winner: none (no trials evaluated)")
    else:
        objective = report.get("objective", "speedup")
        value = winner["metrics"].get(objective)
        point = ", ".join(f"{k}={v}" for k, v in winner["point"].items())
        scope = "full scale" if winner.get("at_full_scale") else "reduced scale only"
        lines.append(
            f"  winner ({winner['strategy']}, {scope}): {point} — "
            f"{objective}={value}"
        )
        lines.append(f"  winner record: {winner['record_key']}")
    lines.append(f"  report record: {report['key']}")
    return "\n".join(lines)
