"""Multi-process sweep execution.

A full-scale (``REPRO_SCALE=1.0``) Figure-7 run is hundreds of
independent cache replays; this helper fans the per-scene panels out
over worker processes.  Workers rebuild scenes from their (name,
scale) identity — scenes are deterministic — so nothing heavyweight is
pickled.

Before pooling, the parent spills its in-memory pipeline artifacts to
a shared on-disk store so workers hydrate already-computed
scene/routing/replay stages instead of recomputing them, and artifacts
computed by one worker are visible to the others.  When
``REPRO_ARTIFACT_DIR`` is unset, that store is a temporary directory
that lives only as long as the pool
(:func:`repro.pipeline.shared_store`).

Each pooled task ships its :mod:`repro.obs` registry snapshot back
with its result, and the parent merges them, so ``--timings`` and
``--metrics-out`` count the workers' work.

Failure semantics: a task that raises gets its argument tuple attached
to the exception (``exc.failing_arguments``) so the failing sweep point
is identifiable; a worker process that dies (``BrokenProcessPool``)
degrades the sweep to inline execution with a warning instead of
crashing it.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs.registry import registry

#: Environment variable selecting the worker count for experiments.
WORKERS_ENV_VAR = "REPRO_WORKERS"


def parse_worker_count(raw, label: str = "--workers") -> int:
    """Validate a worker count (int >= 0); ``label`` names the source.

    Shared by the CLI's ``--workers`` flag and the ``REPRO_WORKERS``
    environment variable so both reject bad values identically.
    """
    try:
        workers = int(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{label} must be an int, got {raw!r}") from exc
    if workers < 0:
        raise ConfigurationError(f"{label} must be >= 0, got {workers}")
    return workers


def worker_count() -> int:
    """Worker processes for sweeps (0 = run inline), from the env."""
    raw = os.environ.get(WORKERS_ENV_VAR)
    if raw is None:
        return 0
    return parse_worker_count(raw, label=WORKERS_ENV_VAR)


def run_tasks(
    fn: Callable,
    argument_tuples: Sequence[Tuple],
    workers: int = 0,
) -> List:
    """Apply ``fn`` to each argument tuple, optionally across processes.

    Results come back in submission order.  ``fn`` must be a
    module-level callable (picklable) when ``workers > 0``.  If a task
    raises, the exception propagates with the failing argument tuple
    attached as ``exc.failing_arguments``; if the pool itself breaks
    (a worker was killed), the sweep reruns inline with a warning.
    An empty sweep returns ``[]`` without a pool or a shared disk tier.
    The pool runs inside :func:`repro.pipeline.shared_store`, so a
    temporary tier is gone when it returns.
    """
    from repro import pipeline

    if workers <= 1 or not argument_tuples:
        return _run_inline(fn, argument_tuples)
    try:
        with pipeline.shared_store():
            pipeline.store().flush_to_disk()
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    (arguments, pool.submit(_reporting_task, fn, arguments))
                    for arguments in argument_tuples
                ]
                reports = []
                for arguments, future in futures:
                    try:
                        reports.append(future.result())
                    except BrokenProcessPool:
                        raise
                    except Exception as exc:
                        exc.failing_arguments = arguments
                        raise
    except BrokenProcessPool:
        warnings.warn(
            "sweep worker pool died; rerunning the sweep inline",
            RuntimeWarning,
            stacklevel=2,
        )
        return _run_inline(fn, argument_tuples)
    for _result, snapshot in reports:
        registry().merge(snapshot)
    return [result for result, _snapshot in reports]


def _reporting_task(fn: Callable, arguments: Tuple) -> Tuple[object, Dict]:
    """Pool task body: ``fn(*arguments)`` and the registry snapshot of
    just this task (a forked worker starts with the parent's series)."""
    registry().reset()
    return fn(*arguments), registry().snapshot()


def _run_inline(fn: Callable, argument_tuples: Sequence[Tuple]) -> List:
    results = []
    for arguments in argument_tuples:
        try:
            results.append(fn(*arguments))
        except Exception as exc:
            exc.failing_arguments = arguments
            raise
    return results


def keyed_tasks(
    fn: Callable,
    keyed_arguments: Iterable[Tuple[object, Tuple]],
    workers: int = 0,
) -> Dict:
    """Like :func:`run_tasks` but returns ``{key: result}``."""
    keyed = list(keyed_arguments)
    results = run_tasks(fn, [arguments for _key, arguments in keyed], workers)
    return {key: result for (key, _), result in zip(keyed, results)}
