"""Staged experiment pipeline with a memoized artifact store.

Every figure of the paper is a sweep over hundreds of (scene,
distribution, processors, FIFO, bus) points whose expensive prefixes —
scene generation, rasterisation, routing, cache replay — repeat across
points.  This package makes the pipeline explicit: each stage produces
an artifact with a deterministic content-identity key, stored in an
in-memory LRU with an optional disk tier (``REPRO_ARTIFACT_DIR``)
shared across sweep points and worker processes.

Public surface::

    from repro import pipeline

    scene = pipeline.scene_artifact("truc640", 0.25)   # stage 1
    frags = pipeline.fragments_artifact(scene)          # stage 2
    work = pipeline.routed_work(scene, distribution)    # stages 3-5

    pipeline.stats()        # {stage: counters} snapshot
    pipeline.render_stats(pipeline.stats())  # printable table
    pipeline.reset()        # drop memory entries + counters (tests)
    pipeline.configure(disk_dir=...)         # attach/replace the store

``repro.core.routing.build_routed_work`` and
``repro.workloads.scenes.build_scene`` route through these stages, so
existing call sites inherit the memoization without change.

Stage stats live only in the :mod:`repro.obs` registry: ``pipeline.*``
counters labelled ``stage=<stage>``, plus ``stage.<stage>`` (compute)
and ``load.<stage>`` (disk) spans.  ``stats()`` reads them back for
``--timings``, ``--metrics-out`` and the service's ``/metrics``.
"""

from __future__ import annotations

from repro.pipeline.stages import (
    fragments_artifact,
    routed_work,
    scene_artifact,
    stage_timer,
)
from repro.pipeline.store import (
    ARTIFACT_DIR_ENV_VAR,
    ARTIFACT_ENTRIES_ENV_VAR,
    ArtifactStore,
    configure,
    render_stats,
    shared_store,
    stats,
    store,
)

__all__ = [
    "ARTIFACT_DIR_ENV_VAR",
    "ARTIFACT_ENTRIES_ENV_VAR",
    "ArtifactStore",
    "configure",
    "fragments_artifact",
    "render_stats",
    "reset",
    "routed_work",
    "scene_artifact",
    "shared_store",
    "stage_timer",
    "stats",
    "store",
]


def reset() -> None:
    """Drop every in-memory artifact and all counters (disk untouched)."""
    store().clear()
