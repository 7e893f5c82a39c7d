"""The staged execution graph: scene → fragments → routing → replay → work.

Each stage function returns its artifact, consulting the process-wide
:class:`~repro.pipeline.store.ArtifactStore` first.  Stage keys are
deterministic content identities (:mod:`repro.pipeline.keys`), so
hundreds of sweep points that share a prefix — every Figure-7 point of
one scene shares the scene and its rasterisation; every FIFO size of
one machine shares the whole routed work — compute that prefix once.

Inputs that have no content identity (hand-built scenes, layouts
without block-shape knobs, fragment-stream overrides) fall back to
direct computation: correctness never depends on the cache, only
speed.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from repro.obs.spans import span
from repro.pipeline import keys
from repro.pipeline.store import publish, store


def _timed(stage: str, compute):
    """Run an uncacheable stage computation, attributing its wall time."""
    with stage_timer(stage):
        return compute()


@contextmanager
def stage_timer(stage: str):
    """Attribute a ``with`` block's wall time to ``stage`` (e.g. timing).

    The block counts as one uncached call of ``stage`` and runs under
    an obs span named ``stage.<stage>``, so its duration lands in the
    ``span.stage.<stage>`` registry histogram that the ``--timings``
    table sums and, when tracing is enabled, on the host track of the
    Chrome trace.
    """
    publish("calls", stage)
    with span(f"stage.{stage}"):
        yield


def scene_artifact(name: str, scale: float):
    """Stage 1: a generated benchmark scene, by (name, scale, spec, format) key."""
    from repro.geometry.scene import SCENE_FORMAT
    from repro.workloads.scenes import SCENE_SPECS

    spec = SCENE_SPECS[name]
    key = f"{keys.scene_key(spec, scale)}/{SCENE_FORMAT}"

    def compute():
        from repro.workloads.generator import generate_scene

        return generate_scene(spec, scale=scale)

    return store().get_or_compute("scene", key, compute)


def fragments_artifact(scene):
    """Stage 2: the scene's rasterised fragment stream, by (scene, format) key.

    The scene object's own lazy memo is the fastest tier; the store
    adds cross-object (and, with a disk dir, cross-process) reuse for
    scenes that carry an ``artifact_key``.
    """
    from repro.raster.fragments import FRAGMENTS_FORMAT

    if scene._fragments is not None:
        publish("calls", "fragments")
        publish("memory_hits", "fragments")
        return scene._fragments
    key = getattr(scene, "artifact_key", None)
    if key is None:
        return _timed("fragments", scene.fragments)
    value = store().get_or_compute(
        "fragments", f"{key}/{FRAGMENTS_FORMAT}", scene.fragments
    )
    scene._fragments = value
    return value


def routed_work(
    scene,
    distribution,
    cache_spec="lru",
    cache_config=None,
    setup_cycles: int = 25,
    chunk_size: Optional[int] = None,
    layout=None,
    route_by: str = "bbox",
    fragments=None,
    translator=None,
):
    """Stages 3-5: routing plan, cache replay, assembled per-node work.

    The plan is keyed without the cache (an oracle-vs-bbox routing
    contrast shares its replay) and the replay is keyed without the
    routing mode or setup cost (a setup sweep shares its replay); the
    assembled :class:`~repro.core.routing.RoutedWork` is memoized in
    memory only, since it is cheap to reassemble from its parents.
    ``translator`` (one frame's line table, built through a
    virtual-texturing page table) joins the replay key through the
    mapping it was translated through, so a memoized replay can never
    leak across residency states.

    Both stages read the stream's ``distribution.owners``; they get one
    memoized callable, so the pass (:func:`~repro.core.routing.frame_owners`,
    a ``uint8`` column up to 256 nodes) runs inside the first stage that
    needs it (and is timed with it), at most once per call, and is kept
    in neither artifact.
    """
    from repro.cache.models import make_cache_model
    from repro.core import routing

    scene_id = getattr(scene, "artifact_key", None)
    cache_part = keys.cache_key(cache_spec, cache_config)
    layout_part = keys.layout_key(scene, layout)
    translator_part = keys.translator_key(translator)
    cacheable = scene_id is not None and fragments is None and layout_part is not None
    owners = None

    def frame():
        frags = fragments if fragments is not None else fragments_artifact(scene)

        def owners_once():
            nonlocal owners
            if owners is None:
                owners = routing.frame_owners(distribution, frags)
            return owners

        return frags, owners_once

    def plan():
        frags, frag_owners = frame()
        return routing.compute_routing_plan(
            scene, distribution, frags, frag_owners, route_by
        )

    def replay():
        frags, frag_owners = frame()
        return routing.compute_replay(
            scene,
            distribution,
            frags,
            frag_owners,
            cache_spec,
            cache_config,
            layout,
            chunk_size,
            translator=translator,
        )

    cache_name = make_cache_model(cache_spec, cache_config).name
    if not cacheable:
        if fragments is None:
            fragments = fragments_artifact(scene)
        return routing.assemble_routed_work(
            _timed("routing", plan), _timed("replay", replay),
            scene, distribution, cache_name, setup_cycles,
        )

    s = store()
    dist_part = keys.distribution_key(distribution)
    plan_key = f"{scene_id}/{dist_part}/{route_by}/{routing.PLAN_FORMAT}"
    replay_key = (
        f"{scene_id}/{dist_part}/{cache_part}/{layout_part}/chunk{chunk_size or 0}"
    )
    if translator_part != "direct":
        replay_key += f"/{translator_part}"
    # The work carries the distribution's label, which a fingerprint
    # may leave out (AssignedTiles keys its table, not its label).
    work_key = f"{plan_key}|{replay_key}|setup{setup_cycles}|{distribution.describe()}"

    def assemble():
        return routing.assemble_routed_work(
            s.get_or_compute("routing", plan_key, plan),
            s.get_or_compute("replay", replay_key, replay),
            scene,
            distribution,
            cache_name,
            setup_cycles,
        )

    return s.get_or_compute("routed", work_key, assemble, disk=False)
