"""Shared fixtures: small deterministic scenes and machines."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.geometry.scene import Scene
from repro.geometry.triangle import Triangle
from repro.geometry.vertex import Vertex
from repro.texture.texture import MipmappedTexture


@pytest.fixture(autouse=True)
def _reset_observability():
    """Isolate tests from each other's metrics and tracing state."""
    yield
    from repro import obs

    obs.reset()


def _process_state() -> tuple:
    """The ``REPRO_*`` environment and the process-wide store's configuration."""
    from repro import pipeline

    current = pipeline.store()
    env = {name: value for name, value in os.environ.items() if name.startswith("REPRO_")}
    return env, (current.max_entries, current.disk_dir)


@pytest.fixture(autouse=True)
def _hermetic_process_state():
    """Fail a test that leaves ``REPRO_*`` variables or the artifact
    store's configuration changed, then put both back.

    Both reach every later test in the session: a leaked
    ``REPRO_WORKERS`` fans sweeps out over process pools, and a leaked
    disk tier pickles every artifact.
    """
    before = _process_state()
    yield
    after = _process_state()
    if after == before:
        return
    from repro import pipeline

    env, (max_entries, disk_dir) = before
    for name in set(after[0]) - set(env):
        del os.environ[name]
    os.environ.update(env)
    pipeline.configure(max_entries=max_entries, disk_dir=disk_dir)
    pytest.fail(f"test left process state changed: {before} -> {after}", pytrace=False)


def quad(x0: float, y0: float, size: float, texture: int = 0, u0: float = 0.0,
         v0: float = 0.0, texel_scale: float = 1.0) -> list:
    """Two triangles forming an axis-aligned square, shared diagonal."""
    u1 = u0 + size * texel_scale
    v1 = v0 + size * texel_scale
    a = Vertex(x0, y0, u0, v0)
    b = Vertex(x0 + size, y0, u1, v0)
    c = Vertex(x0, y0 + size, u0, v1)
    d = Vertex(x0 + size, y0 + size, u1, v1)
    return [Triangle(a, b, c, texture=texture), Triangle(b, d, c, texture=texture)]


@pytest.fixture
def flat_scene() -> Scene:
    """A 64x64 screen fully tiled by 8x8 quads over one 64x64 texture.

    Every pixel is drawn exactly once and the texture mapping is the
    identity, which makes all the locality arithmetic predictable.
    """
    scene = Scene("flat", 64, 64, [MipmappedTexture(64, 64)])
    for y in range(0, 64, 8):
        for x in range(0, 64, 8):
            for tri in quad(x, y, 8, u0=float(x), v0=float(y)):
                scene.add(tri)
    return scene


@pytest.fixture
def overdraw_scene() -> Scene:
    """A small screen with a hotspot: one corner overdrawn 8 times."""
    scene = Scene("hotspot", 64, 64, [MipmappedTexture(32, 32)])
    for tri in quad(0, 0, 64):
        scene.add(tri)
    for layer in range(8):
        for tri in quad(2, 2, 16, u0=3.0 * layer, v0=5.0 * layer):
            scene.add(tri)
    return scene


@pytest.fixture
def tiny_bench_scene() -> Scene:
    """A miniature generated benchmark scene (deterministic)."""
    from repro.workloads.scenes import build_scene

    return build_scene("truc640", scale=0.0625)


def make_rng(seed: int = 7) -> np.random.Generator:
    return np.random.default_rng(seed)


def footprint_stream(
    rng: np.random.Generator, num_sets: int, length: int
) -> np.ndarray:
    """A cache line stream shaped like trilinear texture footprints.

    Each step re-reads a footprint of 2-4 lines in distinct sets (as
    many as the geometry has), A B C D A B C D ..., with jitter: a line
    skipped or doubled, one line swapped for another tag in its set,
    and occasional jumps to a fresh footprint.  Tags come from a small
    range, so old lines come back.  In set order nearly every access
    re-reads the line already MRU in its set, unlike uniform streams.
    """

    def fresh() -> list:
        size = min(int(rng.integers(2, 5)), num_sets)
        sets = rng.choice(num_sets, size=size, replace=False)
        return [int(tag) * num_sets + int(s) for tag, s in
                zip(rng.integers(0, 8, size=size), sets)]

    footprint = fresh()
    lines: list = []
    while len(lines) < length:
        roll = rng.random()
        if roll < 0.05:
            footprint = fresh()
        elif roll < 0.2:
            at = int(rng.integers(len(footprint)))
            footprint[at] = int(rng.integers(0, 8)) * num_sets + footprint[at] % num_sets
        for line in footprint:
            roll = rng.random()
            if roll < 0.1:
                continue
            lines.extend([line, line] if roll > 0.9 else [line])
    return np.asarray(lines[:length], dtype=np.int64)


def shared_set_stream(
    rng: np.random.Generator, num_sets: int, length: int
) -> np.ndarray:
    """A footprint-shaped line stream whose footprint lines may share a set.

    Unlike :func:`footprint_stream`, a footprint draws its 2-5 lines'
    sets with replacement, so two of its lines can alternate inside one
    set (A B A B ... in that set's own order).  Half the footprints are
    explicit same-set cycles of period 2-4, where a line may recur
    within the period (A B A C ...).  The jitter is the same: a line
    skipped or doubled, one swapped for another tag in its set, and
    jumps to a fresh footprint.
    """

    def line(set_index: int) -> int:
        return int(rng.integers(0, 6)) * num_sets + set_index

    def fresh() -> list:
        if rng.random() < 0.5:
            set_index = int(rng.integers(num_sets))
            period = int(rng.integers(2, 5))
            while True:
                cycle = [line(set_index) for _ in range(period)]
                if all(cycle[i] != cycle[i - 1] for i in range(period)):
                    return cycle
        return [line(int(rng.integers(num_sets))) for _ in range(int(rng.integers(2, 6)))]

    footprint = fresh()
    lines: list = []
    while len(lines) < length:
        roll = rng.random()
        if roll < 0.05:
            footprint = fresh()
        elif roll < 0.15:
            at = int(rng.integers(len(footprint)))
            footprint[at] = line(footprint[at] % num_sets)
        for entry in footprint:
            roll = rng.random()
            if roll < 0.05:
                continue
            lines.extend([entry, entry] if roll > 0.95 else [entry])
    return np.asarray(lines[:length], dtype=np.int64)


def periodic_rereads(stream: np.ndarray, num_sets: int, period: int) -> list:
    """Positions whose line equals its set's access ``period`` places back.

    A set's own history skips consecutive repeats of one line (they
    re-read its MRU line), so these are the positions inside the runs
    that the batch LRU replay drops whole periods of.
    """
    found, history = [], {}
    for position, line in enumerate(stream.tolist()):
        past = history.setdefault(line % num_sets, [])
        if past and past[-1] == line:
            continue
        if len(past) >= period and past[-period] == line:
            found.append(position)
        past.append(line)
    return found


def window_cuts(stream: np.ndarray, num_sets: int, window: int = 8) -> list:
    """Call cuts that split a stream-order MRU re-read from its witness.

    For every position whose nearest earlier same-set access among the
    ``window`` positions before it read the same line, each cut from
    just after that access up to the position itself: the two land in
    different calls.
    """
    values = stream.tolist()
    cuts = set()
    for position, line in enumerate(values):
        for back in range(1, min(window, position) + 1):
            earlier = values[position - back]
            if earlier % num_sets == line % num_sets:
                if earlier == line:
                    cuts.update(range(position - back + 1, position + 1))
                break
    return sorted(cuts)
