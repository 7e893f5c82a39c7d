"""The seven benchmark scenes of Table 1.

Parameters are calibrated against the paper's Table 1: screen size,
depth complexity and pixels-per-triangle are taken directly from the
table; texture counts/sizes and texel scales are set so the measured
working set, unique texel-to-fragment ratio and cache behaviour land in
the right regime per scene (see EXPERIMENTS.md for measured vs. paper).

Regimes that matter downstream:

* ``room3`` — huge triangle count, small triangles, deep overdraw.
* ``teapot_full`` — one large minified texture: compulsory-miss heavy,
  the high-ratio curve family of Figure 6.
* ``quake`` — minified after x4 magnification removal, many textures.
* ``massive1_1255`` / ``massive32_1255`` — the SPEC Quake2 frame at x2
  and x32 magnification removal; small repeated textures.
* ``blowout775`` — tiny working set, heavily repeated textures: the
  scene whose ratio *improves* with more processors.
* ``truc640`` — the Figure-8 buffering scene.
"""

from __future__ import annotations

import os
from typing import Dict

from repro.errors import ConfigurationError
from repro.geometry.scene import Scene
from repro.workloads.generator import ClusterSpec, SceneSpec, generate_scene

SCENE_SPECS: Dict[str, SceneSpec] = {
    "room3": SceneSpec(
        name="room3",
        screen_width=1280,
        screen_height=1024,
        depth_complexity=9.9,
        pixels_per_triangle=80.0,
        num_textures=24,
        texture_edges=((128, 0.7), (256, 0.3)),
        texel_scale=0.42,
        texel_scale_spread=0.4,
        clusters=ClusterSpec(count=5, weight=0.7, sigma_fraction=0.06),
        object_grid=4,
        seed=101,
    ),
    "teapot_full": SceneSpec(
        name="teapot_full",
        screen_width=1280,
        screen_height=1024,
        depth_complexity=2.1,
        pixels_per_triangle=280.0,
        num_textures=1,
        texture_edges=((1024, 1.0),),
        texel_scale=2.1,
        texel_scale_spread=0.15,
        texture_window=0.02,
        clusters=ClusterSpec(count=1, weight=0.85, sigma_fraction=0.10),
        object_grid=4,
        seed=102,
    ),
    "quake": SceneSpec(
        name="quake",
        screen_width=1152,
        screen_height=870,
        depth_complexity=1.9,
        pixels_per_triangle=270.0,
        num_textures=954,
        texture_edges=((64, 0.6), (128, 0.4)),
        texel_scale=1.1,
        texel_scale_spread=0.3,
        clusters=ClusterSpec(count=3, weight=0.5, sigma_fraction=0.12),
        object_grid=2,
        seed=103,
    ),
    "massive1_1255": SceneSpec(
        name="massive1_1255",
        screen_width=1600,
        screen_height=1200,
        depth_complexity=4.1,
        pixels_per_triangle=615.0,
        num_textures=1055,
        texture_edges=((16, 0.7), (32, 0.25), (64, 0.05)),
        texel_scale=0.9,
        texel_scale_spread=0.35,
        clusters=ClusterSpec(count=4, weight=0.65, sigma_fraction=0.08),
        object_grid=3,
        seed=104,
    ),
    "massive32_1255": SceneSpec(
        name="massive32_1255",
        screen_width=1600,
        screen_height=1200,
        depth_complexity=4.1,
        pixels_per_triangle=615.0,
        num_textures=1055,
        texture_edges=((32, 0.45), (64, 0.4), (128, 0.15)),
        texel_scale=1.05,
        texel_scale_spread=0.35,
        clusters=ClusterSpec(count=4, weight=0.65, sigma_fraction=0.08),
        object_grid=3,
        seed=104,
    ),
    "blowout775": SceneSpec(
        name="blowout775",
        screen_width=1600,
        screen_height=1200,
        depth_complexity=3.0,
        pixels_per_triangle=992.0,
        num_textures=1778,
        texture_edges=((16, 0.6), (32, 0.4)),
        texel_scale=0.75,
        texel_scale_spread=0.3,
        clusters=ClusterSpec(count=4, weight=0.6, sigma_fraction=0.09),
        object_grid=3,
        seed=105,
    ),
    "truc640": SceneSpec(
        name="truc640",
        screen_width=1600,
        screen_height=1200,
        depth_complexity=4.3,
        pixels_per_triangle=680.0,
        num_textures=1530,
        texture_edges=((16, 0.5), (32, 0.35), (64, 0.15)),
        texel_scale=0.9,
        texel_scale_spread=0.35,
        clusters=ClusterSpec(count=5, weight=0.65, sigma_fraction=0.07),
        object_grid=3,
        seed=106,
    ),
}

#: A Viewperf-like CAD frame — NOT one of the paper's benchmarks.  The
#: paper rejects the SPEC Viewperf suite as unrepresentative of virtual
#: reality texture mapping (Section 4.2): CAD frames have huge flat
#: triangles, almost no overdraw and trivial texture working sets.
#: This spec exists so the contrast experiment can show *why* those
#: scenes cannot exercise a texture-cache study.
CAD_CONTRAST_SPEC = SceneSpec(
    name="viewperf_cad",
    screen_width=1280,
    screen_height=1024,
    depth_complexity=1.3,
    pixels_per_triangle=2400.0,
    num_textures=2,
    texture_edges=((64, 1.0),),
    texel_scale=0.15,
    texel_scale_spread=0.2,
    clusters=ClusterSpec(count=1, weight=0.3, sigma_fraction=0.2),
    object_grid=2,
    rotated_fraction=0.6,
    seed=107,
)

#: Paper order, as the tables print them.
SCENE_NAMES = (
    "room3",
    "teapot_full",
    "quake",
    "massive1_1255",
    "massive32_1255",
    "blowout775",
    "truc640",
)

#: Environment variable overriding the default experiment scale.
SCALE_ENV_VAR = "REPRO_SCALE"
#: Default linear scale experiments run at (1.0 == the paper's frames).
DEFAULT_SCALE = 0.25

def experiment_scale() -> float:
    """Linear scene scale for experiments (REPRO_SCALE overrides)."""
    raw = os.environ.get(SCALE_ENV_VAR)
    if raw is None:
        return DEFAULT_SCALE
    try:
        scale = float(raw)
    except ValueError as exc:
        raise ConfigurationError(f"{SCALE_ENV_VAR} must be a float, got {raw!r}") from exc
    if not 0 < scale <= 1:
        raise ConfigurationError(f"{SCALE_ENV_VAR} must be in (0, 1], got {scale}")
    return scale


def build_scene(name: str, scale: float = 1.0, cache: bool = True) -> Scene:
    """Build a named benchmark scene.

    Memoised per (name, scale) through the artifact pipeline's scene
    stage — repeated builds in one process return the same object, and
    with a ``REPRO_ARTIFACT_DIR`` configured, worker processes hydrate
    the generated scene from disk instead of regenerating it.
    ``cache=False`` bypasses the store and always regenerates.
    """
    if name not in SCENE_SPECS:
        raise ConfigurationError(
            f"unknown scene {name!r}; choose from {', '.join(SCENE_NAMES)}"
        )
    if not cache:
        return generate_scene(SCENE_SPECS[name], scale=scale)
    from repro.pipeline import scene_artifact

    return scene_artifact(name, scale)

