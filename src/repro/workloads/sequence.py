"""Frame sequences: animating a scene for inter-frame studies.

The paper's future work reasons about a user translating the viewpoint
between frames: "If this translation was greater than the tile size,
the L2 would reload different textures in the next frame and the
efficiency would be reduced."  A :func:`pan_sequence` builds exactly
that stimulus: the same world, re-rendered each frame with the camera
panned by a fixed pixel offset, so an object's pixels (and its texels)
migrate across tile — and therefore processor — boundaries.

The world is generated on a canvas enlarged by the total pan, so new
content genuinely enters the screen while old content leaves — a pure
translate of a screen-sized scene would just drain it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

from repro.errors import ConfigurationError
from repro.geometry.scene import Scene
from repro.workloads.generator import SceneSpec, generate_scene


def translate_scene(scene: Scene, dx: float, dy: float, name: str = "",
                    width: int = 0, height: int = 0) -> Scene:
    """A copy of ``scene`` with every triangle moved by ``(dx, dy)``.

    ``width``/``height`` optionally re-window the screen (0 keeps the
    source dimensions).  Texture coordinates are untouched: the same
    world surface keeps the same texels, which is what makes
    inter-frame texture locality exist at all.
    """
    moved = Scene(
        name or scene.name,
        width or scene.width,
        height or scene.height,
        scene.textures,
    )
    table = scene.vertex_table.copy()
    table[:, 0::5] += dx
    table[:, 1::5] += dy
    moved.extend(table, scene.texture_ids)
    return moved


def pan_sequence(
    spec: SceneSpec,
    scale: float,
    frames: int,
    dx_per_frame: int,
    dy_per_frame: int = 0,
) -> List[Scene]:
    """Render ``frames`` frames of a camera panning over a wider world.

    Frame ``k`` shows the world window starting at pixel offset
    ``(k * dx_per_frame, k * dy_per_frame)``.  All frames share the
    same texture table and triangle identities shifted in screen space,
    exactly what a viewpoint translation produces.
    """
    if frames < 1:
        raise ConfigurationError(f"need at least one frame, got {frames}")
    if dx_per_frame < 0 or dy_per_frame < 0:
        raise ConfigurationError("pan offsets must be non-negative")

    scaled = spec.scaled(scale)
    margin_x = dx_per_frame * (frames - 1)
    margin_y = dy_per_frame * (frames - 1)
    # Generate the world on the enlarged canvas, holding density
    # constant (depth complexity is per-pixel, so it carries over).
    world_spec = replace(
        scaled,
        screen_width=scaled.screen_width + margin_x,
        screen_height=scaled.screen_height + margin_y,
    )
    world = generate_scene(world_spec, scale=1.0)

    sequence: List[Scene] = []
    for frame in range(frames):
        offset_x = frame * dx_per_frame
        offset_y = frame * dy_per_frame
        sequence.append(
            translate_scene(
                world,
                -float(offset_x),
                -float(offset_y),
                name=f"{spec.name}@f{frame}",
                width=scaled.screen_width,
                height=scaled.screen_height,
            )
        )
    return sequence
