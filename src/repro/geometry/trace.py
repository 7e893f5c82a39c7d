"""Triangle-trace files.

The paper extracted traces from an instrumented Mesa and replayed them
in the simulator.  This module defines the equivalent on-disk format so
scenes can be captured once and replayed deterministically: a small
text header describing the screen and texture table, then one line per
triangle in submission order.

Format (whitespace separated)::

    REPRO-TRACE 2
    scene <name>
    screen <width> <height>
    textures <count>
    texture <width> <height>          # repeated <count> times
    triangles <count>
    tri <tex> <x y u v z> <x y u v z> <x y u v z>

Version 1 files (no per-vertex depth, 13-field ``tri`` records) are
still read; depths load as 0.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Union

import numpy as np

from repro.errors import TraceFormatError
from repro.geometry.scene import VERTEX_COLUMNS, Scene
from repro.texture.texture import MipmappedTexture

_MAGIC = "REPRO-TRACE"
_VERSION = 2
_SUPPORTED_VERSIONS = ("1", "2")


def save_trace(scene: Scene, path: Union[str, Path]) -> None:
    """Write ``scene`` to ``path`` in the trace format."""
    lines: List[str] = [
        f"{_MAGIC} {_VERSION}",
        f"scene {scene.name}",
        f"screen {scene.width} {scene.height}",
        f"textures {len(scene.textures)}",
    ]
    for texture in scene.textures:
        lines.append(f"texture {texture.width} {texture.height}")
    lines.append(f"triangles {scene.num_triangles}")
    record = "tri {} " + " ".join(["{:.4f}"] * VERTEX_COLUMNS)
    for texture, row in zip(scene.texture_ids.tolist(), scene.vertex_table.tolist()):
        lines.append(record.format(texture, *row))
    Path(path).write_text("\n".join(lines) + "\n")


def _expect(rows: List[List[str]], cursor: int, keyword: str, count: int) -> List[str]:
    if cursor >= len(rows):
        raise TraceFormatError(f"expected '{keyword}' record, got end of file")
    tokens = rows[cursor]
    if tokens[0] != keyword or len(tokens) != count + 1:
        raise TraceFormatError(f"expected '{keyword}' record, got {' '.join(tokens)}")
    return tokens[1:]


def load_trace(path: Union[str, Path]) -> Scene:
    """Read a scene back from a trace file written by :func:`save_trace`."""
    text = Path(path).read_text()
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows or rows[0][0] != _MAGIC:
        raise TraceFormatError(f"{path}: not a repro trace file")
    if rows[0][1:] not in ([v] for v in _SUPPORTED_VERSIONS):
        raise TraceFormatError(f"{path}: unsupported trace version {rows[0][1:]}")
    version = int(rows[0][1])

    cursor = 1
    (name,) = _expect(rows, cursor, "scene", 1)
    cursor += 1
    width, height = (int(t) for t in _expect(rows, cursor, "screen", 2))
    cursor += 1
    (tex_count,) = (int(t) for t in _expect(rows, cursor, "textures", 1))
    cursor += 1
    textures = []
    for _ in range(tex_count):
        tw, th = (int(t) for t in _expect(rows, cursor, "texture", 2))
        textures.append(MipmappedTexture(tw, th))
        cursor += 1
    (tri_count,) = (int(t) for t in _expect(rows, cursor, "triangles", 1))
    cursor += 1

    stride = 5 if version >= 2 else 4
    texture_ids: List[int] = []
    values: List[List[float]] = []
    for _ in range(tri_count):
        fields = _expect(rows, cursor, "tri", 1 + 3 * stride)
        cursor += 1
        texture_ids.append(int(fields[0]))
        values.append([float(f) for f in fields[1:]])
    if len(texture_ids) != tri_count:
        raise TraceFormatError(f"{path}: triangle count mismatch")
    table = np.zeros((tri_count, VERTEX_COLUMNS), dtype=np.float64)
    # Version 1 records carry no depth; its column stays 0.
    table[:, [5 * vertex + k for vertex in range(3) for k in range(stride)]] = np.reshape(
        values, (tri_count, 3 * stride)
    )
    scene = Scene(name, width, height, textures)
    scene.extend(table, texture_ids)
    return scene
