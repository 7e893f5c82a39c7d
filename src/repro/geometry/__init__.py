"""Geometry substrate: screen-space triangles, scenes and traces.

The paper drives its simulator with triangle traces extracted from an
instrumented Mesa.  This package defines the equivalent trace format:
screen-space textured triangles, already transformed and projected, in
strict submission (OpenGL) order.
"""

from repro.geometry.vertex import Vertex
from repro.geometry.triangle import Triangle
from repro.geometry.scene import Scene, SceneStatistics
from repro.geometry.trace import load_trace, save_trace

__all__ = [
    "Vertex",
    "Triangle",
    "Scene",
    "SceneStatistics",
    "load_trace",
    "save_trace",
]
