"""Screen-space textured triangle."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigurationError
from repro.geometry.vertex import Vertex


@dataclass(frozen=True)
class Triangle:
    """One textured triangle of the trace.

    The triangle is already in screen space; ``texture`` names the
    texture (an index into the scene's texture table) its fragments
    sample with trilinear filtering.
    """

    v0: Vertex
    v1: Vertex
    v2: Vertex
    texture: int = 0

    def __post_init__(self) -> None:
        if self.texture < 0:
            raise ConfigurationError(f"texture index must be >= 0, got {self.texture}")

    @property
    def vertices(self) -> Tuple[Vertex, Vertex, Vertex]:
        return (self.v0, self.v1, self.v2)

    def signed_area(self) -> float:
        """Twice-signed area is the cross product; this halves it."""
        ax = self.v1.x - self.v0.x
        ay = self.v1.y - self.v0.y
        bx = self.v2.x - self.v0.x
        by = self.v2.y - self.v0.y
        return 0.5 * (ax * by - ay * bx)

    def area(self) -> float:
        """Unsigned screen-space area in pixels."""
        return abs(self.signed_area())

    def texel_to_pixel_scale(self) -> float:
        """Texels traversed per pixel step, the quantity mip selection uses.

        For the affine texture mappings used throughout this project the
        Jacobian of the (x, y) -> (u, v) map is constant over the
        triangle, so this per-triangle value is exact, not an
        approximation.  Returns 0.0 for degenerate triangles.
        """
        det = 2.0 * self.signed_area()
        if abs(det) < 1e-12:
            return 0.0
        x0, y0, u0, w0 = self.v0.x, self.v0.y, self.v0.u, self.v0.v
        x1, y1, u1, w1 = self.v1.x, self.v1.y, self.v1.u, self.v1.v
        x2, y2, u2, w2 = self.v2.x, self.v2.y, self.v2.u, self.v2.v
        # Solve the affine system for du/dx, du/dy, dv/dx, dv/dy.
        du_dx = ((u1 - u0) * (y2 - y0) - (u2 - u0) * (y1 - y0)) / det
        du_dy = ((u2 - u0) * (x1 - x0) - (u1 - u0) * (x2 - x0)) / det
        dv_dx = ((w1 - w0) * (y2 - y0) - (w2 - w0) * (y1 - y0)) / det
        dv_dy = ((w2 - w0) * (x1 - x0) - (w1 - w0) * (x2 - x0)) / det
        step_x = (du_dx * du_dx + dv_dx * dv_dx) ** 0.5
        step_y = (du_dy * du_dy + dv_dy * dv_dy) ** 0.5
        return max(step_x, step_y)
