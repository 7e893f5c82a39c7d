"""Deterministic cache keys for pipeline artifacts.

An artifact's identity is the content identity of everything that went
into computing it: the scene (spec fingerprint + scale), the stage's
own configuration (distribution, cache geometry, texture layout,
routing mode, ...), and nothing else.  Keys are plain strings so they
are printable, diffable and stable across processes — two workers that
derive the same key are by construction computing the same artifact.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.texture.layout import TextureMemoryLayout


def fingerprint(text: str) -> str:
    """Short stable digest of an arbitrary description string."""
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:16]


def spec_fingerprint(spec) -> str:
    """Digest of a frozen dataclass spec (``repr`` is deterministic)."""
    return fingerprint(repr(spec))


def scene_key(spec, scale: float) -> str:
    """Identity of a generated scene: name, scale and full spec."""
    return f"{spec.name}@{scale:g}#{spec_fingerprint(spec)}"


def distribution_key(distribution) -> str:
    """Identity of a distribution (delegates to ``fingerprint()``)."""
    return distribution.fingerprint()


def cache_key(cache_spec: str, cache_config) -> str:
    """Identity of a cache model name and its optional geometry."""
    if cache_config is None:
        return cache_spec
    return f"{cache_spec}#{spec_fingerprint(cache_config)}"


def translator_key(translator) -> str:
    """Identity of a replay's line translation.

    ``"direct"`` when absent, else the mapping the
    :class:`~repro.texture.pages.FrameLines` was translated through.
    """
    if translator is None:
        return "direct"
    return translator.cache_key()


def layout_key(scene, layout: Optional["TextureMemoryLayout"]) -> str:
    """Identity of a texture-memory layout *for this scene's textures*.

    ``None`` (the scene's own block-linear layout) maps to ``default``.
    An explicit layout is keyed by its geometry knobs; it must have
    been built over ``scene.textures`` (which is how every caller
    constructs one — a layout over foreign textures would be
    meaningless for the scene's fragment stream anyway).
    """
    if layout is None:
        return "default"
    width, height = layout.block_shape
    return f"block{width}x{height}/b{layout.bytes_per_texel}"
