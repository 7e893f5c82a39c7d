"""Shared helpers for the golden-value regression suite.

Both ``tests/test_golden.py`` and ``scripts/golden_check.py`` (the CI
job) import from here so the definition of a "golden point" — which
scenes, which machines, which metrics, and how they are computed —
lives in exactly one place.

A golden point is one (scene, distribution family, size, processors)
tuple simulated at a tiny deterministic scale.  Its metrics are stored
as JSON in ``tests/golden/<name>.json`` and compared with *exact*
equality: every quantity in the simulator is deterministic, and JSON
round-trips Python floats bit-exactly (``repr`` based), so any drift
is a real behaviour change, not noise.

Regenerate after an intentional change with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden.py
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from repro.analysis.batch import distribution_from_spec, machine_config_from_spec
from repro.core.machine import simulate_machine, single_processor_baseline
from repro.workloads.scenes import build_scene
from repro.workloads.vt import run_vt_sequence

#: Directory of committed golden JSON files.
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: sha256 digests of generated scenes' vertex tables and texture
#: columns (``tests/test_scene_columns.py``); not a golden point.
SCENE_TABLES_PATH = GOLDEN_DIR / "scene_tables.json"

#: Environment variable that switches the suite into regeneration mode.
UPDATE_ENV_VAR = "REPRO_UPDATE_GOLDEN"

#: Linear scene scale the golden points run at (tiny but non-trivial).
GOLDEN_SCALE = 0.0625

#: (scene, family, size, processors) for every committed point.
GOLDEN_POINTS: Tuple[Tuple[str, str, int, int], ...] = tuple(
    (scene, family, size, processors)
    for scene in ("truc640", "blowout775", "quake")
    for family, size in (("block", 16), ("sli", 2))
    for processors in (1, 4)
)

#: Linear scale of the large points — half the paper's Table-1 frame,
#: affordable now that the hot path is array-native.
LARGE_SCALE = 0.5

#: Two points near Table-1 resolution; their files carry an ``_s<pct>``
#: suffix so the original small-scale names stay untouched.
LARGE_POINTS: Tuple[Tuple[str, str, int, int, float], ...] = (
    ("truc640", "block", 16, 4, LARGE_SCALE),
    ("blowout775", "sli", 2, 4, LARGE_SCALE),
)

#: Every committed point, normalised to (scene, family, size, processors, scale).
ALL_POINTS: Tuple[Tuple[str, str, int, int, float], ...] = (
    tuple((*point, GOLDEN_SCALE) for point in GOLDEN_POINTS) + LARGE_POINTS
)

#: Virtual-texturing points: (vt scene, family, size, processors, phase).
#: ``cold`` pins the first frame of the pan (cold residency, peak
#: faults); ``warm`` pins the last frame after the feedback loop has
#: chased the pan — together they freeze the whole residency
#: trajectory, since each frame's mapping feeds the next.
VT_POINTS: Tuple[Tuple[str, str, int, int, str], ...] = (
    ("vt-quake", "block", 16, 4, "cold"),
    ("vt-quake", "block", 16, 4, "warm"),
)


def point_name(
    scene: str, family: str, size: int, processors: int, scale: float = GOLDEN_SCALE
) -> str:
    name = f"{scene}_{family}{size}_p{processors}"
    if scale != GOLDEN_SCALE:
        name += f"_s{round(scale * 100)}"
    return name


def golden_path(
    scene: str, family: str, size: int, processors: int, scale: float = GOLDEN_SCALE
) -> Path:
    return GOLDEN_DIR / f"{point_name(scene, family, size, processors, scale)}.json"


def compute_point(
    scene: str, family: str, size: int, processors: int, scale: float = GOLDEN_SCALE
) -> Dict:
    """Simulate one golden point and distill its comparison metrics.

    Uses the same spec plumbing as the batch runner so the goldens pin
    the full path from spec dict to result, not just the timing model.
    """
    spec = {"family": family, "size": size, "processors": processors}
    built = build_scene(scene, scale=scale)
    distribution = distribution_from_spec(spec, built.height)
    config = machine_config_from_spec(spec, distribution)
    baseline = single_processor_baseline(built, config)
    result = simulate_machine(built, config, baseline_cycles=baseline)
    return {
        "scene": scene,
        "family": family,
        "size": size,
        "processors": processors,
        "scale": scale,
        "metrics": {
            "cycles": result.cycles,
            "baseline_cycles": baseline,
            "speedup": result.speedup,
            "texel_to_fragment": result.texel_to_fragment,
            "miss_rate": result.cache.miss_rate,
        },
    }


def vt_point_name(
    scene: str, family: str, size: int, processors: int, phase: str
) -> str:
    return f"{scene.replace('-', '_')}_{family}{size}_p{processors}_{phase}"


def vt_golden_path(
    scene: str, family: str, size: int, processors: int, phase: str
) -> Path:
    return GOLDEN_DIR / f"{vt_point_name(scene, family, size, processors, phase)}.json"


@lru_cache(maxsize=None)
def _vt_sequence(scene: str, family: str, size: int, processors: int):
    return run_vt_sequence(
        scene,
        {"family": family, "size": size, "processors": processors},
        scale=GOLDEN_SCALE,
    )


def compute_vt_point(
    scene: str, family: str, size: int, processors: int, phase: str
) -> Dict:
    """One frame of a VT pan sequence, distilled for exact comparison.

    ``cold`` is the sequence's first frame, ``warm`` its last; the
    sequence is computed once and shared between the two phases.
    """
    result = _vt_sequence(scene, family, size, processors)
    frame = result.frames[0] if phase == "cold" else result.frames[-1]
    return {
        "scene": scene,
        "family": family,
        "size": size,
        "processors": processors,
        "scale": GOLDEN_SCALE,
        "phase": phase,
        "vt_config": result.vt.describe(),
        "metrics": {
            "cycles": frame.cycles,
            "baseline_cycles": frame.baseline_cycles,
            "speedup": frame.speedup,
            "texel_to_fragment": frame.texel_to_fragment,
            "miss_rate": frame.miss_rate,
            "fault_accesses": frame.vt["fault_accesses"],
            "faulted_pages": frame.vt["faulted_pages"],
            "paged_in": frame.vt["paged_in"],
        },
    }


def write_golden(path: Path, document: Dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def load_golden(path: Path) -> Dict:
    return json.loads(path.read_text())


def update_requested() -> bool:
    return os.environ.get(UPDATE_ENV_VAR, "") not in ("", "0")


def iter_golden_files() -> Iterator[Path]:
    """Every committed golden-point file."""
    yield from (
        path for path in sorted(GOLDEN_DIR.glob("*.json")) if path != SCENE_TABLES_PATH
    )


def check_all() -> List[str]:
    """Recompute every golden point; return human-readable mismatches.

    Used by ``scripts/golden_check.py`` so CI fails with a list of
    drifted quantities rather than a bare assertion.
    """
    problems: List[str] = []
    checks = [
        (golden_path(*point), compute_point, point) for point in ALL_POINTS
    ] + [
        (vt_golden_path(*point), compute_vt_point, point) for point in VT_POINTS
    ]
    for path, compute, point in checks:
        if not path.exists():
            problems.append(f"missing golden file {path.name}")
            continue
        expected = load_golden(path)
        got = compute(*point)
        for key, want in expected["metrics"].items():
            have = got["metrics"].get(key)
            if have != want:
                problems.append(
                    f"{path.name}: {key} = {have!r}, golden says {want!r}"
                )
    return problems
