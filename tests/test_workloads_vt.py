"""Tests for the VT workload family, its experiment and its job kind."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.service.jobs import execute_payload, spec_from_payload
from repro.workloads.vt import (
    VT_SCENE_SPECS,
    VtSceneSpec,
    require_vt_spec,
    run_vt_sequence,
    vt_frames,
)

SCALE = 0.0625
MACHINE = {"family": "block", "processors": 4, "size": 16}


@pytest.fixture(scope="module")
def quake_frames():
    return vt_frames(require_vt_spec("vt-quake"), SCALE)


# -- specs ------------------------------------------------------------


def test_vt_spec_validation():
    with pytest.raises(ConfigurationError):
        VtSceneSpec(name="x", base="quake", frames=0)
    with pytest.raises(ConfigurationError):
        VtSceneSpec(name="x", base="quake", page_lines=12)
    with pytest.raises(ConfigurationError):
        VtSceneSpec(name="x", base="quake", residency=0.0)
    with pytest.raises(ConfigurationError):
        VtSceneSpec(name="x", base="quake", texture_magnify=0)
    with pytest.raises(ConfigurationError):
        VtSceneSpec(name="x", base="no-such-scene").scene_spec()
    with pytest.raises(ConfigurationError):
        require_vt_spec("no-such-vt-scene")


def test_vt_scene_magnifies_texture_edges():
    spec = VT_SCENE_SPECS["vt-quake"]
    base = require_vt_spec("vt-quake").scene_spec()
    from repro.workloads.scenes import SCENE_SPECS

    original = SCENE_SPECS[spec.base]
    assert base.name == "vt-quake"
    for (edge, weight), (orig_edge, orig_weight) in zip(
        base.texture_edges, original.texture_edges
    ):
        assert edge == orig_edge * spec.texture_magnify
        assert weight == orig_weight


def test_all_vt_scenes_have_valid_bases():
    from repro.workloads.scenes import SCENE_SPECS

    for name, spec in VT_SCENE_SPECS.items():
        assert spec.name == name
        assert spec.base in SCENE_SPECS
        spec.scene_spec()  # must not raise


# -- the sequence runner ----------------------------------------------


def test_run_vt_sequence_shape_and_metrics(quake_frames):
    result = run_vt_sequence(
        "vt-quake", MACHINE, scale=SCALE, frames=2, scenes=quake_frames
    )
    assert len(result.frames) == 2
    assert result.total_cycles > 0
    assert result.distribution == "block16x4"
    for index, frame in enumerate(result.frames):
        assert frame.frame == index
        assert frame.cycles > 0
        assert frame.baseline_cycles >= frame.cycles
        assert 0.0 <= frame.miss_rate <= 1.0
        assert 0.0 <= frame.fault_rate <= 1.0
        assert frame.vt["resident_pages"] > 0
    assert "vt-quake" in result.summary()


def test_partial_residency_faults_then_warms(quake_frames):
    result = run_vt_sequence(
        "vt-quake", MACHINE, scale=SCALE, residency=0.5, scenes=quake_frames
    )
    assert result.frames[0].vt["fault_accesses"] > 0  # cold start faults
    # The pan revisits mostly-shared texels: faults drop as residency warms.
    assert result.frames[-1].fault_rate < result.frames[0].fault_rate


def test_paging_trajectory_is_distribution_independent(quake_frames):
    """Feedback comes from the submission-order stream, so every
    distribution family sees the identical residency trajectory."""
    runs = [
        run_vt_sequence(
            "vt-quake",
            {"family": family, "processors": 4, "size": size},
            scale=SCALE,
            frames=2,
            scenes=quake_frames,
        )
        for family, size in (("block", 16), ("sli", 2), ("morton", 16))
    ]
    reference = [frame.vt for frame in runs[0].frames]
    for run in runs[1:]:
        assert [frame.vt for frame in run.frames] == reference


def test_prebuilt_sequence_too_short_raises(quake_frames):
    with pytest.raises(ConfigurationError):
        run_vt_sequence(
            "vt-quake", MACHINE, scale=SCALE, frames=5, scenes=quake_frames[:1]
        )


@pytest.mark.slow
def test_fully_resident_sequence_never_faults(quake_frames):
    result = run_vt_sequence(
        "vt-quake", MACHINE, scale=SCALE, residency=1.0, scenes=quake_frames
    )
    for frame in result.frames:
        assert frame.vt["fault_accesses"] == 0
        assert frame.vt["paged_in"] == 0
        assert frame.vt["evicted"] == 0


# -- the experiment ---------------------------------------------------


def test_vt_distribution_experiment_text(quake_frames):
    from repro.analysis.experiments.vt import vt_distribution

    text = vt_distribution(
        SCALE, scenes=("vt-quake",), pages=(16,), residencies=(0.5,), processors=4
    )
    assert "distribution" in text
    for described in ("block16x4", "bands", "sli", "morton16x4"):
        assert described in text
    assert "16-line pages" in text


def test_vt_distribution_is_registered():
    from repro.expfw.spec import SPECS, require_spec

    spec = require_spec("vt-distribution")
    assert SPECS["vt-distribution"] is spec
    params = spec.resolve({})
    assert set(params) == {"scale", "processors", "scenes", "pages", "residencies"}


# -- the job kind -----------------------------------------------------


def test_vt_job_spec_roundtrip():
    payload = {
        "vt_scene": "vt-quake",
        "scale": SCALE,
        "family": "morton",
        "processors": 4,
        "size": 8,
        "vt_pages": 8,
        "vt_residency": 0.25,
        "vt_frames": 2,
    }
    spec = spec_from_payload(payload)
    assert spec.kind == "vt"
    assert spec_from_payload(spec.to_payload()) == spec
    assert spec.result_key().startswith("vt/vt-quake@")
    assert spec.result_key() == spec_from_payload(payload).result_key()


@pytest.mark.parametrize("name", sorted(VT_SCENE_SPECS))
def test_vt_job_knobs_default_to_the_scene_spec(name):
    spec = spec_from_payload({"vt_scene": name})
    scene = VT_SCENE_SPECS[name]
    assert (spec.vt_pages, spec.vt_residency, spec.vt_frames) == (
        scene.page_lines,
        scene.residency,
        scene.frames,
    )
    assert f"/res={scene.residency:g}/" in spec.result_key()


def test_vt_job_validation():
    with pytest.raises(ConfigurationError):
        spec_from_payload({"vt_scene": "no-such", "scale": SCALE})
    with pytest.raises(ConfigurationError):
        spec_from_payload({"vt_scene": "vt-quake", "scene": "quake"})
    with pytest.raises(ConfigurationError):
        spec_from_payload({"vt_scene": "vt-quake", "vt_pages": 12})
    with pytest.raises(ConfigurationError):
        spec_from_payload({"vt_scene": "vt-quake", "vt_residency": 0.0})
    with pytest.raises(ConfigurationError):
        spec_from_payload({"vt_scene": "vt-quake", "vt_frames": 0})


def test_morton_family_accepted_for_simulate_jobs():
    spec = spec_from_payload({"scene": "quake", "family": "morton", "scale": SCALE})
    assert spec.family == "morton"


def test_vt_job_executes_with_metrics():
    out = execute_payload(
        {
            "vt_scene": "vt-quake",
            "scale": SCALE,
            "family": "block",
            "processors": 4,
            "vt_frames": 2,
            "vt_residency": 0.5,
        }
    )
    metrics = out["metrics"]
    for key in ("cycles", "baseline_cycles", "speedup", "miss_rate", "fault_rate"):
        assert key in metrics
    assert metrics["speedup"] > 0
    assert np.isfinite(metrics["cycles"])

