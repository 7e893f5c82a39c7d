"""Experiment drivers.

One module per figure/table of the paper, plus scene characterisation
(Table 1) and plain-text rendering helpers.  The experiment specs in
:mod:`repro.analysis.experiments` are declared over these functions.
"""

from repro.analysis.characterize import characterize_scene
from repro.analysis.load_balance import (
    imbalance_percent,
    imbalance_sweep,
    work_distribution,
)
from repro.analysis.locality import locality_sweep, texel_to_fragment_ratio
from repro.analysis.performance import SpeedupStudy
from repro.analysis.buffering import buffer_sweep
from repro.analysis.tables import format_series, format_table
from repro.analysis.dynamic import compare_static_dynamic, dynamic_assignment_for, render_comparison
from repro.analysis.interframe import (
    replay_sequence,
    render_interframe_table,
    warm_frame_ratio,
)
from repro.analysis.overlap import (
    overlap_validation,
    predicted_overlap,
    scene_measured_overlap,
    scene_predicted_overlap,
)
from repro.analysis.parallel import keyed_tasks, run_tasks

__all__ = [
    "characterize_scene",
    "work_distribution",
    "imbalance_percent",
    "imbalance_sweep",
    "texel_to_fragment_ratio",
    "locality_sweep",
    "SpeedupStudy",
    "buffer_sweep",
    "format_table",
    "format_series",
    "compare_static_dynamic",
    "dynamic_assignment_for",
    "render_comparison",
    "replay_sequence",
    "warm_frame_ratio",
    "render_interframe_table",
    "run_tasks",
    "keyed_tasks",
    "predicted_overlap",
    "scene_predicted_overlap",
    "scene_measured_overlap",
    "overlap_validation",
]
