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
from repro.analysis.performance import SpeedupStudy, speedup_sweep
from repro.analysis.buffering import buffer_sweep
from repro.analysis.tables import format_series, format_table
from repro.analysis.dynamic import compare_static_dynamic, dynamic_assignment_for, render_comparison
from repro.analysis.interframe import (
    replay_sequence,
    render_interframe_table,
    warm_frame_ratio,
)
from repro.analysis.heatmap import (
    ascii_heatmap,
    depth_complexity_map,
    node_load_bars,
    ownership_map,
)
from repro.analysis.export import sweep_to_csv
from repro.analysis.overlap import (
    overlap_validation,
    predicted_overlap,
    scene_measured_overlap,
    scene_predicted_overlap,
)
from repro.analysis.parallel import keyed_tasks, run_tasks
from repro.analysis.ppm import (
    overdraw_image,
    owner_map_image,
    read_ppm,
    save_overdraw,
    save_owner_map,
    write_ppm,
)

__all__ = [
    "characterize_scene",
    "work_distribution",
    "imbalance_percent",
    "imbalance_sweep",
    "texel_to_fragment_ratio",
    "locality_sweep",
    "SpeedupStudy",
    "speedup_sweep",
    "buffer_sweep",
    "format_table",
    "format_series",
    "compare_static_dynamic",
    "dynamic_assignment_for",
    "render_comparison",
    "replay_sequence",
    "warm_frame_ratio",
    "render_interframe_table",
    "ascii_heatmap",
    "depth_complexity_map",
    "node_load_bars",
    "ownership_map",
    "sweep_to_csv",
    "run_tasks",
    "keyed_tasks",
    "predicted_overlap",
    "scene_predicted_overlap",
    "scene_measured_overlap",
    "overlap_validation",
    "write_ppm",
    "read_ppm",
    "owner_map_image",
    "overdraw_image",
    "save_owner_map",
    "save_overdraw",
]
