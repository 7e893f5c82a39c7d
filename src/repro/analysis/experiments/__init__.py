"""Canonical experiment definitions.

One module per figure/table family; importing them here registers every
:class:`~repro.expfw.spec.ExperimentSpec` in
:data:`repro.expfw.spec.SPECS`, the one registry the
``repro-experiments`` CLI and the job service resolve names from.
``repro-experiments all --out results/`` writes each spec's panel
points to ``results/``.  Every public experiment
function is re-exported so ``from repro.analysis import experiments``
keeps working unchanged.
"""

from __future__ import annotations

from repro.analysis.experiments.common import (
    ALL_PROCESSOR_COUNTS,
    BLOCK_WIDTHS,
    BUFFER_SIZES,
    FIG8_WIDTHS,
    PROCESSOR_COUNTS,
    SLI_LINES,
)
from repro.analysis.experiments.table1 import table1
from repro.analysis.experiments.fig5 import fig5_imbalance, fig5_speedup
from repro.analysis.experiments.fig6 import fig6
from repro.analysis.experiments.fig7 import fig7, fig7_panel
from repro.analysis.experiments.fig8 import fig8
from repro.analysis.experiments.ablations import (
    ablation_cache_associativity,
    ablation_cache_size,
    ablation_early_z,
    ablation_interleave_pattern,
    ablation_interleaving,
    ablation_routing,
    ablation_submission_order,
    ablation_texel_format,
    ablation_texture_blocking,
)
from repro.analysis.experiments.robustness import (
    cad_contrast,
    scale_stability,
    seed_sensitivity,
)
from repro.analysis.experiments.future import (
    extension_geometry_stage,
    future_dynamic,
    future_l2_interframe,
)
from repro.analysis.experiments.comparisons import comparison_sort_last
from repro.analysis.experiments.validation import (
    validation_overlap_model,
    validation_prefetch,
)
from repro.analysis.experiments.vt import vt_distribution

__all__ = [
    "ALL_PROCESSOR_COUNTS",
    "BLOCK_WIDTHS",
    "BUFFER_SIZES",
    "FIG8_WIDTHS",
    "PROCESSOR_COUNTS",
    "SLI_LINES",
    "ablation_cache_associativity",
    "ablation_cache_size",
    "ablation_early_z",
    "ablation_interleave_pattern",
    "ablation_interleaving",
    "ablation_routing",
    "ablation_submission_order",
    "ablation_texel_format",
    "ablation_texture_blocking",
    "cad_contrast",
    "comparison_sort_last",
    "extension_geometry_stage",
    "fig5_imbalance",
    "fig5_speedup",
    "fig6",
    "fig7",
    "fig7_panel",
    "fig8",
    "future_dynamic",
    "future_l2_interframe",
    "scale_stability",
    "seed_sensitivity",
    "table1",
    "validation_overlap_model",
    "validation_prefetch",
    "vt_distribution",
]
