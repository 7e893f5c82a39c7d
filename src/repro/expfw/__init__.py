"""repro.expfw — declarative experiments, archived runs, auto-search.

The experiment framework lifts the hand-enumerated figure sweeps into
three composable pieces:

* :mod:`repro.expfw.params` / :mod:`repro.expfw.spec` — typed
  parameter spaces and :class:`ExperimentSpec` objects (defaults,
  bounds, inheritance, per-run overrides) registered in
  :data:`SPECS`, the one experiment registry;
* :mod:`repro.expfw.archive` — a content-addressed
  :class:`RunArchive` of re-runnable JSON records (resolved params,
  artifact keys, metrics, git/config fingerprint) layered on the
  pipeline artifact store, plus bit-identical :func:`replay_record`;
* :mod:`repro.expfw.search` — a budgeted auto-search driver (grid +
  successive halving over simulated cycles or wall seconds) tuning
  tile size / SLI height / FIFO depth / cache geometry per workload,
  dispatching trials as jobs on an in-process scheduler or a running
  service.
"""

from repro.expfw.archive import (
    ReplayReport,
    RunArchive,
    default_archive_dir,
    find_record,
    replay_record,
    run_record,
    trial_record,
)
from repro.expfw.params import Param, ParamSpace
from repro.expfw.search import (
    Budget,
    SearchConfig,
    SearchDriver,
    parse_search_payload,
    render_report,
    run_search,
)
from repro.expfw.spec import (
    SPECS,
    ExperimentSpec,
    RunResult,
    TrialTemplate,
    register_spec,
    require_spec,
    searchable_spec,
)

__all__ = [
    "Budget",
    "ExperimentSpec",
    "Param",
    "ParamSpace",
    "ReplayReport",
    "RunArchive",
    "RunResult",
    "SPECS",
    "SearchConfig",
    "SearchDriver",
    "TrialTemplate",
    "default_archive_dir",
    "find_record",
    "parse_search_payload",
    "register_spec",
    "render_report",
    "replay_record",
    "require_spec",
    "run_record",
    "run_search",
    "searchable_spec",
    "trial_record",
]
