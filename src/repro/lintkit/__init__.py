"""``repro.lintkit`` — determinism & invariant static analysis.

An AST-based analyzer with a pluggable rule registry and a
``repro-lint`` CLI.  The rules machine-check the invariants the
reproduction's correctness rests on (DESIGN.md §9):

* **determinism** (REPRO111, REPRO104) — no value derived from the
  wall clock or a process-global PRNG, read directly or through
  helpers, and no set-iteration-order dependence inside the
  determinism perimeter (every ``repro`` module but the exclusions of
  :mod:`repro.lintkit.scopes`); no wall-clock duration arithmetic in
  ``repro.service`` (REPRO101);
* **cycle accounting** (REPRO201–202) — no float ``==``/``!=`` on
  cycle/latency values, no true division into cycle counts;
* **obs hygiene** (REPRO301–302) — hot paths resolve the recorder
  once (null-object pattern) and metric names follow ``dotted.lower``;
* **concurrency** (REPRO401, REPRO411/412) — no bare ``except:`` in
  ``repro.service``, and attributes guarded by a class lock are never
  touched outside it;
* **key completeness** (REPRO601–602) — every result-affecting input
  reaches its cache key;
* **batch core** (REPRO501) — no Python loops over fragment columns.

Every run parses the tree once into a :class:`~repro.lintkit.flow.Project`,
so the rules that follow definitions across files run with the rest.

Intentional exceptions live in ``lint-baseline.txt`` (one justified
entry per finding) or inline via
``# repro-lint: ignore[RULE] -- reason``.
"""

from repro.lintkit.baseline import Baseline, BaselineEntry, write_baseline
from repro.lintkit.context import ModuleContext, module_name_for_path
from repro.lintkit.engine import Report, analyze_source, iter_python_files, run
from repro.lintkit.findings import Finding
from repro.lintkit.registry import Rule, all_rules, register, select_rules

__all__ = [
    "Baseline",
    "BaselineEntry",
    "Finding",
    "ModuleContext",
    "Report",
    "Rule",
    "all_rules",
    "analyze_source",
    "iter_python_files",
    "module_name_for_path",
    "register",
    "run",
    "select_rules",
    "write_baseline",
]
