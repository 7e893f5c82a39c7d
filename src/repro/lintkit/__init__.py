"""``repro.lintkit`` — determinism & invariant static analysis.

An AST-based analyzer with a pluggable rule registry and a
``repro-lint`` CLI.  The rules machine-check the invariants the
reproduction's correctness rests on (DESIGN.md §9):

* **determinism** (REPRO101–104) — no wall-clock reads, global PRNG
  state or set-iteration-order dependence inside the simulation core
  (``repro.sim``, ``repro.core``, ``repro.cache``, ``repro.raster``);
  sources are classified by :mod:`repro.lintkit.flow.taint`, the
  vocabulary REPRO111 shares;
* **cycle accounting** (REPRO201–202) — no float ``==``/``!=`` on
  cycle/latency values, no true division into cycle counts;
* **obs hygiene** (REPRO301–302) — hot paths resolve the recorder
  once (null-object pattern) and metric names follow ``dotted.lower``;
* **concurrency** (REPRO401) — no bare ``except:`` in
  ``repro.service``.

With ``project=True`` (``repro-lint --project``) the dataflow rules
of :mod:`repro.lintkit.flow` run too: key completeness
(REPRO601–603), interprocedural determinism taint (REPRO111) and lock
discipline (REPRO411/412 — attributes guarded by a class lock are
never touched outside it), which has no per-file rule.

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
