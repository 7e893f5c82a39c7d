"""Tests for the project-wide dataflow engine (repro.lintkit.flow)
and the rule families built on it (REPRO601/602, REPRO411/412,
REPRO111), plus the baseline --prune machinery.

Three layers:

* engine unit tests over in-memory :class:`Project` objects (symbol
  resolution, call graph, label-flow summaries, taint propagation);
* fixture-package tests driving ``run`` over the
  miniature trees in ``tests/lintkit_fixtures/`` (one polarity per
  package — see its README);
* seeded-bug meta-tests: copy real source out of ``src/``, delete or
  append the exact bug shape, and assert the rule catches it —
  proving the wall would have caught PR 4's unkeyed ``translator``
  and PR 7's unlocked lease scan.
"""

from __future__ import annotations

import re
import shutil
import textwrap
import time
from pathlib import Path

import pytest

from repro.lintkit import Baseline, run
from repro.lintkit.baseline import prune_baseline
from repro.lintkit.cli import main as lint_main
from repro.lintkit.context import ModuleContext
from repro.lintkit.flow import Project, project_for
from repro.lintkit.flow.summaries import analyze_function
from repro.lintkit.flow.taint import RNG, WALL_CLOCK

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "lintkit_fixtures"


def callees(project: Project, qualname: str) -> list:
    """The resolved callees of ``qualname``'s call sites, in site order."""
    return [site.callee for site in project.callgraph.calls_from(qualname)]


def make_project(**modules: str) -> Project:
    """In-memory project: ``make_project(**{"repro.a": "def f(): ..."})``."""
    contexts = [
        ModuleContext.from_source(
            textwrap.dedent(source), module.replace(".", "/") + ".py", module
        )
        for module, source in modules.items()
    ]
    return Project(contexts)


def fixture_findings(name: str, select):
    report = run([FIXTURES / name / "src"], select=select)
    return report.findings


# ---------------------------------------------------------------------------
# Symbol table + call graph


def test_symbols_index_functions_classes_and_methods():
    project = make_project(
        **{
            "repro.a": """\
            class Box:
                size: int

                def volume(self, depth):
                    return self.size * depth

            def free(x, *rest, **opts):
                return x
            """
        }
    )
    free = project.symbols.function("repro.a.free")
    assert free.params == ("x", "rest", "opts")
    volume = project.symbols.function("repro.a.Box.volume")
    assert volume.params == ("depth",)  # self dropped
    assert project.symbols.classes["repro.a.Box"].fields == ("size",)


def test_callgraph_resolves_imports_self_calls_and_bare_names():
    project = make_project(
        **{
            "repro.helpers": """\
            def shared(v):
                return v
            """,
            "repro.a": """\
            from repro.helpers import shared

            def local(v):
                return shared(v)

            def entry(v):
                return local(v)

            class Runner:
                def _step(self, v):
                    return entry(v)

                def go(self, v):
                    return self._step(v)
            """,
        }
    )
    assert callees(project, "repro.a.local") == ["repro.helpers.shared"]
    assert callees(project, "repro.a.entry") == ["repro.a.local"]  # bare name
    assert callees(project, "repro.a.Runner.go") == ["repro.a.Runner._step"]
    callers = [
        site.caller for site in project.callgraph.sites if site.callee == "repro.helpers.shared"
    ]
    assert callers == ["repro.a.local"]


def test_constructor_calls_stay_unresolved_for_generous_flow():
    project = make_project(
        **{
            "repro.a": """\
            class Wrapper:
                def __init__(self, inner):
                    self.inner = inner

            def build(x):
                return Wrapper(x)
            """
        }
    )
    assert callees(project, "repro.a.build") == [None]
    # ...and generosity means the argument still flows through.
    summary = project.summaries.summary("repro.a.build")
    assert summary.params_to_return == {"x"}


# ---------------------------------------------------------------------------
# Flow summaries


def test_summary_tracks_only_params_that_reach_the_return():
    project = make_project(
        **{
            "repro.a": """\
            def pick(a, b):
                unused = b * 2
                return a
            """
        }
    )
    summary = project.summaries.summary("repro.a.pick")
    assert summary.params_to_return == {"a"}


def test_interprocedural_flow_maps_positional_and_keyword_args():
    project = make_project(
        **{
            "repro.a": """\
            def pick(a, b):
                return a

            def caller(x, y):
                return pick(x, y)

            def kw_caller(x, y):
                return pick(b=y, a=x)
            """
        }
    )
    assert project.summaries.summary("repro.a.caller").params_to_return == {"x"}
    assert project.summaries.summary("repro.a.kw_caller").params_to_return == {"x"}


def test_loop_carried_append_join_flow():
    project = make_project(
        **{
            "repro.a": """\
            def key_of(items, sep):
                parts = []
                for item in items:
                    parts.append(item)
                return sep.join(parts)
            """
        }
    )
    summary = project.summaries.summary("repro.a.key_of")
    assert summary.params_to_return == {"items", "sep"}


def test_branches_union_and_augassign_accumulates():
    project = make_project(
        **{
            "repro.a": """\
            def build(base, extra, flag):
                key = base
                if flag:
                    key += "/" + extra
                return key
            """
        }
    )
    summary = project.summaries.summary("repro.a.build")
    # Data flow only: both branches contribute (union join), but the
    # branch *condition* is an implicit flow and stays out — the same
    # reason JobSpec.kind needs a written exemption in the key table.
    assert summary.params_to_return == {"base", "extra"}


def test_recursive_function_summary_terminates():
    project = make_project(
        **{
            "repro.a": """\
            def count(n):
                if n <= 0:
                    return n
                return count(n - 1)
            """
        }
    )
    assert project.summaries.summary("repro.a.count").params_to_return == {"n"}


def test_wall_clock_taint_propagates_two_hops():
    project = make_project(
        **{
            "repro.a": """\
            import time

            def raw():
                return time.time()

            def tagged():
                return f"t{raw():.0f}"
            """
        }
    )
    assert project.summaries.summary("repro.a.raw").sources_to_return == {WALL_CLOCK}
    assert project.summaries.summary("repro.a.tagged").sources_to_return == {
        WALL_CLOCK
    }


def test_seeded_rng_construction_is_not_a_source():
    project = make_project(
        **{
            "repro.a": """\
            import numpy as np

            def seeded(seed):
                return np.random.default_rng(seed)

            def unseeded():
                return np.random.default_rng()
            """
        }
    )
    assert project.summaries.summary("repro.a.seeded").sources_to_return == set()
    assert project.summaries.summary("repro.a.unseeded").sources_to_return == {RNG}


def test_field_seeding_reaches_returns():
    project = make_project(
        **{
            "repro.a": """\
            class Spec:
                scene: str
                scale: float

                def record(self):
                    return {"key": f"run/{self.scene}", "scale": self.scale}
            """
        }
    )
    info = project.symbols.function("repro.a.Spec.record")
    result = analyze_function(project, info, seed_fields=True)
    assert "field:scene" in result.returns and "field:scale" in result.returns


def test_project_for_caches_and_invalidates_on_edit(tmp_path):
    src = tmp_path / "src" / "repro" / "mod.py"
    src.parent.mkdir(parents=True)
    src.write_text("def f(x):\n    return x\n")
    first = project_for([src])
    assert project_for([src]) is first
    src.write_text("def f(x, y):\n    return x + y\n")
    second = project_for([src])
    assert second is not first
    assert second.symbols.function("repro.mod.f").params == ("x", "y")


# ---------------------------------------------------------------------------
# Rule fixtures: key completeness (REPRO601/602)


def test_repro601_quiet_when_every_knob_is_keyed():
    assert fixture_findings("keyflow_clean", ["REPRO601"]) == []


def test_repro601_fires_on_unkeyed_translator():
    findings = fixture_findings("keyflow_missing", ["REPRO601"])
    assert [f.rule for f in findings] == ["REPRO601"]
    assert "'translator'" in findings[0].message
    assert "routed_work" in findings[0].message


def test_repro602_quiet_when_every_field_is_keyed():
    assert fixture_findings("keyflow_jobspec_clean", ["REPRO602"]) == []


def test_repro602_fires_on_unkeyed_field():
    findings = fixture_findings("keyflow_jobspec_missing", ["REPRO602"])
    assert [f.rule for f in findings] == ["REPRO602"]
    assert "'processors'" in findings[0].message
    assert "field" in findings[0].message


def test_keyflow_table_rot_is_flagged(tmp_path):
    # The module exists but the mapped function is gone: the table
    # itself has rotted and must move with the code.
    target = tmp_path / "src" / "repro" / "pipeline" / "stages.py"
    target.parent.mkdir(parents=True)
    target.write_text("def some_other_stage(x):\n    return x\n")
    report = run([tmp_path / "src"], select=["REPRO601"])
    assert len(report.findings) == 1
    assert "no longer exists" in report.findings[0].message


def test_keyflow_skips_trees_without_the_mapped_modules(tmp_path):
    target = tmp_path / "src" / "repro" / "unrelated.py"
    target.parent.mkdir(parents=True)
    target.write_text("def f(x):\n    return x\n")
    report = run([tmp_path / "src"], select=["REPRO601", "REPRO602"])
    assert report.findings == []


# ---------------------------------------------------------------------------
# Rule fixtures: lock discipline (REPRO411/412)


def test_lockflow_quiet_when_scan_is_locked():
    assert fixture_findings("lockflow_clean", ["REPRO411", "REPRO412"]) == []


def test_repro412_fires_on_reaper_scan_outside_lock():
    findings = fixture_findings("lockflow_racy", ["REPRO411", "REPRO412"])
    assert [f.rule for f in findings] == ["REPRO412"]
    assert "_pending" in findings[0].message
    assert "_lock" in findings[0].message


def test_lock_detection_by_type_covers_condition_objects():
    # JobQueue-shaped: the guard is a Condition whose name never says
    # "lock"; inference must find it by constructor type.
    project = make_project(
        **{
            "repro.service.q": """\
            import threading

            class Q:
                def __init__(self):
                    self._cv = threading.Condition()
                    self._items = []

                def push(self, item):
                    with self._cv:
                        self._items.append(item)

                def pop_locked(self):
                    return self._items.pop()

                def size_racy(self):
                    return len(self._items)

                def drain(self):
                    with self._cv:
                        while self._items:
                            self.pop_locked()
            """
        }
    )
    from repro.lintkit.rules.lockflow import UnlockedReadRule

    findings = list(UnlockedReadRule().check_project(project))
    assert len(findings) == 1
    assert "_items" in findings[0].message and "_cv" in findings[0].message
    assert "size_racy" in project.by_module["repro.service.q"].line(
        findings[0].line - 1
    ) or findings[0].line > 0


def test_lock_context_flows_into_private_helpers():
    # A private helper called only under the lock inherits the lock
    # context (fixpoint) — its accesses are not findings.
    project = make_project(
        **{
            "repro.service.s": """\
            import threading

            class S:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._jobs = {}

                def submit(self, job):
                    with self._lock:
                        self._jobs[job] = True
                        self._bump(job)

                def _bump(self, job):
                    self._jobs[job] = False
            """
        }
    )
    from repro.lintkit.rules.lockflow import UnlockedReadRule, UnlockedWriteRule

    findings = list(UnlockedWriteRule().check_project(project)) + list(
        UnlockedReadRule().check_project(project)
    )
    assert findings == []


# The shapes the retired per-file lock rule checked, now REPRO411's:
# the lock is injected through ``__init__`` (no visible constructor),
# one method writes ``jobs`` under it, another writes it bare — a 1/2
# split that no majority vote would call guarded.
_LOCKED_CLASS = """\
import threading

class Scheduler:
    def __init__(self, lock):
        self._lock = {lock}
        self.jobs = []

    def submit(self, job):
        with self._lock:
            self.jobs.append(job)

    def drop(self):
        {drop_body}
"""


def lock_rule_ids(source: str):
    """REPRO411/412 rule ids over a one-module project in ``repro.service``."""
    from repro.lintkit.rules.lockflow import UnlockedReadRule, UnlockedWriteRule

    project = make_project(**{"repro.service.fake": source})
    return [
        finding.rule
        for rule in (UnlockedWriteRule(), UnlockedReadRule())
        for finding in rule.check_project(project)
    ]


@pytest.mark.parametrize("lock", ["lock", "threading.Lock()"])
@pytest.mark.parametrize(
    "drop_body",
    [
        "self.jobs.pop()",
        "self.jobs = []",
        "self.jobs[0] = None",
        "del self.jobs[0]",
        "self.jobs += [None]",
    ],
    ids=["method", "rebind", "subscript", "delete", "augassign"],
)
def test_repro411_flags_every_unlocked_write_shape(lock, drop_body):
    src = _LOCKED_CLASS.format(lock=lock, drop_body=drop_body)
    assert lock_rule_ids(src) == ["REPRO411"]


def test_repro411_allows_locked_mutation():
    src = """\
        class Scheduler:
            def submit(self, job):
                with self._lock:
                    self.jobs.append(job)

            def drop(self):
                with self._lock:
                    self.jobs.pop()
        """
    assert lock_rule_ids(src) == []


def test_repro411_exempts_init():
    # ``self.jobs = []`` in __init__ is unlocked but never flagged.
    src = _LOCKED_CLASS.format(lock="lock", drop_body="pass")
    assert lock_rule_ids(src) == []


def test_repro411_exempts_locked_suffix_methods():
    src = """\
        class Scheduler:
            def submit(self, job):
                with self._lock:
                    self.jobs.append(job)

            def drop_locked(self):
                self.jobs.pop()
        """
    assert lock_rule_ids(src) == []


def test_repro411_exempts_holds_the_lock_docstring():
    src = '''\
        class Scheduler:
            def submit(self, job):
                with self._lock:
                    self.jobs.append(job)

            def drop(self):
                """Pop one job; the caller holds the lock."""
                self.jobs.pop()
        '''
    assert lock_rule_ids(src) == []


def test_minority_locked_reads_stay_quiet():
    # The write-under-a-lock criterion is for writes only: a bare read
    # of an attribute written once under the lock is not REPRO412.
    src = _LOCKED_CLASS.format(
        lock="lock", drop_body="return len(self.jobs) + len(self.jobs)"
    )
    assert lock_rule_ids(src) == []


# ---------------------------------------------------------------------------
# Rule fixtures: interprocedural taint (REPRO111)


def test_taintflow_quiet_when_timestamp_is_a_parameter():
    assert fixture_findings("taintflow_clean", ["REPRO111"]) == []


def test_repro111_fires_on_two_hop_clock_laundering():
    findings = fixture_findings("taintflow_tainted", ["REPRO111"])
    assert [f.rule for f in findings] == ["REPRO111"]
    assert "elapsed_tag" in findings[0].message
    assert "wall clock" in findings[0].message


def test_project_findings_respect_inline_suppression(tmp_path):
    source = (FIXTURES / "lockflow_racy" / "src" / "repro" / "service" / "reaper.py")
    text = source.read_text().replace(
        "expired = [i for i, d in self._pending.items() if d <= now]",
        "expired = [i for i, d in self._pending.items() if d <= now]"
        "  # repro-lint: ignore[REPRO412] -- scan is advisory; expiry re-checks under the lock",
    )
    target = tmp_path / "src" / "repro" / "service" / "reaper.py"
    target.parent.mkdir(parents=True)
    target.write_text(text)
    report = run([tmp_path / "src"], select=["REPRO411", "REPRO412"])
    assert report.findings == []


# ---------------------------------------------------------------------------
# Seeded-bug meta-tests: the wall catches the historical bug shapes


def test_seeded_bug_dropping_translator_from_replay_key_is_caught(tmp_path):
    dst = tmp_path / "src" / "repro" / "pipeline"
    shutil.copytree(REPO_ROOT / "src" / "repro" / "pipeline", dst)
    stages = dst / "stages.py"
    text = stages.read_text()
    seeded = re.sub(
        r'\n\s*if translator_part != "direct":\n'
        r'\s*replay_key \+= f"/\{translator_part\}"\n',
        "\n",
        text,
    )
    assert seeded != text, "the translator keying moved; update this seed"
    stages.write_text(seeded)
    report = run([tmp_path / "src"], select=["REPRO601"])
    assert [f.rule for f in report.findings] == ["REPRO601"]
    assert "'translator'" in report.findings[0].message


def test_seeded_bug_unlocked_lease_mutation_is_caught(tmp_path):
    dst = tmp_path / "src" / "repro" / "service"
    dst.mkdir(parents=True)
    shutil.copy(REPO_ROOT / "src" / "repro" / "service" / "leases.py", dst)
    with open(dst / "leases.py", "a") as handle:
        handle.write(
            "\n    def drop_fast(self, lease_id):\n"
            "        self._leases.pop(lease_id, None)\n"
        )
    report = run([tmp_path / "src"], select=["REPRO411"])
    assert [f.rule for f in report.findings] == ["REPRO411"]
    assert "_leases" in report.findings[0].message


# ---------------------------------------------------------------------------
# Baseline: stale-entry detail + --prune-baseline


def _clock_tree(tmp_path: Path) -> Path:
    src = tmp_path / "src" / "repro" / "cache" / "clocky.py"
    src.parent.mkdir(parents=True)
    src.write_text("import time\n\n\ndef stamp():\n    return time.time()\n")
    return tmp_path / "src"


def _baseline_file(tmp_path: Path) -> Path:
    baseline = tmp_path / "baseline.txt"
    baseline.write_text(
        "REPRO111\tsrc/repro/cache/clocky.py\treturn time.time()\t"
        "# boundary timestamp, never enters simulation\n"
        "REPRO111\tsrc/repro/cache/gone.py\treturn time.monotonic()\t"
        "# this module was deleted long ago\n"
    )
    return baseline


def test_prune_baseline_drops_stale_keeps_justifications(tmp_path):
    src = _clock_tree(tmp_path)
    baseline_path = _baseline_file(tmp_path)
    baseline = Baseline.load(baseline_path)
    report = run([src], baseline=baseline, select=["REPRO111"])
    assert report.findings == [] and len(report.suppressed) == 1
    assert [e.path for e in report.stale_entries] == ["src/repro/cache/gone.py"]
    removed = prune_baseline(baseline_path, report.stale_entries)
    assert removed == 1
    survivor = Baseline.load(baseline_path)
    assert len(survivor.entries) == 1
    assert survivor.entries[0].justification == (
        "# boundary timestamp, never enters simulation"
    )


def test_cli_stale_warning_names_rule_and_justification(tmp_path, capsys):
    src = _clock_tree(tmp_path)
    baseline_path = _baseline_file(tmp_path)
    exit_code = lint_main(
        [str(src), "--baseline", str(baseline_path), "--select", "REPRO111"]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "[REPRO111]" in captured.err
    assert "this module was deleted long ago" in captured.err
    assert "--prune-baseline" in captured.err


def test_cli_prune_baseline_rewrites_file(tmp_path, capsys):
    src = _clock_tree(tmp_path)
    baseline_path = _baseline_file(tmp_path)
    exit_code = lint_main(
        [
            str(src),
            "--baseline",
            str(baseline_path),
            "--select",
            "REPRO111",
            "--prune-baseline",
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "pruned 1 stale entry" in captured.out
    assert "gone.py" not in baseline_path.read_text()


def test_entries_of_rules_that_did_not_run_are_not_stale(tmp_path):
    # A rule left out by ``select`` has had no chance to match its entry.
    src = _clock_tree(tmp_path)
    baseline_path = tmp_path / "baseline.txt"
    baseline_path.write_text(
        "REPRO201\tsrc/repro/cache/clocky.py\tif cycles == 0:\t"
        "# exact-zero sentinel, never a drifted float\n"
        "REPRO411\tsrc/repro/cache/clocky.py\tself.jobs.pop()\t"
        "# single-threaded fixture\n"
    )
    baseline = Baseline.load(baseline_path)
    assert run([src], baseline=baseline, select=["REPRO111"]).stale_entries == []
    assert run([src], baseline=baseline).stale_entries == baseline.entries
    exit_code = lint_main(
        [
            str(src),
            "--baseline",
            str(baseline_path),
            "--select",
            "REPRO111",
            "--prune-baseline",
        ]
    )
    assert exit_code == 1  # the unbaselined clock read
    assert Baseline.load(baseline_path).entries == baseline.entries


def test_entries_outside_the_checked_paths_are_not_stale(tmp_path):
    src = _clock_tree(tmp_path)
    other = src / "repro" / "core" / "quiet.py"
    other.parent.mkdir(parents=True)
    other.write_text("def f():\n    return 1\n")
    baseline_path = _baseline_file(tmp_path)
    baseline = Baseline.load(baseline_path)
    narrow = run([src / "repro" / "core"], baseline=baseline, select=["REPRO111"])
    assert narrow.files_checked == 1 and narrow.stale_entries == []
    single = run([other], baseline=baseline, select=["REPRO111"])
    assert single.stale_entries == []
    # The whole tree covers both entries: the deleted module's is stale.
    whole = run([src], baseline=baseline, select=["REPRO111"])
    assert [e.path for e in whole.stale_entries] == ["src/repro/cache/gone.py"]
    assert prune_baseline(baseline_path, narrow.stale_entries) == 0


def test_another_src_tree_leaves_the_baseline_alone(tmp_path):
    # Entry paths resolve beside the baseline file; a run over some
    # other tree that is also named ``src`` checked none of them.
    baseline_path = tmp_path / "lint-baseline.txt"
    shutil.copy(REPO_ROOT / "lint-baseline.txt", baseline_path)
    before = baseline_path.read_text()
    fixture = FIXTURES / "taintflow_clean" / "src"
    report = run([fixture], baseline=Baseline.load(baseline_path))
    assert report.stale_entries == []
    lint_main([str(fixture), "--baseline", str(baseline_path), "--prune-baseline"])
    assert baseline_path.read_text() == before


# ---------------------------------------------------------------------------
# CLI + the time budget over the shipped tree


def test_cli_project_mode_reports_flow_findings(capsys):
    exit_code = lint_main(
        [
            str(FIXTURES / "keyflow_missing" / "src"),
            "--no-baseline",
            "--select",
            "REPRO601",
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 1
    assert "translator" in captured.out


def test_project_pass_stays_inside_time_budget():
    import repro.lintkit.flow as flow

    flow._CACHE.clear()  # force a cold parse + summary build
    started = time.monotonic()
    run([REPO_ROOT / "src"])
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"project analysis took {elapsed:.1f}s (budget 30s)"
