"""Tests for the repro-lint static analyzer (repro.lintkit).

Each rule gets at least one seeded-violation fixture (the rule must
fire) and one clean fixture (it must stay quiet), plus scope checks.
The baseline round-trip, inline suppression grammar, registry errors,
CLI exit codes, and the meta-test (the shipped tree is lint-clean
under the shipped baseline) are covered at the end.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.lintkit import (
    Baseline,
    Rule,
    all_rules,
    analyze_source,
    iter_python_files,
    module_name_for_path,
    register,
    run,
    select_rules,
    write_baseline,
)
from repro.lintkit.baseline import TODO_JUSTIFICATION
from repro.lintkit.cli import main as lint_main
from repro.lintkit.scopes import in_perimeter

REPO_ROOT = Path(__file__).resolve().parents[1]


def findings_for(source: str, module: str = "repro.core.fake"):
    return analyze_source(textwrap.dedent(source), path="fake.py", module=module)


def rule_ids(source: str, module: str = "repro.core.fake"):
    return [f.rule for f in findings_for(source, module)]


# ---------------------------------------------------------------------------
# Determinism rules (REPRO101, REPRO104; REPRO111 at call depth 0)


def test_repro101_flags_wall_clock_reads():
    src = """\
        import time

        def stamp():
            return time.time()
    """
    assert rule_ids(src) == ["REPRO111"]


def test_repro101_resolves_import_aliases():
    src = """\
        from time import perf_counter as clock

        def stamp():
            return clock()
    """
    assert rule_ids(src) == ["REPRO111"]


def test_repro101_ignores_out_of_scope_modules():
    src = """\
        import time

        def stamp():
            return time.time()
    """
    assert rule_ids(src, module="repro.cli") == []


def test_repro111_flags_module_level_reads():
    src = """\
        import random
        import time

        STARTED = time.time()

        class Jitter:
            OFFSET = random.random()
    """
    assert rule_ids(src) == ["REPRO111", "REPRO111"]


def test_repro101_flags_wall_clock_duration_arithmetic_in_service():
    src = """\
        import time

        def elapsed(started):
            return time.time() - started

        def expired(deadline):
            return time.time() >= deadline
    """
    assert rule_ids(src, module="repro.service.fake") == ["REPRO101", "REPRO101"]


def test_repro101_allows_display_stamps_and_monotonic_durations_in_service():
    src = """\
        import time

        def stamp():
            return time.time()

        def elapsed(started_monotonic):
            return time.monotonic() - started_monotonic
    """
    assert rule_ids(src, module="repro.service.fake") == []


def test_repro102_flags_global_random_calls():
    src = """\
        import random

        def jitter():
            return random.random()
    """
    assert rule_ids(src) == ["REPRO111"]


def test_repro102_allows_seeded_random_instance():
    src = """\
        import random

        def make_rng(seed):
            return random.Random(seed)
    """
    assert rule_ids(src) == []


def test_repro102_flags_unseeded_random_instance():
    src = """\
        import random

        def make_rng():
            return random.Random()
    """
    assert rule_ids(src) == ["REPRO111"]


def test_repro103_flags_numpy_global_prng():
    src = """\
        import numpy as np

        def noise(n):
            return np.random.rand(n)
    """
    assert rule_ids(src) == ["REPRO111"]


def test_repro103_flags_unseeded_default_rng():
    src = """\
        import numpy as np

        def make_rng():
            return np.random.default_rng()
    """
    assert rule_ids(src) == ["REPRO111"]


def test_repro103_allows_seeded_default_rng():
    src = """\
        import numpy as np

        def make_rng(seed):
            return np.random.default_rng(seed)
    """
    assert rule_ids(src) == []


def test_repro104_flags_set_iteration():
    src = """\
        def visit(items):
            for item in set(items):
                yield item
    """
    assert rule_ids(src) == ["REPRO104"]


def test_repro104_flags_set_comprehension_in_generator():
    src = """\
        def ids(nodes):
            return [n.id for n in {n for n in nodes}]
    """
    assert rule_ids(src) == ["REPRO104"]


def test_repro104_sees_through_order_preserving_wrappers():
    src = """\
        def visit(items):
            for item in list(set(items)):
                yield item
    """
    assert rule_ids(src) == ["REPRO104"]


def test_repro104_allows_sorted_set_iteration():
    src = """\
        def visit(items):
            for item in sorted(set(items)):
                yield item
    """
    assert rule_ids(src) == []


# ---------------------------------------------------------------------------
# Cycle-accounting rules (REPRO201-202)


def test_repro201_flags_float_equality_on_cycles():
    src = """\
        def same(result, expected_cycles):
            return result.cycles == expected_cycles
    """
    assert rule_ids(src) == ["REPRO201"]


def test_repro201_flags_not_equal_on_latency():
    src = """\
        def drifted(latency, reference):
            return latency != reference
    """
    assert rule_ids(src) == ["REPRO201"]


def test_repro201_allows_ordering_comparisons():
    src = """\
        def late(finish, deadline):
            return finish > deadline
    """
    assert rule_ids(src) == []


def test_repro201_allows_equality_on_non_cycle_names():
    src = """\
        def same_name(scene, expected):
            return scene.name == expected
    """
    assert rule_ids(src) == []


def test_repro201_exempts_none_comparisons():
    src = """\
        def unset(cycles):
            return cycles == None
    """
    assert rule_ids(src) == []


def test_repro202_flags_division_into_cycle_name():
    src = """\
        def per_node(total, n):
            cycles = total / n
            return cycles
    """
    assert rule_ids(src) == ["REPRO202"]


def test_repro202_flags_augmented_division():
    src = """\
        def halve(state):
            state.stall_cycles /= 2
            return state
    """
    assert rule_ids(src) == ["REPRO202"]


def test_repro202_allows_floor_division():
    src = """\
        def per_node(total, n):
            cycles = total // n
            return cycles
    """
    assert rule_ids(src) == []


def test_repro202_allows_division_into_ratio_names():
    src = """\
        def utilisation(busy, total):
            ratio = busy / total
            return ratio
    """
    assert rule_ids(src) == []


def test_repro202_does_not_descend_into_lambdas():
    src = """\
        def scaled(values, n):
            cycle_fn = lambda v: v / n
            return cycle_fn
    """
    assert rule_ids(src) == []


# ---------------------------------------------------------------------------
# Observability-hygiene rules (REPRO301-302)


def test_repro301_flags_chained_recorder_accessor():
    src = """\
        from repro.obs.recorder import recorder

        def hot(track, name, start, end):
            recorder().span(track, name, start, end)
    """
    assert rule_ids(src) == ["REPRO301"]


def test_repro301_flags_accessor_inside_loop():
    src = """\
        from repro.obs.recorder import recorder

        def hot(items):
            for item in items:
                rec = recorder()
    """
    assert rule_ids(src) == ["REPRO301"]


def test_repro301_allows_hoisted_resolution():
    src = """\
        from repro.obs.recorder import recorder

        def hot(items):
            rec = recorder()
            for item in items:
                rec.instant(("sim", "node"), "tick")
    """
    assert rule_ids(src) == []


def test_repro302_flags_bad_metric_name():
    src = """\
        def instrument(registry):
            return registry.counter("CacheMisses")
    """
    assert rule_ids(src, module="repro.obs.fake") == ["REPRO302"]


def test_repro302_flags_single_segment_name():
    src = """\
        def instrument(registry):
            return registry.gauge("depth")
    """
    assert rule_ids(src, module="repro.obs.fake") == ["REPRO302"]


def test_repro302_flags_bad_fstring_fragment():
    src = """\
        def instrument(registry, node):
            return registry.histogram(f"Node-{node}.depth")
    """
    assert rule_ids(src, module="repro.obs.fake") == ["REPRO302"]


def test_repro302_allows_dotted_lower_names():
    src = """\
        def instrument(registry, node):
            registry.counter("cache.misses")
            registry.gauge(f"fifo.{node}.depth")
            return registry.histogram("bus.transfer_cycles")
    """
    assert rule_ids(src, module="repro.obs.fake") == []


# ---------------------------------------------------------------------------
# Concurrency rules (REPRO401; lock discipline is project-mode REPRO411/412)


def test_repro401_flags_bare_except():
    src = """\
        def step(job):
            try:
                job.run()
            except:
                pass
    """
    assert rule_ids(src, module="repro.service.fake") == ["REPRO401"]


def test_repro401_allows_typed_except():
    src = """\
        def step(job):
            try:
                job.run()
            except Exception:
                pass
    """
    assert rule_ids(src, module="repro.service.fake") == []


def test_repro401_scoped_to_service_layer():
    src = """\
        def step(job):
            try:
                job.run()
            except:
                pass
    """
    assert rule_ids(src, module="repro.core.fake") == []


# ---------------------------------------------------------------------------
# Batch-core rules (REPRO501)


def test_repro501_flags_for_loop_over_column_attribute():
    src = """\
        def misses(fragments):
            out = []
            for value in fragments.u_half:
                out.append(value * 2.0)
            return out
    """
    assert rule_ids(src, module="repro.texture.filtering") == ["REPRO501"]


def test_repro501_flags_zip_and_range_len_spellings():
    src = """\
        def walk(buf):
            for u, v in zip(buf.u_half, buf.v_half):
                yield u + v

        def walk_indexed(buf):
            for index in range(len(buf.x)):
                yield buf.x[index]
    """
    assert rule_ids(src, module="repro.raster.batch") == ["REPRO501", "REPRO501"]


def test_repro501_flags_column_dict_subscript_iteration():
    src = """\
        def drain(piece):
            return [value + 1 for value in piece["triangle"]]
    """
    assert rule_ids(src, module="repro.cache.stream") == ["REPRO501"]


def test_repro501_flags_while_condition_on_column():
    src = """\
        def drain(buf):
            index = 0
            while index < len(buf.triangle):
                index += 1
    """
    assert rule_ids(src, module="repro.cache.batchlru") == ["REPRO501"]


def test_repro501_allows_chunk_and_setup_loops():
    src = """\
        def chunked(n, size):
            for start in range(0, n, size):
                yield start

        def join(pieces, names):
            return {name: [piece[name] for piece in pieces] for name in names}
    """
    assert rule_ids(src, module="repro.cache.stream") == []


def test_repro501_quiet_in_an_excluded_package():
    src = """\
        def reference(fragments):
            return [value * 2.0 for value in fragments.u_half]
    """
    assert rule_ids(src, module="repro.obs.fake") == []
    assert rule_ids(src, module="repro.service.fake") == []


# ---------------------------------------------------------------------------
# The virtual-texturing modules are inside the perimeter


@pytest.mark.parametrize("module", ["repro.texture.pages", "repro.workloads.vt"])
def test_vt_modules_are_in_the_deterministic_scope(module):
    src = """\
        import time

        def stamp():
            return time.time()
    """
    assert rule_ids(src, module=module) == ["REPRO111"]


@pytest.mark.parametrize("module", ["repro.texture.pages", "repro.workloads.vt"])
def test_vt_modules_require_seeded_prngs(module):
    src = """\
        import numpy

        def shuffle_pages(pages):
            return numpy.random.permutation(pages)
    """
    assert rule_ids(src, module=module) == ["REPRO111"]


def test_vt_modules_forbid_set_order_dependence():
    src = """\
        def evict_order(pages):
            return [page for page in set(pages)]
    """
    assert rule_ids(src, module="repro.texture.pages") == ["REPRO104"]


@pytest.mark.parametrize("module", ["repro.texture.pages", "repro.workloads.vt"])
def test_vt_modules_are_in_the_batch_perimeter(module):
    src = """\
        def faults(fragments, resident):
            return [u for u in fragments.u_half if u not in resident]
    """
    assert rule_ids(src, module=module) == ["REPRO501"]


def test_vt_chunked_observe_loop_is_clean():
    src = """\
        def observe_frames(table, lines, n, chunk):
            for start in range(0, n, chunk):
                table.observe(lines[start : start + chunk])
    """
    assert rule_ids(src, module="repro.workloads.vt") == []


# ---------------------------------------------------------------------------
# Inline suppression


def test_inline_ignore_with_reason_suppresses():
    src = """\
        import time

        def stamp():
            return time.time()  # repro-lint: ignore[REPRO111] -- test clock shim
    """
    assert rule_ids(src) == []


def test_inline_ignore_only_covers_named_rule():
    src = """\
        import time

        def stamp():
            return time.time()  # repro-lint: ignore[REPRO104] -- wrong rule
    """
    assert rule_ids(src) == ["REPRO111"]


def test_inline_ignore_without_reason_is_rejected():
    src = """\
        import time

        def stamp():
            return time.time()  # repro-lint: ignore[REPRO111]
    """
    with pytest.raises(ConfigurationError, match="needs a reason"):
        findings_for(src)


# ---------------------------------------------------------------------------
# Registry


def test_registry_rejects_duplicate_rule_id():
    with pytest.raises(ConfigurationError, match="duplicate rule id"):

        @register
        class Clash(Rule):  # noqa: F841 (registered for its side effect)
            id = "REPRO101"
            title = "clashes with the wall-clock rule"


def test_registry_rejects_missing_rule_id():
    with pytest.raises(ConfigurationError, match="has no id"):

        @register
        class Nameless(Rule):  # noqa: F841 (registered for its side effect)
            title = "no id"


def test_select_rules_rejects_unknown_ids():
    with pytest.raises(ConfigurationError, match="REPRO999"):
        select_rules(["REPRO999"])


def test_select_rules_narrows_the_active_set():
    rules = select_rules(["REPRO101", "REPRO401"])
    assert [rule.id for rule in rules] == ["REPRO101", "REPRO401"]


def test_all_rules_catalog_is_complete():
    ids = {rule.id for rule in all_rules()}
    assert ids >= {
        "REPRO101",
        "REPRO104",
        "REPRO111",
        "REPRO201",
        "REPRO202",
        "REPRO301",
        "REPRO302",
        "REPRO401",
        "REPRO411",
        "REPRO412",
        "REPRO501",
    }


def test_scope_matching_is_package_exact():
    # "repro.obsolete" must not match the excluded "repro.obs" package.
    src = """\
        import time

        def stamp():
            return time.time()
    """
    assert rule_ids(src, module="repro.obsolete.fake") == ["REPRO111"]
    assert rule_ids(src, module="repro.obs.fake") == []


# ---------------------------------------------------------------------------
# File walking and module naming


def _seed_violation_tree(root: Path) -> Path:
    pkg = root / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    bad = pkg / "bad.py"
    bad.write_text(
        "import time\n\n\ndef stamp():\n    return time.time()\n",
        encoding="utf-8",
    )
    (pkg / "__pycache__").mkdir()
    (pkg / "__pycache__" / "junk.py").write_text("import time\n", encoding="utf-8")
    return bad


def test_module_name_for_path_anchors_on_src():
    assert module_name_for_path("src/repro/core/bad.py") == "repro.core.bad"
    assert module_name_for_path("/abs/src/repro/core/machine.py") == "repro.core.machine"


def test_iter_python_files_skips_cache_dirs(tmp_path):
    bad = _seed_violation_tree(tmp_path)
    files = iter_python_files([tmp_path / "src"])
    assert files == [bad]


def test_iter_python_files_rejects_missing_paths(tmp_path):
    with pytest.raises(ConfigurationError, match="no such file"):
        iter_python_files([tmp_path / "nowhere"])


def test_run_finds_seeded_violation(tmp_path):
    _seed_violation_tree(tmp_path)
    report = run([tmp_path / "src"])
    assert not report.clean
    assert [f.rule for f in report.findings] == ["REPRO111"]
    assert report.files_checked == 1


@pytest.mark.parametrize("package", ["core", "newpkg"])
def test_new_module_joins_the_perimeter_without_a_list_edit(tmp_path, package):
    # The perimeter fails closed: a module nobody has heard of, even in
    # a package nobody has heard of, is checked the moment it exists.
    module = tmp_path / "src" / "repro" / package / "newmod.py"
    module.parent.mkdir(parents=True)
    module.write_text("import time\n\n\ndef now():\n    return time.time()\n")
    report = run([tmp_path / "src"])
    assert [(f.rule, f.path) for f in report.findings] == [("REPRO111", str(module))]


# ---------------------------------------------------------------------------
# Baseline round-trip


def test_baseline_round_trip(tmp_path):
    _seed_violation_tree(tmp_path)
    findings = run([tmp_path / "src"]).findings
    baseline_path = tmp_path / "lint-baseline.txt"

    assert write_baseline(baseline_path, findings) == 1

    # Fresh entries carry the TODO placeholder and must not load.
    with pytest.raises(ConfigurationError, match="TODO"):
        Baseline.load(baseline_path)

    justified = baseline_path.read_text(encoding="utf-8").replace(
        TODO_JUSTIFICATION, "# fixture clock, exercised only by tests"
    )
    baseline_path.write_text(justified, encoding="utf-8")

    baseline = Baseline.load(baseline_path)
    report = run([tmp_path / "src"], baseline=baseline)
    assert report.clean
    assert len(report.suppressed) == 1
    assert report.stale_entries == []


def test_baseline_entry_goes_stale_when_code_changes(tmp_path):
    bad = _seed_violation_tree(tmp_path)
    baseline_path = tmp_path / "lint-baseline.txt"
    write_baseline(baseline_path, run([tmp_path / "src"]).findings)
    justified = baseline_path.read_text(encoding="utf-8").replace(
        TODO_JUSTIFICATION, "# fixture clock, exercised only by tests"
    )
    baseline_path.write_text(justified, encoding="utf-8")

    # Fix the violation: the entry must surface as stale, not linger.
    bad.write_text("def stamp(clock):\n    return clock.now\n", encoding="utf-8")
    report = run([tmp_path / "src"], baseline=Baseline.load(baseline_path))
    assert report.clean
    assert len(report.stale_entries) == 1


def test_baseline_rejects_blank_justification(tmp_path):
    baseline_path = tmp_path / "lint-baseline.txt"
    baseline_path.write_text(
        "REPRO101\tsrc/repro/core/bad.py\treturn time.time()\t#\n", encoding="utf-8"
    )
    with pytest.raises(ConfigurationError, match="justification"):
        Baseline.load(baseline_path)


def test_baseline_rejects_malformed_lines(tmp_path):
    baseline_path = tmp_path / "lint-baseline.txt"
    baseline_path.write_text("REPRO101 no tabs here\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="4 tab-separated fields"):
        Baseline.load(baseline_path)


def test_baseline_matches_by_path_suffix(tmp_path):
    # A repo-relative entry suppresses findings reported with absolute
    # paths (runs started from different directories share one file).
    _seed_violation_tree(tmp_path)
    findings = run([tmp_path / "src"]).findings
    snippet = findings[0].snippet
    baseline_path = tmp_path / "lint-baseline.txt"
    baseline_path.write_text(
        f"REPRO111\tsrc/repro/core/bad.py\t{snippet}\t# fixture clock\n",
        encoding="utf-8",
    )
    report = run([tmp_path / "src"], baseline=Baseline.load(baseline_path))
    assert report.clean
    assert len(report.suppressed) == 1


# ---------------------------------------------------------------------------
# CLI


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
    _seed_violation_tree(tmp_path)
    monkeypatch.chdir(tmp_path)

    assert lint_main(["src"]) == 1
    out = capsys.readouterr().out
    assert "REPRO111" in out and out.strip().endswith("1 file(s) checked")

    assert lint_main(["--list-rules"]) == 0
    assert lint_main(["src", "--baseline", "missing.txt"]) == 2


def test_cli_write_baseline_then_clean(tmp_path, monkeypatch, capsys):
    _seed_violation_tree(tmp_path)
    monkeypatch.chdir(tmp_path)

    assert lint_main(["src", "--write-baseline"]) == 0
    baseline_path = tmp_path / "lint-baseline.txt"
    justified = baseline_path.read_text(encoding="utf-8").replace(
        TODO_JUSTIFICATION, "# fixture clock, exercised only by tests"
    )
    baseline_path.write_text(justified, encoding="utf-8")

    # The default baseline is picked up from the working directory.
    capsys.readouterr()
    assert lint_main(["src"]) == 0
    assert "OK:" in capsys.readouterr().out


def test_cli_json_format(tmp_path, monkeypatch, capsys):
    import json

    _seed_violation_tree(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert lint_main(["src", "--format", "json", "--no-baseline"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_checked"] == 1
    assert payload["findings"][0]["rule"] == "REPRO111"


def test_cli_select_narrows_rules(tmp_path, monkeypatch, capsys):
    _seed_violation_tree(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert lint_main(["src", "--select", "REPRO104"]) == 0
    assert lint_main(["src", "--select", "NOPE"]) == 2


# ---------------------------------------------------------------------------
# Meta-test: the shipped tree is clean under the shipped baseline.


def test_src_tree_is_lint_clean():
    baseline = Baseline.load(REPO_ROOT / "lint-baseline.txt")
    report = run([REPO_ROOT / "src"], baseline=baseline)
    assert report.findings == [], "\n".join(f.render() for f in report.findings)
    assert report.stale_entries == [], "stale baseline entries: " + "; ".join(
        entry.render() for entry in report.stale_entries
    )


# The hand-kept lists the computed perimeter replaced: every module
# they named must still be inside it.
_RETIRED_SCOPE_LISTS = (
    # the former deterministic scopes
    "repro.core",
    "repro.cache",
    "repro.raster",
    "repro.texture.pages",
    "repro.workloads.vt",
    # the former vectorized scopes
    "repro.raster.batch",
    "repro.texture.filtering",
    "repro.cache.stream",
    "repro.cache.batchlru",
)


def test_perimeter_covers_the_retired_scope_lists():
    modules = {
        module_name_for_path(str(path))
        for path in iter_python_files([REPO_ROOT / "src"])
    }
    for scope in _RETIRED_SCOPE_LISTS:
        covered = [m for m in modules if m == scope or m.startswith(scope + ".")]
        assert covered, f"{scope} names no shipped module"
        assert all(in_perimeter(module) for module in covered), scope
