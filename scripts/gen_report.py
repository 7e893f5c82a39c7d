#!/usr/bin/env python
"""Assemble results/*.txt into one distributable REPORT.md.

Run after regenerating the results:

    repro-experiments all --out results/
    python scripts/gen_report.py
"""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"
OUT = ROOT / "REPORT.md"

#: (result file stem, section heading) in presentation order; stems not
#: listed fall into the trailing "Other results" section.
SECTIONS = [
    ("table1", "Table 1 — benchmark scene characteristics"),
    ("fig5_imbalance_block", "Figure 5 (top left) — imbalance, block"),
    ("fig5_imbalance_sli", "Figure 5 (top right) — imbalance, SLI"),
    ("fig5_speedup_block", "Figure 5 (bottom left) — perfect-cache speedup, block"),
    ("fig5_speedup_sli", "Figure 5 (bottom right) — perfect-cache speedup, SLI"),
    ("fig6_massive32_1255_block", "Figure 6 — locality, 32massive, block"),
    ("fig6_massive32_1255_sli", "Figure 6 — locality, 32massive, SLI"),
    ("fig6_teapot_full_block", "Figure 6 — locality, teapot, block"),
    ("fig6_teapot_full_sli", "Figure 6 — locality, teapot, SLI"),
    ("fig7_block", "Figure 7 — speedups, block, 1x bus"),
    ("fig7_sli", "Figure 7 — speedups, SLI, 1x bus"),
    ("fig7_ratio2_block", "Figure 7 companion — block, 2x bus"),
    ("fig7_ratio2_sli", "Figure 7 companion — SLI, 2x bus"),
    ("fig8_perfect", "Figure 8 — buffering, perfect cache"),
    ("fig8_lru", "Figure 8 — buffering, 16KB cache"),
    ("ablation_cache_size", "Ablation — cache size"),
    ("ablation_cache_associativity", "Ablation — associativity"),
    ("ablation_interleaving", "Ablation — interleaving vs contiguous bands"),
    ("ablation_interleave_pattern", "Ablation — grid vs Morton dealing"),
    ("ablation_texture_blocking", "Ablation — texture blocking shape"),
    ("ablation_texel_format", "Ablation — texel format"),
    ("ablation_order", "Ablation — submission order"),
    ("ablation_routing", "Ablation — bbox vs oracle routing"),
    ("ablation_early_z", "Ablation — early-Z"),
    ("seeds", "Robustness — generator seeds"),
    ("scale_stability", "Methodology — scale stability"),
    ("cad_contrast", "Methodology — Viewperf/CAD contrast"),
    ("future_dynamic", "Future work — dynamic load balancing"),
    ("future_l2", "Future work — inter-frame L2"),
    ("sort_last", "Comparison — sort-last"),
    ("prefetch", "Validation — prefetch latency hiding"),
    ("overlap", "Validation — overlap closed form"),
    ("geometry_stage", "Extension — finite-rate geometry stage"),
    ("vt_distribution", "Extension — distributions under virtual texturing"),
]


def main() -> None:
    if not RESULTS.is_dir():
        raise SystemExit(
            "results/ not found — run `repro-experiments all --out results/` first"
        )
    available = {path.stem: path for path in RESULTS.glob("*.txt")}
    parts = [
        "# Reproduction report",
        "",
        "Raw output of every experiment, assembled from `results/`.",
        "Claim-by-claim comparison against the paper lives in EXPERIMENTS.md.",
        "",
    ]
    used = set()
    for stem, heading in SECTIONS:
        path = available.get(stem)
        if path is None:
            continue
        used.add(stem)
        parts += [f"## {heading}", "", "```", path.read_text().rstrip(), "```", ""]
    leftovers = sorted(set(available) - used)
    if leftovers:
        parts += ["## Other results", ""]
        for stem in leftovers:
            parts += [f"### {stem}", "", "```",
                      available[stem].read_text().rstrip(), "```", ""]
    OUT.write_text("\n".join(parts))
    print(f"wrote {OUT} ({len(used) + len(leftovers)} sections)")


if __name__ == "__main__":
    main()
