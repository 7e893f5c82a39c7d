#!/usr/bin/env bash
# Reproduce the whole paper: tests, every table/figure, extensions.
#
# Usage:
#   scripts/reproduce.sh          # each experiment's declared default scale
#   REPRO_SCALE=0.5 scripts/reproduce.sh   # one scale for every experiment
#   REPRO_WORKERS=8 scripts/reproduce.sh   # parallel Figure-7 panels
#
# Outputs land in results/ (one .txt per table/figure panel).

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== test suite =="
python -m pytest tests/ -q

echo "== every table & figure =="
repro-experiments all --out results/

echo "== regenerate docs/API.md =="
python scripts/gen_api_docs.py

echo "== results =="
ls -l results/
