#!/usr/bin/env bash
# Compares bench_e2e reports of two commits, one row per (metric, workload),
# against the bounds in BENCHMARK.json. Exits nonzero on a regression or on
# a rise in failed/attempted.
#
# Usage: bench/e2e/compare.sh <parent-results-dir> <change-results-dir>
# (directories of the <workload>-s<seed>-t<trace>.json files run.py writes)
set -euo pipefail
if [ $# -ne 2 ]; then
  echo "usage: $0 <parent-results-dir> <change-results-dir>" >&2
  exit 2
fi
exec python3 "$(dirname "$0")/run.py" --compare "$1"/*-t?.json -- "$2"/*-t?.json
