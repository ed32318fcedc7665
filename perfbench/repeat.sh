#!/usr/bin/env bash
# Runs one workload once per seed and appends every run's output to a
# results file for the noise tool.
#
#   bash perfbench/repeat.sh <workload> <seconds> <trace> <out> <seed>...
#
# Example, ten seeds of oltp-tpcc, then the noise report:
#
#   bash perfbench/repeat.sh oltp-tpcc 20 0 results.jsonl $(seq 1 10)
#   go -C perfbench run ./noise report ../results.jsonl
set -euo pipefail

if [ "$#" -lt 5 ]; then
	echo "usage: $0 <workload> <seconds> <trace> <out> <seed>..." >&2
	exit 2
fi
workload="$1" seconds="$2" trace="$3" out="$4"
shift 4
for seed in "$@"; do
	bash "$(dirname "$0")/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" >>"$out"
done
