#!/usr/bin/env bash
# Golden paper-figure diff at one forced kernel ISA: runs every study in
# examples/studies/paper_figures.json through actuary_cli (CHIPLET_ISA
# already pinned by run_with_isa.sh) and diffs the results against the
# committed golden exactly (`--tol 0`), as CI's golden-studies job does.
# The kernels claim bit-identity across ISA levels, so a forced level
# must reproduce the golden numbers exactly as the default build does.
#
#   golden_isa_diff.sh <actuary_cli> <source-dir> <scratch-dir>
set -eu

cli="$1"
src="$2"
scratch="$3"

mkdir -p "$scratch"
out="$scratch/paper_figures.${CHIPLET_ISA:-default}.json"

"$cli" study "$src/examples/studies/paper_figures.json" --out "$out"
"$cli" diff "$src/examples/studies/paper_figures.golden.json" "$out" --tol 0
