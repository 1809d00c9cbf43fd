#!/usr/bin/env bash
# Build the benchmark from source, then run one workload:
#   bash perfbench/run.sh --workload gemm-square --seed 1 --seconds 10 --trace 0
# Run from the root of a checkout. Build output goes to stderr; the last
# stdout line is the result object. All state (dune's _build, the kernel
# store, temp files, traces) stays inside the checkout.
set -euo pipefail

if [[ ! -f dune-project || ! -d lib ]]; then
  echo "perfbench: run from the root of a full checkout (dune-project or lib/ missing)" >&2
  exit 2
fi

work=.bench_build/perfbench
mkdir -p "$work/tmp"
export TMPDIR="$PWD/$work/tmp"
export DUNE_CACHE=disabled
export GIT_CEILING_DIRECTORIES="$(dirname "$PWD")"

dune build --root . --profile release ./perfbench/bench.exe >&2
exec ./_build/default/perfbench/bench.exe "$@"
