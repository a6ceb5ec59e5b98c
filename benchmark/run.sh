#!/usr/bin/env bash
# Build crbench and the crsolved daemon from this source tree, then run
#   crbench run --workload W --seed S --seconds T --trace 0|1
# from the root of the tree. Build output goes to stderr; stdout carries
# only crbench's report, whose last line is the JSON summary.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "benchmark/run.sh: no source tree to build here (need dune-project, lib/, bin/)" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi

# keep every build artifact inside the tree: no shared dune cache
export DUNE_CACHE=disabled
dune build --root . ./benchmark/crbench.exe ./bin/crsolved.exe 1>&2
exec ./_build/default/benchmark/crbench.exe run "$@"
