#!/usr/bin/env bash
# Builds `rapid` and the suite from this checkout, then runs the suite with
# the given arguments, e.g.
#   bash bench/suite/run.sh --workload shared-seq --seed 1 --seconds 10 --trace 0
# Build output goes to stderr, so the last line of stdout is the suite's
# JSON result.  The build and the suite write only inside the checkout:
# the dune cache is disabled and temporary files go to bench/suite/_work.
set -euo pipefail
cd "$(dirname "$0")/../.."
export DUNE_CACHE=disabled
export TMPDIR="$PWD/bench/suite/_work/tmp"
mkdir -p "$TMPDIR"
dune build --root . --display quiet ./bin/rapid.exe ./bench/suite/suite.exe 1>&2
exec ./_build/default/bench/suite/suite.exe --rapid ./_build/default/bin/rapid.exe "$@"
