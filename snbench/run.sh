#!/bin/sh
# Build the benchmark from this checkout's sources and run it:
#   sh snbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root.  Build output goes to stderr, so the
# last line of stdout is the result object.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f snbench/dune ]; then
  echo "snbench: run from the root of a snoise source checkout" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . ./snbench/main.exe 1>&2
jobs=$(nproc)
commit=unknown
if [ -e .git ]; then commit=$(git rev-parse HEAD 2>/dev/null || echo unknown); fi
# set-up time counts from here: process launch and library start-up
started=$(date +%s.%N)
exec ./_build/default/snbench/main.exe --nproc "$jobs" --commit "$commit" \
  --started "$started" "$@"
