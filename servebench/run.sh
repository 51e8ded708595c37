#!/usr/bin/env bash
# Build dpsyn and the served-path benchmark from source, then run the
# benchmark with the given arguments (see servebench/README.md).  Run it
# from the root of a checkout.
set -euo pipefail
# Build output stays in the checkout's _build; no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bin/dpsyn.exe ./servebench/main.exe 1>&2
exec ./_build/default/servebench/main.exe --dpsyn ./_build/default/bin/dpsyn.exe "$@"
