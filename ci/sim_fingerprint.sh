#!/bin/sh
# Print the simulated outcome of a fixed set of `alohadb_cli run` points,
# one per engine and compute mode, with every host-time line removed
# (`wall clock:` and the `(host cpu)` stage rows).  What is left depends
# only on the simulation, so a change that claims to leave the simulated
# timeline byte-identical must leave this output unchanged.
#
# Usage: ci/sim_fingerprint.sh [path/to/alohadb_cli.exe]
# `make sim-fingerprint` diffs the output against ci/sim_fingerprint.txt.
set -eu
cli=${1:-./_build/default/bin/alohadb_cli.exe}

point() {
  echo "== run -n 4 $*"
  "$cli" run -n 4 "$@" | grep -v -e '^wall clock:' -e '(host cpu)'
}

# ALOHA windows are short (every point commits thousands of txns); the
# lock-based engines need longer ones to commit at all on TPC-C.
point -s aloha -w ycsb --compute pool --warmup-ms 25 --measure-ms 25
point -s aloha -w ycsb --ci 0.1 --compute planned --warmup-ms 25 --measure-ms 25
point -s aloha -w tpcc --warmup-ms 25 --measure-ms 25
point -s calvin -w tpcc --measure-ms 200
point -s calvin -w ycsb --measure-ms 100
point -s twopl -w tpcc --warmup-ms 25 --measure-ms 25
