.PHONY: all build test fmt check clean bench bench-smoke bench-guard chaos chaos-smoke replication replication-smoke availability fastpath fastpath-smoke obs-smoke perfbench-smoke sim-fingerprint

all: build

build:
	dune build

test:
	dune runtest

# Full benchmark sweep (all figures at quick scale + micro suite).  Each
# ALOHA series prints the compute mode it used ([fig9]/[fig10] lines and
# the pool/planned micro names); lock-based engines have no compute phase.
bench:
	dune exec bench/main.exe -- --json all
	@echo "compute-mode attribution: see '[fig9] ALOHA(...)' / '[fig10]' lines above;"
	@echo "  micro series 'functor_cc epoch 64x128 pool|planned' name their mode."

# CI smoke: one macro figure + the micro suite, with JSON emission, so the
# bench binary and BENCH_*.json output can't silently rot.
bench-smoke:
	dune exec bench/main.exe -- --json fig6 micro
	dune exec bin/alohadb_cli.exe -- trace --engine aloha --sample 16 \
	  --out TRACE_aloha.json --telemetry TELEMETRY.json

# Compare the micro suite against the committed baseline; fails on >30%
# ns/op regressions (see ci/check_bench_regression.py for how to update).
bench-guard:
	dune exec bench/main.exe -- --json micro
	python3 ci/check_bench_regression.py BENCH_micro.json bench/baseline_micro.json

# Randomized fault schedules against all three engines, 25 seeds each.
# A failing (engine, seed) pair replays with:
#   dune exec bin/alohadb_cli.exe -- chaos --engine E --seed N --verbose
chaos:
	dune exec bin/alohadb_cli.exe -- chaos --engine all --seed 1 --count 25

# CI smoke: fewer seeds so the job stays fast.  The second lane reruns
# ALOHA with the planned compute mode so the planner path stays under
# fault injection too.
chaos-smoke:
	dune exec bin/alohadb_cli.exe -- chaos --engine all --seed 1 --count 8
	dune exec bin/alohadb_cli.exe -- chaos --engine aloha --seed 1 --count 2 \
	  --compute planned

# The replication battery: every backend crashed once per run, k = 2,
# failover expected to mask each loss (invariants: no committed txn
# lost, converged state, completion).  50 seeds — the PR's acceptance
# sweep.  A failing seed replays with:
#   dune exec bin/alohadb_cli.exe -- chaos -e aloha --seed N -k 2 --verbose
replication:
	dune exec bin/alohadb_cli.exe -- chaos --engine aloha --seed 1 --count 50 \
	  --replicas 2

# CI smoke: fewer seeds, both k = 2 and k = 3, plus the dedicated
# replication test suite (failover scenarios, ack-gating model check,
# k=2-vs-k=1 behaviour-neutrality differential).
replication-smoke:
	dune exec test/test_main.exe -- test replication
	dune exec bin/alohadb_cli.exe -- chaos --engine aloha --seed 1 --count 8 \
	  --replicas 2
	dune exec bin/alohadb_cli.exe -- chaos --engine aloha --seed 1 --count 2 \
	  --replicas 3

# The availability figure: committed-work-over-time under a permanent
# primary crash at k = 1/2/3; writes BENCH_availability.json and
# validates its structure.
availability:
	dune exec bench/main.exe -- availability
	python3 ci/check_bench_regression.py --validate-availability \
	  BENCH_availability.json

# The latency-collapse figure: the counter-heavy workload with the
# coordination-free commit lane off and on; writes BENCH_fastpath.json
# and gates on the on-series p50 beating the off-series p50.
fastpath:
	dune exec bench/main.exe -- fastpath
	python3 ci/check_bench_regression.py --validate-fastpath \
	  BENCH_fastpath.json

# CI smoke for the fast path: the dedicated test suite (classifier
# unit + qcheck, interleaving oracle, on-vs-off equivalence, chaos
# battery with the lane on), a counter-heavy CLI run and a chaos seed
# with --fastpath, then the figure + its validator.
fastpath-smoke:
	dune exec test/test_main.exe -- test fastpath
	dune exec bin/alohadb_cli.exe -- run --system aloha --workload ycsb \
	  --fastpath on --servers 4 --clients 4 --measure-ms 200
	dune exec bin/alohadb_cli.exe -- chaos --engine aloha --seed 1 --count 2 \
	  --fastpath
	$(MAKE) fastpath

# CI smoke for the epoch ledger: the observability + timeline suites, a
# traced replicated chaos seed streamed to TIMELINE.jsonl, the OCaml
# doctor over that file (incident reconstruction + invariant checks,
# INCIDENTS.json written for the artifact upload), and the independent
# Python re-statement of the same invariants.  Seed 2 is chosen because
# its crashes outlive the failure detector, so the file always contains
# promote events for the doctor to reconstruct.  Last, the Python
# validator must reject a line of a record type the ledger does not
# write, as Obs.Analyze does (the timeline doctor-violations test).
obs-smoke:
	dune exec test/test_main.exe -- test obs
	dune exec test/test_main.exe -- test timeline
	rm -f TIMELINE.jsonl
	dune exec bin/alohadb_cli.exe -- timeline --seed 2 --servers 3 \
	  --replicas 2 --out TIMELINE.jsonl
	dune exec bin/alohadb_cli.exe -- doctor TIMELINE.jsonl \
	  --report INCIDENTS.json
	python3 ci/check_bench_regression.py --validate-timeline TIMELINE.jsonl
	printf '%s\n' \
	  '{"type":"meta","cfg_epoch_us":10000,"nodes":1,"replicas":1}' \
	  '{"type":"stratum","node":0,"t0_us":100,"t1_us":250,"size":4,"workers":[]}' \
	  > TIMELINE_bad.jsonl
	! python3 ci/check_bench_regression.py --validate-timeline \
	  TIMELINE_bad.jsonl
	rm -f TIMELINE_bad.jsonl

# CI smoke for the repo's benchmark (BENCHMARK.json): every workload for
# 5 s, untraced.  run.py exits non-zero when an output check fails: the
# YCSB credit check, the district-counter check, or a repetition whose
# simulated outcome differs from the first.  The wall-clock numbers it
# prints are informational here; nothing compares them.
perfbench-smoke:
	python3 perfbench/run.py --workload all --seed 1 --seconds 5 --trace 0

# The simulated outcome of one `run` point per engine and compute mode,
# host-time lines removed, must match ci/sim_fingerprint.txt byte for
# byte: the gate for changes that claim an identical simulated timeline.
# A change that moves the simulation on purpose regenerates the file with
#   ci/sim_fingerprint.sh > ci/sim_fingerprint.txt
# and says why.
sim-fingerprint:
	dune build bin/alohadb_cli.exe
	sh ci/sim_fingerprint.sh | diff -u ci/sim_fingerprint.txt -

# Check dune-file formatting without promoting (ocamlformat is not a
# dependency; OCaml sources are exempt via dune-project).
fmt:
	dune build @fmt

# fmt + build + full test run (the fastpath suite is part of dune
# runtest; run it alone with: dune exec test/test_main.exe -- test fastpath).
check: fmt build test

clean:
	dune clean
