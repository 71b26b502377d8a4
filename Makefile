# Placeless — build, test, and experiment targets.

GO ?= go

.PHONY: all build vet fmt-check test test-race race chaos fuzz store sim sim-seed cluster bench bench-smoke bench-pairs cover check-metrics check-docs check-flags check-options experiments examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail, naming the files, when any Go source is not gofmt-clean (what
# CI runs).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l . is not empty:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Focused race sweep over the concurrent subsystems (what CI runs):
# the sharded cache core (its panicking-transform wedge test included),
# the document space (NotifierPair is driven by every server connection
# and the cache at once, and its apply helper runs a miss's transforms
# on the entry table's own bytes), the TCP server/remote-cache pair,
# the file-system repository (Store and Fetch order themselves per
# path) and plcached (a connection's held
# response bytes are shared by the handler and net/http's background
# read), twice, so scheduling-order-dependent
# races get two chances to surface;
# then the notifier pair's racing installs, closes and disconnects
# twenty times (Ensure and Close subscribe and unsubscribe under the
# pair's lock), with the remote cache's reconnect and subscription
# tests (its suspect window is the client's epoch against the one its
# reconnect hook flushed, read across two locks), and the push tests:
# the client's read loop runs the invalidation handler itself, before
# it decodes the next frame.
race:
	$(GO) test -race -count=2 ./internal/core/... ./internal/docspace/... ./internal/server/... ./internal/remote/... ./internal/obs/... ./internal/store/... ./internal/repo/... ./cmd/plcached/
	$(GO) test -race -count=20 -run 'NotifierPair|Parity|Disconnect|CloseDetaches|Reconnect|Subscri|FirstMiss|Push|BlockingInval' ./internal/docspace/ ./internal/server/ ./internal/core/ ./internal/remote/

# Fault-injection suite: wedged servers, kill/restart cycles, degraded
# modes, reconnect/resubscribe/flush. The short timeout is part of the
# contract — a chaos test that hangs IS the failure it hunts.
chaos:
	$(GO) test -race -run Chaos -timeout 120s ./internal/server/... ./internal/remote/...

# Run the fuzz seed corpora as regression tests (no open-ended
# fuzzing; use `go test -fuzz=FuzzShardHash ./internal/core/` for that).
# The wire fuzzers' seeds are built by the encoder, so they are always
# of the current wire version; TestWireGolden (tier-1) pins its bytes.
fuzz:
	$(GO) test -run Fuzz ./...

# Durable disk tier: unit tests + the crash-consistency sweep under
# -race, the configuration journal's sweeps (the same record codec),
# the warm-restart integration tests, then a short open-ended fuzz of
# the segment format beyond the checked-in seed corpus.
store:
	$(GO) test -race -count=1 ./internal/store/
	$(GO) test -race -count=1 -run 'Journal|Replay' ./internal/server/
	$(GO) test -race -run TestDurable -count=1 ./internal/core/
	$(GO) test -run NONE -fuzz FuzzSegmentRoundTrip -fuzztime 30s ./internal/store/

# Deterministic whole-stack simulation sweep: 1200 seeded schedules
# through the full stack (docspace, core cache, server, remote cache)
# with fault injection, every read checked against the stale-read
# oracle. A failure prints the seed and a replay command; see
# docs/TESTING.md.
sim:
	$(GO) test -race -timeout 45m -run TestSimSweep ./internal/sim -args -sim.seeds=1200 -sim.ops=350

# Replay one failing seed with full -v output: make sim-seed SEED=1234
sim-seed:
	$(GO) test -race -run 'TestSimSeed' -v ./internal/sim -args -sim.seed=$(SEED) -sim.ops=350

# Cluster tier: hash-ring and router unit/property tests under -race,
# the kill-during-rebalance regression schedule, then a forced
# multi-node simulation sweep (every seed runs 2–4 nodes behind the
# consistent-hash router, with node kills, joins, and leaves in the
# operation mix). See docs/CLUSTER.md.
cluster:
	$(GO) test -race -count=1 ./internal/cluster/
	$(GO) test -race -run TestScheduleKillDuringRebalance ./internal/sim
	$(GO) test -race -timeout 30m -run TestSimSweepCluster ./internal/sim -args -sim.cluster-seeds=256 -sim.ops=350

# Full benchmark sweep (Table 1 + extension experiments + micro-benchmarks,
# BenchmarkWireConfigOp and BenchmarkRemoteFirstMiss4K among them).
bench:
	$(GO) test -bench=. -benchmem ./...

# One-iteration benchmark smoke run — the CI guard against benchmark
# rot (benchmarks that no longer compile or crash on first iteration).
bench-smoke:
	$(GO) test -run NONE -bench . -benchtime 1x ./...

# The pair table a performance claim is made with: the live-daemon
# benchmark (bench/) on REV and on the working tree, PAIRS times each
# on seeds SEED0, SEED0+1, …, alternating which side goes first, with
# medians, quartiles, per-pair ratios and pairs won.
#   make bench-pairs REV=HEAD~1 WORKLOAD=churn_mix [PAIRS=10] [SEED0=2]
PAIRS ?= 10
SEED0 ?= 2
bench-pairs:
	sh scripts/bench_pairs.sh $(REV) $(WORKLOAD) $(PAIRS) $(SEED0)

# Machine-readable result of one experiment by index (make bench-e4,
# make bench-e12, bench-e16 … bench-e18): prints the table and writes
# the BENCH_<artifact>.json cmd/plbench names for it
# (BENCH_cluster.json for e16, BENCH_prefix.json for e17,
# BENCH_swarm.json for e18) in the working directory.
bench-e%:
	$(GO) run ./cmd/plbench -experiment e$*

# Per-package statement coverage summary (what CI uploads as an
# artifact). Writes cover.out in the working directory.
cover:
	$(GO) test -coverprofile=cover.out -covermode=atomic ./...
	$(GO) tool cover -func=cover.out | tail -n 1

# Scrape briefly-run daemons (placelessd, plcached, cluster-mode
# plcached) and diff the /metrics family set against
# docs/metric_names.golden (what CI runs).
check-metrics:
	sh scripts/check_metrics.sh

# Verify every relative link in the repository's markdown resolves
# (what CI runs).
check-docs:
	sh scripts/check_docs.sh

# Verify flags and documentation agree: every flag a command defines is
# documented as `-name`, and every `-name` written beside a command
# name in README.md / docs/*.md is defined by that command (what CI
# runs).
check-flags:
	sh scripts/check_flags.sh

# Verify no option ships without a caller: every exported Options
# field under internal/, every With* dial option and every Set* method
# on server.Server is referenced by non-test code outside its package
# (what CI runs).
check-options:
	sh scripts/check_options.sh

# Human-readable experiment tables (what EXPERIMENTS.md records).
experiments:
	$(GO) run ./cmd/plbench all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/collaboration
	$(GO) run ./examples/webproxy
	$(GO) run ./examples/qoscache
	$(GO) run ./examples/officeday
	$(GO) run ./examples/remotecache

clean:
	$(GO) clean ./...
