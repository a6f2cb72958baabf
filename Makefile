# Standard entry points for the sstiming reproduction. Everything is
# stdlib-only Go; no generated files, no external tools.

GO ?= go

# Total-coverage floor for `make cover`, in percent. Raise it when coverage
# genuinely improves; never lower it to make a PR pass.
COVER_FLOOR ?= 75.0

.PHONY: build test race vet verify conformance cache-conformance chaos store-chaos session-chaos shard-chaos net-chaos service-smoke cover bench bench-smoke bench-go bench-parallel clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Tier-1 verification loop (see ROADMAP.md). Runs every stage through a
# timing wrapper and prints a per-stage wall-clock summary at the end, so
# a slow stage is visible instead of buried in test output.
VERIFY_STAGES := build vet test race conformance cache-conformance chaos \
	store-chaos session-chaos shard-chaos net-chaos service-smoke

verify:
	@set -e; times=""; total_start=$$(date +%s); \
	for stage in $(VERIFY_STAGES); do \
		start=$$(date +%s); \
		$(MAKE) --no-print-directory $$stage; \
		times="$$times $$stage:$$(( $$(date +%s) - start ))"; \
	done; \
	echo ""; echo "verify stage wall-clock:"; \
	for t in $$times; do \
		printf '  %-20s %4ss\n' "$${t%%:*}" "$${t##*:}"; \
	done; \
	printf '  %-20s %4ss\n' total $$(( $$(date +%s) - total_start ))

# Short randomized differential campaign: cross-checks flatsim, logicsim,
# STA, ITR and the delay-model structure against each other on random
# circuits (see internal/conformance and DESIGN.md "Verification strategy").
conformance:
	$(GO) test -run TestConformance -race ./internal/conformance
	$(GO) run ./cmd/conformance -seeds 8 -jobs 4

# Cache-equivalence campaign: random circuits POSTed twice to /analyze and
# /refine (the repeat with shuffled gate statements); every repeat must be a
# cache hit with a body byte-identical to the cold run, and a concurrent
# identical burst must share exactly one engine run (see internal/reqcache
# and DESIGN.md §13). The TestWire* tests pin the /analyze and /refine wire
# format (golden bodies, the identity-field splice, the cache weight) and
# TestKeyFrom the cache-key framing. Runs under the race detector: the cache
# and batcher fan out on the shared engine pool.
cache-conformance:
	$(GO) test -race -run 'TestCacheEquivalenceTable|TestCacheConformance|TestSingleflight|TestCancelledLeader|TestAlias|TestBatchedEqualsUnbatched|TestWire|TestKeyFrom' \
		./internal/service ./internal/reqcache

# Fault-injection suite: deterministic chaos tests that force solver
# non-convergence, NaN poisoning and worker panics, then assert the
# recovery ladder, graceful degradation and error taxonomy hold — under
# the race detector, since recovery paths run on the parallel engine pool
# (see DESIGN.md "Robustness & failure handling"). The second line runs the
# solver's differential tests against its frozen dense reference, whose
# random circuits reach the same failure paths (singular matrices, NaN/Inf,
# injected faults) through the structure-aware LU.
chaos:
	$(GO) test -race -run 'Chaos' ./internal/spice ./internal/charlib \
		./internal/conformance ./internal/faultinject ./internal/engine \
		./internal/tgraph ./internal/service ./internal/shard
	$(GO) test -race -run 'MatchesReference|FuzzSolve|FollowsPlan' ./internal/spice

# Store crash-safety suite: kill a characterisation campaign mid-cell
# (deterministically, inside its own checkpoint), tear the journal tail,
# resume, and require the published library + manifest byte-identical to an
# uninterrupted run (see internal/store and DESIGN.md "Durable artifacts").
store-chaos:
	$(GO) test -race -run 'Chaos' ./internal/store

# Session crash-recovery chaos suite: durable delta-STA sessions killed
# deterministically mid-delta, mid-snapshot and mid-compaction (via
# internal/faultinject), restarted, and required to come back byte-identical
# to an uninterrupted run; journals that cannot replay must quarantine with
# a reasoned 404 instead of wedging startup (see internal/sessionlog and
# DESIGN.md §16).
session-chaos:
	$(GO) test -race -run 'TestSessionChaos|TestSessionRecover|TestSessionEviction' ./internal/service
	$(GO) test -race ./internal/sessionlog

# Sharded-campaign chaos suite: real coordinator/worker campaigns with
# seeded worker kills, hangs and artefact corruption mid-run — every one
# must converge to a publish byte-identical to an uninterrupted
# single-process run, and a persistently-failing shard must quarantine
# (degrade) instead of wedging the campaign (see internal/shard and
# DESIGN.md §14).
shard-chaos:
	$(GO) test -race -run 'TestShardChaos' ./internal/shard

# Networked-campaign chaos suite: a real HTTP coordinator and remote
# workers over loopback sockets with seeded network faults injected into
# the workers' transports — dropped requests and acknowledgements, delays,
# genuinely duplicated deliveries, truncated and corrupted response bodies,
# a partition window, vanished workers and a coordinator restart
# mid-campaign — every scenario must publish a library byte-identical to
# the single-process run (see internal/shardnet and DESIGN.md §15). All
# suites honour CHAOS_SEED=<n> to replay a specific schedule; failures
# print the seed.
net-chaos:
	$(GO) test -race -run 'TestNetChaos' ./internal/shardnet

# Service smoke test: start the timingd daemon on a random loopback port,
# POST an example netlist, require a 200 STA response and a clean graceful
# drain (see cmd/timingd -selfcheck and DESIGN.md "Serving architecture").
service-smoke:
	$(GO) run ./cmd/timingd -selfcheck

# Coverage gate: emits coverage.out and fails if the total drops below
# COVER_FLOOR.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@$(GO) tool cover -func=coverage.out | awk -v floor=$(COVER_FLOOR) \
		'/^total:/ { sub(/%/, "", $$3); \
		  if ($$3 + 0 < floor + 0) { \
		    printf "FAIL: total coverage %.1f%% is below the %.1f%% floor\n", $$3, floor; exit 1 } \
		  printf "total coverage %.1f%% (floor %.1f%%)\n", $$3, floor }'

# Performance trajectory point (ROADMAP item 5b): full-STA throughput,
# incremental edit latency vs. cone size, ITR-in-ATPG wall-clock, the
# service sustained-QPS section (cold vs hot cache, batched vs unbatched),
# the characterisation section (single-process vs in-process sharded
# vs networked campaign over loopback HTTP — wall-clocks, bytes uploaded,
# retries observed, byte-identity re-proved for both) and the durable-
# session section (journaled delta ack overhead, restart replay vs script
# length with/without snapshots), with machine/commit metadata,
# schema-validated into BENCH_5.json.
bench:
	$(GO) run ./cmd/bench -out BENCH_5.json

# Harness-rot guard: the same harness on tiny circuits, schema-validated
# and discarded. Seconds-scale; safe for CI.
bench-smoke:
	$(GO) run ./cmd/bench -smoke

# The raw go test micro-benchmarks (slow).
bench-go:
	$(GO) test -bench=. -benchmem ./...

# Engine scaling: characterisation wall-clock vs worker count.
bench-parallel:
	$(GO) test -run '^$$' -bench=CharacterizeParallel -benchtime=3x .

clean:
	$(GO) clean ./...
