# Single source of truth for the commands CI and humans run.
GO ?= go

.PHONY: all build lint test race-repeat allocs bench examples fuzz-smoke pooldebug spill-check throughput-smoke dist-smoke calibrate-smoke serve-smoke ivm-smoke sim-golden loc clean

all: build lint test

build:
	$(GO) build ./...

# Lint fails on unformatted files (gofmt prints their names), on vet errors,
# and on the front door importing the distributed runtime: serve and dist
# are two clients of internal/wire and know nothing of each other.
lint:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	@! $(GO) list -test -f '{{join .Imports "\n"}}' ./internal/serve | grep -x multijoin/internal/dist \
		|| { echo "internal/serve must not import internal/dist"; exit 1; }

# bench/ is a module of its own (the repository benchmark, see
# BENCHMARK.json) that imports this module's internal packages and is
# outside `./...`: vetting and testing it here is what makes an internal
# rename that breaks the benchmark fail tier-1 instead of failing silently.
test:
	$(GO) test -race ./...
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Goroutine lifecycle, repeated (a subset of `make test`, run three times
# under the race detector): a kept shell's parked hosts — started once,
# woken per run, ended on every path that drops the shell — reused shells
# under concurrent runners, cancellation under a ProcPool and an engine,
# the serve client's row buffers, handed between its connection reader
# and two streams' Recv, a view's Rows, which reads the join tables Close
# releases, and the simulator a simulated run hands on to the next through
# a pool, under concurrent runs. engine runs on its own, after the others:
# building and running it beside them made the "right after Close"
# goroutine counts of parallel and core fail in 2 of 5 runs on 2 CPUs.
LIFECYCLE_TESTS = TestParkedHosts|TestShellReuse|TestHostedCancel|TestCachedPlanRuns|TestEngineCancel|TestRecvRecycles|TestViewRowsDuringClose|TestConcurrentRuns
race-repeat:
	$(GO) test -race -count=3 -run '$(LIFECYCLE_TESTS)' ./internal/parallel ./internal/core ./internal/serve ./internal/ivm
	$(GO) test -race -count=3 -run '$(LIFECYCLE_TESTS)' ./internal/engine

# Allocation bounds: every test that pins how often a kernel allocates (a
# hash join's table life, none; a simple-join process's life, at most its
# held-probe queue; a batch insert, a delete, a simulator event, a view
# round, a heap push and pop, a row decode, a control frame, an outbox, a
# scan's lent view, a host outbox's redistribution scatter on a warm pool,
# an RD query on a warmed engine, a simulated run on warm shared pools, a
# warm round of simulated queries through core.Exec that reads its
# database's placement, a serve client's query whatever its DATA frame
# count, a VAPPLY round on either end whatever its delta size, a VAPPLY
# round of many one-tuple deltas in server memory linear in its frame), in
# a build without -race and without pooldebug.
# `make test` runs only under the race detector, whose sync.Pool drops
# recycled memory at random, and pooldebug's recycler moves a released
# table's memory into a fresh Table, so the bounds that count on recycled
# memory skip in both.
ALLOC_TESTS = TestSimpleJoinCost|TestSimpleJoinProcessAllocs|TestPipeliningTableLifecycle|TestInsertBatchAllocFree|TestTableDeleteAllocFree|TestAllocationsPerEvent|TestViewRoundAllocs|TestScheduleAndPopAllocateNothing|TestRowDecodersAllocateOnce|TestControlFrameAllocs|TestHostOutbox|TestLendAllocFree|TestScatterAllocFree|TestRDQueryAllocs|TestSimRunAllocs|TestSimExecAllocs|TestRecvAllocFree|TestViewApplyAllocs|TestViewApplyManyDeltas
allocs:
	$(GO) test -count=1 -run '^($(ALLOC_TESTS))$$' ./internal/hashjoin ./internal/engine ./internal/ivm ./internal/sim ./internal/relation ./internal/serve ./internal/operator ./internal/core

# Spill equivalence under a forcing budget (a subset of `make test`, kept
# as its own target for a quick local check of the out-of-core path; CI
# runs it as part of `make test`): every strategy on the spill runtime with
# a budget small enough that every join spills at least one partition, the
# Grace join differential tests, and the kernel's join step in its
# out-of-core mode (operator.Join owns the Grace join; the goroutine runtime
# only drives it), all under -race.
spill-check:
	$(GO) test -race -run 'TestSpill|TestGrace|TestJoinStep' ./internal/core ./internal/hashjoin ./internal/operator ./internal/parallel

# Fuzz smoke: 30 seconds each of the randomized differential harnesses —
# seeded sizes, skewed cardinalities, all strategies and shapes. The exec
# harness asserts the sim, parallel, spill and dist (two worker processes)
# runtimes reproduce the sequential reference checksum multiset; the view
# harness asserts incremental maintenance under random signed delta
# scripts stays multiset-equal to recompute-from-scratch, with unmatched
# deletes predicted exactly. Then 10 seconds of arbitrary bytes into the
# frame reader and the block decoders behind it (no panic, no read buffer
# above the frame cap), 10 seconds of arbitrary control frames into one
# connection's gob stream (no panic, never more type definitions than the
# cap) and 10 seconds of arbitrary frames at a server connection past its
# HELLO: no panic, every request answered or hung up on, the engine's
# meter at zero once the client is gone.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzExecEquivalence -fuzztime 30s ./internal/testutil
	$(GO) test -run '^$$' -fuzz FuzzViewEquivalence -fuzztime 30s ./internal/testutil
	$(GO) test -run '^$$' -fuzz FuzzReadFrame -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzControlStream -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzServeFrames -fuzztime 10s ./internal/serve

# IVM smoke (a subset of `make test`, for local use): create a materialized
# view, push mixed signed delta rounds through its resident FP network, and
# verify the maintained result against a from-scratch recompute of the
# sequential reference after every round, under -race.
ivm-smoke:
	$(GO) test -race -run 'TestViewSmoke' -count=1 ./internal/ivm

# Simulator figures golden: regenerate every simulator table of the paper's
# evaluation (~30 s) and diff it against the checked-in output. The
# simulator is deterministic and host-independent, so any difference is a
# change in modeled behaviour; re-record with
# `$(SIM_FIGURES) > $(SIM_GOLDEN)` only when that is intended. pipefail: a
# run that prints its tables and then fails must not pass on the diff alone.
SIM_FIGURES = $(GO) run ./cmd/mjbench -fig 9,10,11,12,13,14,speedup,pipedelay,ablation,memory,costfn -runtime sim
SIM_GOLDEN = internal/experiments/testdata/sim_figures.golden
sim-golden: SHELL = /bin/bash
sim-golden: .SHELLFLAGS = -o pipefail -c
sim-golden:
	$(SIM_FIGURES) | diff $(SIM_GOLDEN) -
	@echo "simulator figures match $(SIM_GOLDEN)"

# Pool-discipline check: the relation, hashjoin and operator-kernel tests
# (the columnar codec round-trip property, the ProbeBatchInto differential
# and the outbox's cancelled-delivery rule among them), the tests of both
# drivers of the kernel's join step — the simulator (engine) and the
# goroutine runtime (parallel), with the views that run on its hosts (ivm) —
# and the session layer's (core), with the pooldebug double-Put /
# use-after-Put detector armed (poisoned batches verified on every Get). An
# engine's batch pools outlive its queries, so a late release from a closed
# cursor or a batch a cancelled run still aliases would be a use-after-Put
# *across* queries: the cancel, shutdown and concurrent-query tests of
# parallel and core are where the detector would see it.
pooldebug:
	$(GO) test -tags pooldebug -race ./internal/relation ./internal/hashjoin ./internal/operator ./internal/engine ./internal/parallel ./internal/ivm ./internal/core

# Throughput smoke: one shared Engine serving concurrent mixed-strategy
# queries across the parallel and spill runtimes, results drained through
# streaming Rows cursors and checked against the sequential reference —
# the session layer exercised end to end on a small workload.
throughput-smoke:
	$(GO) run ./cmd/mjbench -fig throughput -concurrency 4 -card5k 500

# Dist smoke: the multi-process runtime end to end on a small workload —
# all four strategies across two loopback worker processes, compared
# against the single-process goroutine runtime (every run inside is also
# covered, verified and leak-audited, by `go test ./internal/dist`).
dist-smoke:
	$(GO) run ./cmd/mjbench -fig dist -workers 2 -card5k 500

# Serve smoke: the TCP serving layer end to end, once per admission policy
# (fifo, the default, then cost) — mjserve on an ephemeral port, driven by
# mjload with a mixed closed-loop burst (20% of queries cancelled
# mid-stream) and an open-loop step, then SIGTERM while a third load run is
# still streaming. mjserve exits 0 only when the graceful drain left the
# engine's shared memory meter at zero; the recipe also greps the "drained
# clean" line so a truncated log fails loudly.
serve-smoke:
	@mkdir -p .bin
	$(GO) build -o .bin/mjserve ./cmd/mjserve
	$(GO) build -o .bin/mjload ./cmd/mjload
	@set -e; for policy in fifo cost; do \
	echo "== admission policy $$policy"; \
	rm -f .bin/mjserve.log .bin/mjload-bg.log; \
	.bin/mjserve -addr 127.0.0.1:0 -card 1000 -policy $$policy -budget 4MiB > .bin/mjserve.log 2>&1 & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	addr=""; \
	for i in $$(seq 1 100); do \
		addr=$$(sed -n 's/mjserve: listening on //p' .bin/mjserve.log); \
		[ -n "$$addr" ] && break; sleep 0.1; \
	done; \
	[ -n "$$addr" ] || { echo "mjserve did not start:"; cat .bin/mjserve.log; exit 1; }; \
	.bin/mjload -addr $$addr -conns 16 -duration 3s -cancel 0.2; \
	.bin/mjload -addr $$addr -conns 8 -duration 2s -qps 30; \
	.bin/mjload -addr $$addr -conns 8 -duration 10s > .bin/mjload-bg.log 2>&1 & \
	bg=$$!; \
	sleep 2; \
	kill -TERM $$pid; \
	wait $$pid; \
	trap - EXIT; \
	wait $$bg || true; \
	grep -q "drained clean" .bin/mjserve.log || { echo "no clean drain:"; cat .bin/mjserve.log; exit 1; }; \
	done; \
	echo "serve smoke passed (fifo and cost: graceful drain, meter live = 0)"

# Calibration smoke (a subset of `make test`, for local use): a tiny
# cost-model calibration sweep on this host, asserting it produces finite,
# positive per-action costs and a monotone wall-time estimator — the
# measurement feeding cost-based admission.
calibrate-smoke:
	$(GO) test -race -run 'TestCalibrateSmoke' -count=1 ./internal/costmodel

# Bench smoke: one iteration of every benchmark (the paper's figures on the
# simulator, sim vs goroutine runtime per strategy, the hash-table kernels),
# printed and nothing else: no gate, no file. Whether a change made anything
# slower is answered by the repository benchmark alone (`bash bench/run.sh`,
# see bench/README.md).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./...

# Examples smoke: build every example binary, then run each one to
# completion (their output doubles as an end-to-end check of the facade).
examples:
	@mkdir -p .bin
	$(GO) build -o .bin/ ./examples/...
	@set -e; for b in .bin/*; do echo "== $$b"; "$$b" > /dev/null; done
	@echo "all examples ran"

# Code size: non-test, non-blank, non-comment Go lines per internal package,
# for the four packages of the operation-process kernel together, for the
# two clients of internal/wire together (dist+serve), and for the whole
# repository (bench/ excluded) — the measure the design items of ROADMAP.md
# are held to, so comments and test files cannot game it.
LOC = xargs cat | grep -v '^\s*//' | grep -v '^\s*$$' | wc -l
KERNEL = internal/engine internal/parallel internal/ivm internal/operator
loc:
	@for p in internal/*; do \
		printf '%-22s %6d\n' $$p $$(find $$p -name '*.go' ! -name '*_test.go' | $(LOC)); \
	done
	@printf '%-22s %6d\n' 'kernel (engine+parallel+ivm+operator)' $$(find $(KERNEL) -name '*.go' ! -name '*_test.go' | $(LOC))
	@printf '%-22s %6d\n' 'dist+serve' $$(find internal/dist internal/serve -name '*.go' ! -name '*_test.go' | $(LOC))
	@printf '%-22s %6d\n' 'repo (without bench/)' $$(find . -name '*.go' ! -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | $(LOC))

clean:
	rm -rf .bin
