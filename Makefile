GO ?= go

# Extra flags for bench-scale (e.g. BENCHFLAGS="-short -benchtime 1x" for the
# CI trajectory run).
BENCHFLAGS ?=

# Free-form annotation recorded in BENCH_scale.json by bench-scale-json
# (benchjson also auto-records the core count; use the note for anything the
# number alone doesn't say, e.g. "1-core container, worker sweeps collapse").
BENCHNOTE ?=

.PHONY: all build test race fuzz fmt fmt-check vet api-check api-write determinism bench bench-smoke bench-scale bench-scale-json clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 1800s ./internal/core/... ./internal/overlay/... ./internal/sim/... ./internal/admin/... .

# Native fuzzing, 60 s per target, as in the CI test job: the Dijkstra heap
# against its brute-force model, subtree repair against a fresh Dijkstra,
# the length ledger against a brute-force history model, the Warm anchor's
# duality certificate, the admin request-frame decoder, then the plane's
# per-row classification (skip / walk / subtree repair / refill) against
# fresh Dijkstras and direct MinTree calls.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzIndexedHeap$$' -fuzztime 60s ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzRepairSubtrees$$' -fuzztime 60s ./internal/routing
	$(GO) test -run '^$$' -fuzz '^FuzzLengthStore$$' -fuzztime 60s ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzAnchorCertificate$$' -fuzztime 60s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime 60s ./internal/admin
	$(GO) test -run '^$$' -fuzz '^FuzzPlaneClassify$$' -fuzztime 60s ./internal/overlay

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Exported-surface gates: the root package's API inventory must match the
# committed API_SURFACE.txt, and the admin wire-protocol surface must match
# ADMIN_SURFACE.txt. Any surface change (including additions) fails
# api-check until api-write refreshes the inventories in the same commit.
api-check:
	$(GO) run ./cmd/apisurface -check
	$(GO) run ./cmd/apisurface -dir internal/admin -file ADMIN_SURFACE.txt -check

api-write:
	$(GO) run ./cmd/apisurface -write
	$(GO) run ./cmd/apisurface -dir internal/admin -file ADMIN_SURFACE.txt -write

# Determinism gate (the CI "Determinism gate" job runs exactly this): solver
# outputs must be a bit-identical function of the seed, never of the worker
# count, goroutine scheduling or the SSSP plane mode. Seven detdump runs —
# workers 1/2/8 plus a second 8-worker run in the default subtree mode,
# -plane off at workers 1/2/8 — each diffed against the -workers 1 run. One
# run takes about 1.5 min on 2 cores.
DETDUMP_DIFFS = detdump-w2.txt detdump-w8.txt detdump-w8-again.txt \
	detdump-w1-off.txt detdump-w2-off.txt detdump-w8-off.txt

determinism:
	$(GO) run ./cmd/detdump -workers 1 > detdump-w1.txt
	$(GO) run ./cmd/detdump -workers 2 > detdump-w2.txt
	$(GO) run ./cmd/detdump -workers 8 > detdump-w8.txt
	$(GO) run ./cmd/detdump -workers 8 > detdump-w8-again.txt
	$(GO) run ./cmd/detdump -workers 1 -plane off > detdump-w1-off.txt
	$(GO) run ./cmd/detdump -workers 2 -plane off > detdump-w2-off.txt
	$(GO) run ./cmd/detdump -workers 8 -plane off > detdump-w8-off.txt
	for f in $(DETDUMP_DIFFS); do diff -u detdump-w1.txt "$$f" || exit 1; done
	@echo "determinism gate passed: $$(wc -l < detdump-w1.txt) fingerprint lines identical across workers 1/2/8 x plane subtree/off (7 runs)"

# Full benchmark suite (paper tables/figures + scale tier).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# One iteration per benchmark, heaviest scale instances skipped — what CI runs.
bench-smoke:
	$(GO) test -short -run '^$$' -bench . -benchtime 1x ./...

# Large-instance scale tier: solver benches (1,000-10,000 nodes, per-scenario
# instances), the Waxman topology-generation benches, the Allocator v2
# warm-start churn acceptance pair, the overcastd admin-socket churn
# replay, and the fault-churn damping pair (the warm-churn replay under
# a link flap trace, damped vs raw). Takes minutes at default -benchtime; CI passes
# BENCHFLAGS="-short -benchtime 1x".
bench-scale:
	$(GO) test -run '^$$' -bench 'BenchmarkScale|BenchmarkWaxman|BenchmarkChurnWarmStart|BenchmarkDaemonChurn|BenchmarkFaultChurn' -benchmem -timeout 3600s $(BENCHFLAGS) . ./internal/topology/

# Refresh the committed perf-trajectory baseline: run the scale tier the way
# CI does, rewrite BENCH_scale.json, and print the old-vs-new comparison.
# The bench run writes to a file (no tee pipe) so a failing benchmark aborts
# the recipe instead of overwriting the baseline with partial results.
bench-scale-json:
	$(MAKE) bench-scale BENCHFLAGS="-short -benchtime 1x" > bench-scale.txt || { cat bench-scale.txt; exit 1; }
	cat bench-scale.txt
	$(GO) run ./cmd/benchjson -in bench-scale.txt -out BENCH_scale.json -compare BENCH_scale.json -note "$(BENCHNOTE)"

clean:
	$(GO) clean ./...
	rm -f *.test *.prof *.out bench-smoke.txt bench-scale.txt detdump-*.txt
