# Development entry points for the zerorefresh simulator.
#
#   make check   - the gate every change must pass: vet, zrlint, build,
#                  and the full test suite under the race detector
#                  (benchmarks excluded via -short; the golden-stats and
#                  concurrency tests still run and exercise the sharded
#                  paths).
#   make lint    - the domain-aware static analysis (cmd/zrlint), eight
#                  analyzers: determinism, transitive determinism taint,
#                  atomic-field consistency, hot-path allocation freedom
#                  (//zr:hotpath roots), layer purity, lock-order cycles,
#                  must-use results, lock safety. Findings fail the build
#                  unless annotated //zr:allow(<analyzer>); stale
#                  suppressions are findings too.
#   make test    - the plain tier-1 suite, as CI runs it.
#   make bench   - regenerate the paper's evaluation via the benchmark
#                  harness (slow; minutes).
#   make race    - just the race-sensitive packages, under -race.
#   make benchtest - vet and test the end-to-end benchmark module (bench/,
#                  a nested module the root ./... skips): its traced
#                  mirrors must match the sim entry points bit for bit and
#                  every output must match the per-seed goldens.
#
# The benchmark of record is `bash bench/run.sh`, declared in
# BENCHMARK.json: whole experiments timed end to end, with a per-layer
# ledger under --trace 1 (see bench/README.md). Steady-state hot paths are
# pinned allocation-free by testing.AllocsPerRun tests in each package,
# which `make check` (under -race) and `make test` run.

GO ?= go

.PHONY: check vet lint build test race bench benchtest

check: vet lint build
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/zrlint ./...

build:
	$(GO) build ./...

test:
	$(GO) build ./... && $(GO) test ./...

race:
	$(GO) test -race ./internal/transform ./internal/core ./internal/metrics ./internal/engine ./internal/obs

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

benchtest:
	cd bench && $(GO) vet ./... && $(GO) test ./...
