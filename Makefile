# Development entry points for the zerorefresh simulator.
#
#   make check   - the gate every change must pass: vet, zrlint, build,
#                  and the full test suite under the race detector
#                  (-short skips the slow capacity-sweep goldens; the
#                  golden-stats and concurrency tests still run and
#                  exercise the sharded paths).
#   make lint    - the domain-aware static analysis (cmd/zrlint), eight
#                  analyzers: determinism, transitive determinism taint,
#                  atomic-field consistency, hot-path allocation freedom
#                  (//zr:hotpath roots), layer purity, lock-order cycles,
#                  must-use results, lock safety. Findings fail the build
#                  unless annotated //zr:allow(<analyzer>); stale
#                  suppressions are findings too.
#   make test    - the plain tier-1 suite, as CI runs it.
#   make reproduce - rerun every experiment (zrsim -exp all at the recorded
#                  32 MB / 8-window scale, ~15-20 s on 2 vCPUs) and require
#                  its output to equal results_full.txt byte for byte.
#                  Every number EXPERIMENTS.md quotes is a line of it.
#   make race    - just the race-sensitive packages, under -race: the
#                  sharded system, the DRAM storage pool and the
#                  experiment fan-outs that share it, among others.
#   make quickseeds - rerun the test suites of every package with
#                  testing/quick properties at ten more case seeds
#                  (-quickseed=2..11; tier-1 runs use seed 1, see
#                  internal/proptest), so the properties keep exploring
#                  new cases.
#   make benchtest - vet and test the end-to-end benchmark module (bench/,
#                  a nested module the root ./... skips): its traced
#                  mirrors must match the sim entry points bit for bit and
#                  every output must match the per-seed goldens.
#   make examples - run every examples/ program and require its stdout to
#                  equal the examples/<name>/output.txt beside it byte for
#                  byte (a non-zero exit fails too).
#
# The benchmark of record is `bash bench/run.sh`, declared in
# BENCHMARK.json: whole experiments timed end to end, with a per-layer
# ledger under --trace 1 (see bench/README.md). Steady-state hot paths are
# pinned allocation-free by testing.AllocsPerRun tests in each package,
# which `make check` (under -race) and `make test` run.

GO ?= go

.PHONY: check vet lint build test race quickseeds reproduce benchtest examples

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
	$(GO) test -race ./internal/transform ./internal/core ./internal/metrics ./internal/engine ./internal/obs ./internal/dram ./internal/sim

# The packages whose tests take their quick.Config from internal/proptest:
# only their test binaries define -quickseed.
QUICK_PKGS = $(shell $(GO) list -f '{{.ImportPath}} {{join .TestImports " "}} {{join .XTestImports " "}}' ./... | awk '/ zerorefresh\/internal\/proptest( |$$)/ {print $$1}')

quickseeds:
	@for seed in 2 3 4 5 6 7 8 9 10 11; do \
		echo "== -quickseed=$$seed"; \
		$(GO) test -count=1 $(QUICK_PKGS) -quickseed=$$seed || exit 1; \
	done

reproduce:
	$(GO) run ./cmd/zrsim -exp all -capacity 32 -windows 8 | cmp - results_full.txt

benchtest:
	cd bench && $(GO) vet ./... && $(GO) test ./...

examples:
	@for ex in examples/*/; do \
		echo "== $$ex"; \
		{ $(GO) run "./$$ex" || echo "exit status $$?"; } | cmp - "$${ex}output.txt" || exit 1; \
	done
