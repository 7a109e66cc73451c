# Convenience targets for the reproduction. Stdlib-only; no network needed.

GO ?= go

# Single source of truth for the race-detector package list; CI runs
# `make race` so the two can never drift.
RACE_PKGS ?= ./internal/topology/ ./internal/sim/ ./internal/analysis/ ./internal/routing/ ./internal/experiments/ ./internal/workload/ ./internal/server/ ./internal/store/ ./internal/permutation/ ./internal/campaign/ ./internal/design/

# Per-target budget for the fuzz smoke pass (`go test -fuzz` accepts one
# target per invocation). Entries are package:target; fuzz-targets-check
# fails when a Fuzz* function of the main module is missing from the list.
FUZZTIME ?= 30s
FUZZ_TARGETS := ./internal/routing/:FuzzEdgeColorBipartite ./internal/routing/:FuzzBenesLooping ./internal/routing/:FuzzRouteTableParity ./internal/permutation/:FuzzCanonicalParity ./internal/permutation/:FuzzParse ./internal/permutation/:FuzzGenerators ./internal/analysis/:FuzzLemma1Parity ./internal/analysis/:FuzzLemma1VsSweep ./internal/analysis/:FuzzDeltaVsOracle ./internal/store/:FuzzFileReplay ./internal/design/:FuzzPlanCatalog

.PHONY: all build test race cover bench bench-json bench-gate fuzz-smoke fuzz-targets-check batch-smoke coordinator-smoke frontier-smoke design-smoke fault-smoke nbperf-check report report-check tables tables-check examples examples-check loc clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

# Batch-endpoint smoke: the mixed 50-point batch (duplicates + one invalid
# item), dedup/cache-hit counters, the persistent-store restart path, and
# the error-status matrix (429/503/405 on every work route and batch item).
# CI runs this as its own step so a batch regression is named in the log.
# The smoke targets run their test subsets through scripts/run_tests.sh,
# which fails when an alternative of the -run pattern lists no test, so a
# rename cannot silently empty a target.
batch-smoke:
	GO="$(GO)" ./scripts/run_tests.sh ./internal/server/ 'TestBatch|TestFileStoreRestartHit|TestErrorStatusMatrix'

# Coordinator smoke: the in-process distributed-parity tests (byte-identical
# merge, worker kill, checkpoint resume, SSE), then real binaries on
# loopback — two workers plus a coordinator — with an n=8 distributed sweep
# driven by nbverify -remote and diffed against the single-node engine.
coordinator-smoke:
	GO="$(GO)" ./scripts/run_tests.sh ./internal/server/ 'TestCoordinatedSweep|TestSweepSSE'
	GO="$(GO)" ./scripts/coordinator_smoke.sh

# Frontier smoke: the symmetry-reduced sweep's byte-identity proofs — the
# engine property tests against the scratch oracle, the server/coordinator
# parity and sym-shard checkpoint tests, then the real nbverify -sym
# binary diffed against the full engine at n=8 and certifying n=12 past
# the factorial wall.
frontier-smoke:
	GO="$(GO)" ./scripts/run_tests.sh ./internal/analysis/ 'TestSweepExhaustiveSym|TestSym|TestSweepSymShard|TestSweepSymStatsPresence|TestSweepSpecRejectsUnsupported'
	GO="$(GO)" ./scripts/run_tests.sh ./internal/server/ 'TestSym|TestCoordinatedSym'
	GO="$(GO)" ./scripts/frontier_smoke.sh

# Design-explorer smoke: the planner property tests (binary search ==
# linear scan, certificate replays through a live /v1/verify, no-prune
# frontier equality), then nbdesign on the pinned catalog diffed against
# the committed golden frontier — locally and through /v1/design.
design-smoke:
	$(GO) test ./internal/design/ -count=1
	GO="$(GO)" ./scripts/design_smoke.sh

# Fault-campaign smoke: the campaign engine's byte-identity and
# no-failed-path property tests plus the /v1/failures endpoint tests, then
# the real nbverify -failures binary on a pinned small fabric diffed
# against the committed golden curves — sequentially, on a worker pool,
# and through a live nbserve.
fault-smoke:
	GO="$(GO)" ./scripts/run_tests.sh ./internal/campaign/ 'TestRunParallelMatchesSequential|TestNoRouterEmitsFailedPath'
	GO="$(GO)" ./scripts/run_tests.sh ./internal/server/ 'TestFailures'
	GO="$(GO)" ./scripts/fault_smoke.sh

race:
	$(GO) test -race $(RACE_PKGS)

# The benchmark harness is its own module (repro/nbperf, replacing repro
# with ../), so `go build ./...` and `go test ./...` never compile it; this
# target vets and tests it so a library change cannot break it unseen.
nbperf-check:
	cd nbperf && $(GO) vet ./... && $(GO) test ./...

# Non-test Go line count of the main module, excluding the separate
# nbperf/ benchmark module: the figure a simplicity change reports its net
# deletion in.
loc:
	@find . -path ./nbperf -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l

cover:
	$(GO) test -coverprofile=cover.out ./internal/...
	$(GO) tool cover -func=cover.out | tail -1

bench:
	$(GO) test -bench=. -benchmem -run='^$$' . ./internal/...

# Refresh the committed benchmark baseline (run on a quiet machine).
bench-json:
	$(GO) run ./cmd/nbbench -out BENCH_sim.json

# CI regression gate: measure and compare against the committed baseline.
# Fails on >25% ns/op or any allocs/op regression; writes the fresh
# measurement next to the baseline for artifact upload.
bench-gate:
	$(GO) run ./cmd/nbbench -baseline BENCH_sim.json -out BENCH_fresh.json

# Short fuzz pass over every fuzz target (seed corpus plus $(FUZZTIME) of
# new inputs per target).
fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; target=$${t#*:}; \
		echo "fuzz $$target in $$pkg ($(FUZZTIME))"; \
		$(GO) test $$pkg -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

# FUZZ_TARGETS must name exactly the module's Fuzz* functions (fast; CI
# runs it in the test job).
fuzz-targets-check:
	./scripts/check_fuzz_targets.sh $(FUZZ_TARGETS)

# Regenerate the full experiment report (EXPERIMENTS.md's backing artifact).
report:
	$(GO) run ./cmd/nbreport > report.md

# Regenerate the report into a temp dir and diff it against the committed
# report.md, ignoring the final "generated in" timing line, so a change to
# any experiment's output has to update report.md with it.
report-check:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/nbreport > "$$tmp/fresh.md" || exit 1; \
	sed '$$d' report.md > "$$tmp/want"; sed '$$d' "$$tmp/fresh.md" > "$$tmp/got"; \
	diff -u "$$tmp/want" "$$tmp/got" || { echo "report.md is stale: run 'make report' and commit it" >&2; exit 1; }

tables:
	$(GO) run ./cmd/nbtables -all

# Regenerate `nbtables -all` into a temp dir and diff it against the
# committed testdata/tables_golden.txt, so a change to any experiment's
# table output has to update the golden with it.
tables-check:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/nbtables -all > "$$tmp/got" || exit 1; \
	diff -u testdata/tables_golden.txt "$$tmp/got" || { echo "testdata/tables_golden.txt is stale: run '$(GO) run ./cmd/nbtables -all > testdata/tables_golden.txt' and commit it" >&2; exit 1; }

EXAMPLES := quickstart clusterdesign adaptive simulation collectives

examples:
	@for e in $(EXAMPLES); do $(GO) run ./examples/$$e || exit 1; done

# Run every example and diff its output against testdata/examples/<name>.golden,
# so a change to the public API the examples use cannot silently change
# what they print.
examples-check:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for e in $(EXAMPLES); do \
		$(GO) run ./examples/$$e > "$$tmp/$$e" || exit 1; \
		diff -u testdata/examples/$$e.golden "$$tmp/$$e" || { echo "testdata/examples/$$e.golden is stale: run '$(GO) run ./examples/$$e > testdata/examples/$$e.golden' and commit it" >&2; exit 1; }; \
	done

clean:
	rm -f cover.out test_output.txt bench_output.txt BENCH_fresh.json
