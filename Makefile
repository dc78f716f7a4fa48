# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test test-short race chaos fuzz lint verify bench bench-gate loadgen-smoke forests experiments experiments-full examples quick clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./internal/server ./internal/loadgen ./internal/cluster ./internal/sim

# Fault-injection scenarios under the race detector: scripted and seeded
# random fault schedules replayed twice each to assert determinism
# (cluster), plus live-gateway prefill-tier crashes asserting the
# no-silent-drop contract (server).
chaos:
	$(GO) test -race -run Chaos ./internal/cluster/ ./internal/server/

# Short fuzzing pass over every fuzz target. The committed seed corpora in
# testdata/fuzz/ always run as part of `go test`; this adds a bounded
# exploration on top.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzGenerateWorkload -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz FuzzGenerate$$ -fuzztime $(FUZZTIME) ./internal/workload
	$(GO) test -run '^$$' -fuzz FuzzReadTrace -fuzztime $(FUZZTIME) ./internal/workload
	$(GO) test -run '^$$' -fuzz FuzzParseSchedule -fuzztime $(FUZZTIME) ./internal/fault
	$(GO) test -run '^$$' -fuzz FuzzParseChain -fuzztime $(FUZZTIME) ./internal/kvcache
	$(GO) test -run '^$$' -fuzz FuzzGenerateRequest -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzLoad$$ -fuzztime $(FUZZTIME) ./internal/predictor
	$(GO) test -run '^$$' -fuzz FuzzSortColumn -fuzztime $(FUZZTIME) ./internal/predictor
	$(GO) test -run '^$$' -fuzz FuzzFitTree -fuzztime $(FUZZTIME) ./internal/predictor

# Static analysis gate: gofmt (every .go file outside the benchmark's
# build directory must already be formatted), the repo's own contract
# analyzers (determinism, hot-path allocation, trace hooks, guarded
# fields, atomic-field discipline, frozen snapshots, no-silent-drop
# outcomes, metric wiring) plus staticcheck and govulncheck when they are
# installed. The external
# tools are optional locally — CI installs pinned versions and runs them
# unconditionally — but qoservevet itself always runs and must exit clean.
#
# The first invocation writes the machine-readable report CI archives as
# an artifact; the second audits //lint:ignore directives: any stale
# suppression (one that no longer suppresses anything) fails, and the
# live count may not exceed the committed budget below. The budget only
# ever goes DOWN: fix the code, don't widen the escape hatch.
LINT_SUPPRESSION_BUDGET ?= 14
LINT_REPORT ?= /tmp/qoservevet.json
STATICCHECK ?= staticcheck
GOVULNCHECK ?= govulncheck
GOFMT ?= gofmt
lint:
	@unformatted=$$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs $(GOFMT) -l); \
	if [ -n "$$unformatted" ]; then \
		echo "lint: gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) run ./cmd/qoservevet -json -o $(LINT_REPORT) ./...
	$(GO) run ./cmd/qoservevet -suppressions -budget $(LINT_SUPPRESSION_BUDGET) ./...
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) ./...; \
	else \
		echo "lint: $(STATICCHECK) not installed, skipping (CI runs it)"; \
	fi
	@if command -v $(GOVULNCHECK) >/dev/null 2>&1; then \
		$(GOVULNCHECK) ./...; \
	else \
		echo "lint: $(GOVULNCHECK) not installed, skipping (CI runs it)"; \
	fi

# The pre-merge gate CI runs: static checks, the full suite (seed corpora
# and chaos scenarios included) under the race detector, eight repeated
# race runs of the gateway's wall-clock SLO tests (they flaked under a
# loaded host before the test servers' timescale came down), the
# benchmark module's own vet and tests (perfbench/ is a separate Go
# module, so ./... at the root does not reach it), the fixed-seed gateway
# smoke (loadgen-smoke: every request completes, no stream event is
# dropped silently), a short fuzzing pass, the micro-benchmark pass and
# the token-path benchmark gate, as CI's verify and race jobs run them.
# The allocation guards (TestPlanBatchSteadyStateAllocFree,
# TestForestPredictAllocFree, TestTrainAllocCeiling, TestLoadAllocCeiling)
# and the KV-transfer session test (TestSessionKVTransfer) run as
# ordinary tests, so an alloc regression on the plan path, in forest
# training or in the forest loader, or a transfer pipeline that stops
# importing prefixes, fails the gate.
verify:
	$(GO) vet ./...
	$(MAKE) lint
	$(GO) test -race ./...
	$(GO) test -race -count=8 -run '^(TestServerQoSOrdering|TestFrameStreamsTokens)$$' ./internal/server
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...
	$(MAKE) loadgen-smoke
	$(MAKE) fuzz
	$(MAKE) bench
	$(MAKE) bench-gate

# Hot-path micro-benchmarks: scheduler planning, forest prediction and
# KV-cache operations, printed as plain `go test -bench` text (and kept in
# /tmp/bench_micro.txt, which CI archives). The log is written before it
# is printed, not piped through tee, so a failing benchmark fails the
# target (sh has no pipefail). End-to-end serving numbers come from
# perfbench/ (BENCHMARK.json), not from here.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/core ./internal/predictor ./internal/kvcache \
		> /tmp/bench_micro.txt; status=$$?; cat /tmp/bench_micro.txt; exit $$status

# Benchmark regression gate for `verify`/CI: re-measure the gateway
# token-path benchmark in a short pass and diff the log against the
# committed BENCH_GATE.txt with cmd/benchgate, at -cpu 1 like the baseline
# (the benchmark runs 32 submitters per P, and benchgate refuses to
# compare runs at different GOMAXPROCS). Timing tolerance is generous (the
# gate hunts structural regressions, not scheduler noise on shared CI
# machines); allocs/op is tight, and a 0-alloc baseline allows no growth
# at all. To refresh the baseline:
#
#	go test -run '^$' -bench GatewayFrameReplicas8 -benchmem -cpu 1 -benchtime 2s ./internal/server/ > BENCH_GATE.txt
GATETIME      ?= 1s
GATETOL       ?= 0.6
GATETOLALLOCS ?= 0.3
bench-gate:
	$(GO) test -run '^$$' -bench 'GatewayFrameReplicas8' -benchmem -cpu 1 -benchtime $(GATETIME) \
		./internal/server/ > /tmp/bench_gate_fresh.txt; status=$$?; cat /tmp/bench_gate_fresh.txt; exit $$status
	$(GO) run ./cmd/benchgate -baseline BENCH_GATE.txt -current /tmp/bench_gate_fresh.txt \
		-tol $(GATETOL) -tol-allocs $(GATETOLALLOCS)

# Deterministic loadgen smoke: a few hundred milliseconds of closed-loop
# load against a 2-replica gateway with a fixed seed. The tool exits
# non-zero unless every request completes with zero dropped stream events,
# so this is the CI no-silent-drop gate.
loadgen-smoke:
	$(GO) run ./cmd/qoserve-loadgen -policy sarathi-fcfs -replicas 2 \
		-n 80 -workers 8 -timescale 500 -seed 7 -json

# Regenerate the latency predictors the serving processes ship, one per
# hardware preset (profile seed 1, forest seed 1), after a change to the
# cost model, profiling or training. TestShippedForestsMatchTrainer fails
# until they are regenerated.
forests:
	for f in internal/predictor/forests/*.forest; do \
		$(GO) run ./cmd/profilegen -hardware $$(basename $$f .forest) -out $$f || exit 1; \
	done

# Default-scale reproduction of every paper artifact (plus extensions).
experiments:
	$(GO) run ./cmd/experiments all

# Quarter-length traces: slower, quantitatively tighter.
experiments-full:
	$(GO) run ./cmd/experiments -scale 0.25 all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/multitenant
	$(GO) run ./examples/overload
	$(GO) run ./examples/walkthrough
	$(GO) run ./examples/loadtest

# Fast validation in the spirit of the paper artifact's tester.sh:
# the headline shape probes plus the full unit suite in short mode.
quick:
	$(GO) test -short ./...
	$(GO) test ./internal/experiments -run Probe -v

clean:
	$(GO) clean ./...
