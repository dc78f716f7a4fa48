# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test test-short race chaos fuzz lint verify bench bench-short bench-all bench-pr5 bench-pr6 bench-pr7 bench-pr8 bench-pr10 bench-gate loadgen-smoke forests experiments experiments-full examples quick clean

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
# dropped silently), a short fuzzing pass, the short benchmark pass, and
# the one-pass KV-transfer bench smoke, as CI's verify job runs them.
# The allocation guards (TestPlanBatchSteadyStateAllocFree,
# TestForestPredictAllocFree, TestTrainAllocCeiling, TestLoadAllocCeiling)
# run as ordinary tests, so an alloc regression on the plan path, in
# forest training or in the forest loader fails the gate.
verify:
	$(GO) vet ./...
	$(MAKE) lint
	$(GO) test -race ./...
	$(GO) test -race -count=8 -run '^(TestServerQoSOrdering|TestFrameStreamsTokens)$$' ./internal/server
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...
	$(MAKE) loadgen-smoke
	$(MAKE) fuzz
	$(MAKE) bench-short
	$(MAKE) bench-pr8 BENCH8TIME=1x BENCH8OUT=/tmp/BENCH_PR8_smoke.json
	$(MAKE) bench-gate

# Benchmark baseline: one pass over every table/figure benchmark plus the
# scheduler/predictor hot-path micro-benchmarks, folded into BENCH_PR3.json
# (committed trajectory file; CI archives it as an artifact). BENCHTIME=1x
# keeps it cheap enough for CI; raise it locally for tighter ns/op numbers.
BENCHTIME ?= 1x
BENCHOUT  ?= BENCH_PR3.json
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) . | tee /tmp/bench_experiments.txt
	$(GO) test -run '^$$' -bench . -benchmem ./internal/core ./internal/predictor | tee /tmp/bench_micro.txt
	$(GO) run ./cmd/benchjson -o $(BENCHOUT) \
		-meta benchtime=$(BENCHTIME) \
		/tmp/bench_experiments.txt /tmp/bench_micro.txt
	@echo "wrote $(BENCHOUT)"

# Short benchmark pass for `verify`/CI: hot-path micro-benchmarks only (the
# experiment-level benchmarks at the repo root replay whole traces and take
# minutes even at -benchtime 1x). Writes a throwaway snapshot for the CI
# artifact; the committed BENCH_PR3.json is only refreshed via `make bench`.
bench-short:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/core ./internal/predictor | tee /tmp/bench_micro.txt
	$(GO) run ./cmd/benchjson -o /tmp/BENCH_short.json -meta mode=short /tmp/bench_micro.txt

# Micro-benchmarks across all packages.
bench-all:
	$(GO) test -bench . -benchmem ./...

# Gateway benchmark baseline: contended end-to-end throughput (32 parallel
# closed-loop submitters per GOMAXPROCS against 1/4/8 serving replicas —
# replicas=1 is the old single-lock architecture's ceiling) plus the
# token fan-out micro-benchmark, folded into the committed
# BENCH_PR5.json with the single-lock vs sharded req/s recorded as meta.
BENCH5OUT ?= BENCH_PR5.json
bench-pr5:
	$(GO) test -run '^$$' -bench GatewayContended -benchtime 2s ./internal/server/ | tee /tmp/bench_gateway.txt
	$(GO) test -run '^$$' -bench TokenFanout -benchmem ./internal/server/ | tee /tmp/bench_fanout.txt
	$(GO) run ./cmd/benchjson -o $(BENCH5OUT) \
		-meta note="req/s under 32 parallel closed-loop submitters; replicas=1 is the single-lock baseline" \
		-meta single_lock_req_s="$$(awk '/Replicas1 /{print $$(NF-1)}' /tmp/bench_gateway.txt)" \
		-meta sharded_4x_req_s="$$(awk '/Replicas4 /{print $$(NF-1)}' /tmp/bench_gateway.txt)" \
		-meta sharded_8x_req_s="$$(awk '/Replicas8 /{print $$(NF-1)}' /tmp/bench_gateway.txt)" \
		/tmp/bench_gateway.txt /tmp/bench_fanout.txt
	@echo "wrote $(BENCH5OUT)"

# Prefix-cache benchmark baseline: session-heavy (multi-turn, shared-prefix)
# closed-loop load end to end through a 4-replica gateway under each routing
# policy. PrefixAffinity should beat AtomicRoundRobin on both req/s and TTFT
# because follow-up turns land where their prefix is cached and skip the
# re-prefill; the headline numbers are folded into BENCH_PR6.json as meta.
BENCH6OUT ?= BENCH_PR6.json
bench-pr6:
	$(GO) test -run '^$$' -bench SessionBalancer -benchtime 3x ./internal/loadgen/ | tee /tmp/bench_prefix.txt
	$(GO) run ./cmd/benchjson -o $(BENCH6OUT) \
		-meta note="400 requests, 8-turn sessions, prompt p50 1024 / decode p50 12, 4 replicas" \
		-meta round_robin_req_s="$$(awk '/RoundRobin/{for(i=2;i<=NF;i++)if($$i=="req/s")print $$(i-1)}' /tmp/bench_prefix.txt)" \
		-meta prefix_req_s="$$(awk '/BalancerPrefix/{for(i=2;i<=NF;i++)if($$i=="req/s")print $$(i-1)}' /tmp/bench_prefix.txt)" \
		-meta round_robin_ttft_p50_ms="$$(awk '/RoundRobin/{for(i=2;i<=NF;i++)if($$i=="ttft_p50_ms")print $$(i-1)}' /tmp/bench_prefix.txt)" \
		-meta prefix_ttft_p50_ms="$$(awk '/BalancerPrefix/{for(i=2;i<=NF;i++)if($$i=="ttft_p50_ms")print $$(i-1)}' /tmp/bench_prefix.txt)" \
		/tmp/bench_prefix.txt
	@echo "wrote $(BENCH6OUT)"

# Predicted-latency benchmark baseline: a long-prefill-heavy workload
# (prompt p90 4096 / max 16K, short outputs) end to end through a
# 4-replica gateway. Occupancy balancing counts a 16K prompt and a
# 128-token prompt as the same unit of load, so PredictedLatency — which
# scores the forest over each replica's live queue snapshot — should beat
# LeastLoaded on P90 TTFT in both the colocated and the disaggregated
# (2 prefill + 2 decode) gateway; the headline P90s land in BENCH_PR7.json
# as meta.
BENCH7OUT ?= BENCH_PR7.json
bench-pr7:
	$(GO) test -run '^$$' -bench LongPrefill -benchtime 3x ./internal/loadgen/ | tee /tmp/bench_predicted.txt
	$(GO) run ./cmd/benchjson -o $(BENCH7OUT) \
		-meta note="300 requests, prompt p50 512 / p90 4096 / max 16384, decode p50 8, 4 replicas (disagg: 2 prefill + 2 decode)" \
		-meta colocated_least_loaded_ttft_p90_ms="$$(awk '/ColocatedLeastLoaded/{for(i=2;i<=NF;i++)if($$i=="ttft_p90_ms")print $$(i-1)}' /tmp/bench_predicted.txt)" \
		-meta colocated_predicted_ttft_p90_ms="$$(awk '/ColocatedPredicted/{for(i=2;i<=NF;i++)if($$i=="ttft_p90_ms")print $$(i-1)}' /tmp/bench_predicted.txt)" \
		-meta disagg_least_loaded_ttft_p90_ms="$$(awk '/DisaggLeastLoaded/{for(i=2;i<=NF;i++)if($$i=="ttft_p90_ms")print $$(i-1)}' /tmp/bench_predicted.txt)" \
		-meta disagg_predicted_ttft_p90_ms="$$(awk '/DisaggPredicted/{for(i=2;i<=NF;i++)if($$i=="ttft_p90_ms")print $$(i-1)}' /tmp/bench_predicted.txt)" \
		/tmp/bench_predicted.txt
	@echo "wrote $(BENCH7OUT)"

# Cross-replica KV transfer baseline: long-prompt multi-turn sessions end
# to end through a 4-replica colocated gateway. The PR 6 baseline (prefix
# affinity, recompute on a routing miss) pins sessions to their holders, so
# hot replicas stack long prefills; the transfer-enabled predicted balancer
# imports cached prefixes over a modeled 64 GB/s interconnect and must beat
# it on req/s and TTFT p50/p90 with non-zero prefix_transfer_tokens.
BENCH8OUT  ?= BENCH_PR8.json
BENCH8TIME ?= 3x
bench-pr8:
	$(GO) test -run '^$$' -bench SessionPrefix -benchtime $(BENCH8TIME) ./internal/loadgen/ | tee /tmp/bench_transfer.txt
	$(GO) run ./cmd/benchjson -o $(BENCH8OUT) \
		-meta note="320 requests, 8-turn sessions, prompt p50 1024 / max 8192, 4 replicas, 64 GB/s KV interconnect" \
		-meta recompute_req_s="$$(awk '/AffinityRecompute/{for(i=2;i<=NF;i++)if($$i=="req/s")print $$(i-1)}' /tmp/bench_transfer.txt)" \
		-meta transfer_req_s="$$(awk '/PredictedTransfer/{for(i=2;i<=NF;i++)if($$i=="req/s")print $$(i-1)}' /tmp/bench_transfer.txt)" \
		-meta recompute_ttft_p50_ms="$$(awk '/AffinityRecompute/{for(i=2;i<=NF;i++)if($$i=="ttft_p50_ms")print $$(i-1)}' /tmp/bench_transfer.txt)" \
		-meta transfer_ttft_p50_ms="$$(awk '/PredictedTransfer/{for(i=2;i<=NF;i++)if($$i=="ttft_p50_ms")print $$(i-1)}' /tmp/bench_transfer.txt)" \
		-meta recompute_ttft_p90_ms="$$(awk '/AffinityRecompute/{for(i=2;i<=NF;i++)if($$i=="ttft_p90_ms")print $$(i-1)}' /tmp/bench_transfer.txt)" \
		-meta transfer_ttft_p90_ms="$$(awk '/PredictedTransfer/{for(i=2;i<=NF;i++)if($$i=="ttft_p90_ms")print $$(i-1)}' /tmp/bench_transfer.txt)" \
		-meta transfer_prefix_transfer_tokens="$$(awk '/PredictedTransfer/{for(i=2;i<=NF;i++)if($$i=="prefix_transfer_tokens")print $$(i-1)}' /tmp/bench_transfer.txt)" \
		/tmp/bench_transfer.txt
	@echo "wrote $(BENCH8OUT)"

# Token-path benchmark baseline: contended closed-loop load
# against 8 replicas through the event-frame path, which recycles the
# request, stream entry, and frames through free lists and coalesces each
# iteration's tokens into one pooled frame, so allocs/op is 0. The
# headline req/s, TTFT p50/p90, and allocs/req land in BENCH_PR10.json as
# meta alongside the raw benchmark entries benchgate diffs. (The committed
# file also holds the retired per-token-channel run; benchgate compares
# only the benchmarks both files share.)
BENCH10OUT  ?= BENCH_PR10.json
BENCH10TIME ?= 2s
bench-pr10:
	$(GO) test -run '^$$' -bench 'GatewayFrameReplicas8' -benchmem -cpu 1 \
		-benchtime $(BENCH10TIME) ./internal/server/ | tee /tmp/bench_tokenpath.txt
	$(GO) run ./cmd/benchjson -o $(BENCH10OUT) \
		-meta note="32 parallel closed-loop submitters, Q2 512/2, 8 replicas, EventFrame 16 pooled frames" \
		-meta frame_req_s="$$(awk '/GatewayFrameReplicas8/{for(i=2;i<=NF;i++)if($$i=="req/s")print $$(i-1)}' /tmp/bench_tokenpath.txt)" \
		-meta frame_ttft_p50_ms="$$(awk '/GatewayFrameReplicas8/{for(i=2;i<=NF;i++)if($$i=="ttft_p50_ms")print $$(i-1)}' /tmp/bench_tokenpath.txt)" \
		-meta frame_ttft_p90_ms="$$(awk '/GatewayFrameReplicas8/{for(i=2;i<=NF;i++)if($$i=="ttft_p90_ms")print $$(i-1)}' /tmp/bench_tokenpath.txt)" \
		-meta frame_allocs_per_req="$$(awk '/GatewayFrameReplicas8/{for(i=2;i<=NF;i++)if($$i=="allocs/op")print $$(i-1)}' /tmp/bench_tokenpath.txt)" \
		/tmp/bench_tokenpath.txt
	@echo "wrote $(BENCH10OUT)"

# Benchmark regression gate for `verify`/CI: re-measure the PR 10
# token-path benchmark in a short pass and diff against the committed
# BENCH_PR10.json with cmd/benchgate, at -cpu 1 like the baseline (the
# benchmark runs 32 submitters per P, and benchgate refuses to compare
# runs at different GOMAXPROCS). Timing tolerance is generous (the
# gate hunts structural regressions, not scheduler noise on shared CI
# machines); allocs/op is tight, and a 0-alloc baseline allows no growth
# at all.
GATETIME      ?= 1s
GATETOL       ?= 0.6
GATETOLALLOCS ?= 0.3
bench-gate:
	$(GO) test -run '^$$' -bench 'GatewayFrameReplicas8' -benchmem -cpu 1 \
		-benchtime $(GATETIME) ./internal/server/ | tee /tmp/bench_gate_fresh.txt
	$(GO) run ./cmd/benchjson -o /tmp/BENCH_PR10_fresh.json -meta mode=gate /tmp/bench_gate_fresh.txt
	$(GO) run ./cmd/benchgate -baseline $(BENCH10OUT) -current /tmp/BENCH_PR10_fresh.json \
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
