GO ?= go

.PHONY: all build fmt-check vet perfbench-check test race bench bench-compare sched-gate check fuzz-smoke cover-gate alloc-gate trace-smoke results-figs

all: check build

build:
	$(GO) build ./...

## fmt-check fails if any file needs gofmt.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

## perfbench-check vets and builds the end-to-end benchmark harness. It is
## a separate Go module, so `go build ./...` and `go vet ./...` skip it.
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench build -o /dev/null .

## test and race run each package's tests in a random order (the seed is
## printed), so a test that leans on state an earlier test left behind
## fails in CI instead of passing by the luck of source order.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -shuffle=on -race ./...

## bench runs the root benchmark suite and writes BENCH_PR10.json — the
## machine-readable ns/op table (via cmd/benchjson). Since PR 5 the suite
## covers the simulation substrate (BenchmarkTableChurn,
## BenchmarkRuleMatch); the streaming detector adds
## BenchmarkDetectorObserve; PR 8 adds BenchmarkShardedSim1k — the
## sharded fleet engine driving a 1125-switch fat-tree at 1 and 8 shards
## on one echo workload;
## PR 9 adds BenchmarkIngestPcap — the full capture-ingestion pipeline
## (pcap decode, flow extraction, universe mapping) on a ~10k-packet
## in-memory capture; PR 10 adds BenchmarkServiceSessions (flowrecond
## sessions/sec at 1/64/1k concurrent vs the naive one-goroutine-per-
## session baseline) and BenchmarkServiceProbeThroughput (probes/sec +
## model-store hit rate). The service benchmarks live in
## internal/service rather than the root suite so the root bench
## binary's import graph — and with it the code layout its
## micro-benchmarks are sensitive to — stays fixed across PRs; the two
## packages' outputs merge into one json. Each benchmark runs -count 3
## and benchjson keeps the fastest run per (package, name), which is
## what makes the bench-compare gate usable on shared/noisy hosts; each
## benchmark records the package it ran in. -benchmem records B/op and
## allocs/op beside ns/op (BenchmarkColdSessionBuild tracks the cold
## session build's allocation count, BenchmarkWarmTrial the warm
## trial's); bench-compare prints allocs/op but gates on ns/op only.
## The exact §IV-A model is a test oracle of internal/core, so its build
## and the ordered-vs-canonical ablation run from that package's tests
## and append to the same output.
bench:
	$(GO) test -run xxx -bench . -benchmem -benchtime 500ms -count 3 . ./internal/service/ > bench.out
	$(GO) test -run xxx -bench 'BasicModelBuild|AblationOrderedVsCanonical' -benchmem -benchtime 500ms -count 3 ./internal/core/ >> bench.out
	@cat bench.out
	$(GO) run ./cmd/benchjson < bench.out > BENCH_PR10.json
	@rm -f bench.out
	@echo "wrote BENCH_PR10.json"

## bench-compare diffs the committed benchmark history: it fails when any
## benchmark present in both BENCH_PR9.json and BENCH_PR10.json regressed
## by more than 15% ns/op, so the perf gate covers the substrate
## benchmarks as well as the Markov kernels. CI runs this as the perf
## gate.
bench-compare:
	$(GO) run ./cmd/benchjson -compare BENCH_PR9.json BENCH_PR10.json -max-regress 15

## sched-gate holds the simulation engine's event loop to its contract
## across refactors: neither the ingestion layer nor the service layer
## (which schedules above netsim, not inside it) may tax the fleet drain.
## BenchmarkShardedSim1k/fleet/shards=1 — the single-shard drain's
## per-event cost, recorded same-host in BENCH_PR8.json when the fleet
## landed and in BENCH_PR10.json after — may regress at most 2%. It
## compares committed recordings; it does not run the tree under review.
sched-gate:
	$(GO) run ./cmd/benchjson -compare BENCH_PR8.json BENCH_PR10.json -bench 'ShardedSim1k/fleet/shards=1' -max-regress 2

## alloc-gate runs the allocation assertions without the race detector
## (race instrumentation allocates, so `make race` skips them): the
## netsim fleet must drain a cross-shard window cycle with zero
## allocations in steady state, recycling its event records from the
## per-shard pools (TestFleetDrainZeroAlloc, the one scheduler check),
## and its shard heaps must not grow across repeated rounds;
## Table.Lookup's hit path must stay within one, the
## disabled telemetry instruments (nil span recorder / event log) must
## cost zero allocations at every emit site, and the streaming detector
## must observe with zero allocations per event — enabled and disabled.
## PR 10 adds the flowrecond scheduler: the steady-state enqueue/take
## path (per-target group queues + the ready ring) must not allocate
## once warm. The random streams join them: RNG.Reseed followed by draws
## must not allocate, and workload.GeneratePoisson must allocate the same
## number of times whatever its flow count (one reseeded child stream,
## not a forked generator per flow). The u-sum time-step sweep must not
## allocate once its estimator is warm, so repeated model builds add no
## GC pressure; likewise the §IV-A1 event weights, and BestSequence
## allocates as often at 8 candidates as at 4. A model rebuilt over a warm
## u-sum memo makes one lookup, evaluates no state and allocates only the
## model's own storage, at small and at paper scale
## (TestMemoHitRebuildSteadyStateAllocs).
## The daemon's warm trial joins them: a probing TrialRunner.Run with no
## span recorder stays within the allocation count measured once the
## per-probe span detail stopped being formatted for a recorder that
## would discard it; that bound fell again (64 -> 19) once a trial replays
## its window once into pooled scratch and each attacker probes a copy,
## and to 16 once a trial's attacker records are allocated at their final
## size. The in-order driver joins it: each further trial of a serial
## TrialRunner.RunTrials with no consumers costs no more than one Run.
## The scratch joins them: a flowtable Reset, replay and CopyCacheFrom on
## warm tables must not allocate, and a non-empty GeneratePoisson window
## allocates only its presized arrival slice and its Trace. The chaos
## trial joins them: a recycled detector's Reset, observations and Merge
## into a warm aggregate must not allocate (TestDetectorRecycleZeroAlloc),
## and a warm trial with released detectors
## (TestTrialRunnerDetectSteadyStateAllocs) allocates at most 4 more
## times than a plain one under 0.3 ms jitter — its fault stream is
## reseeded in place — and detection adds only the detector list to a
## trial under 5% loss.
## A second pass runs the same tests under GOGC=20, so that a count which
## holds only when no collection lands inside it (a sync.Pool emptied and
## refilled while counting) fails here rather than now and then. It needs
## -count=1: the test cache does not key on GOGC.
ALLOC_GATE_PKGS = ./internal/netsim/ ./internal/flowtable/ ./internal/telemetry/ ./internal/detect/ ./internal/service/ ./internal/stats/ ./internal/workload/ ./internal/core/ ./internal/experiment/
alloc-gate:
	$(GO) test -run 'ZeroAlloc|SteadyStateAllocs|PoolRecycles' $(ALLOC_GATE_PKGS)
	GOGC=20 $(GO) test -count=1 -run 'ZeroAlloc|SteadyStateAllocs|PoolRecycles' $(ALLOC_GATE_PKGS)

## trace-smoke proves the span-export pipeline end to end on the golden
## fixture: export trial 0's causal span forest as Chrome trace_event
## JSON via cmd/inspect, then structurally validate the result (the same
## check ui.perfetto.dev's importer applies on load).
trace-smoke:
	$(GO) run ./cmd/inspect -perfetto trace-smoke.json -trial 0 internal/experiment/testdata/golden_small.jsonl
	$(GO) run ./cmd/inspect -validate-perfetto trace-smoke.json
	@rm -f trace-smoke.json

## fuzz-smoke runs each fuzz target for 10 s — long enough to shake out
## parser panics on truncated/oversized frames, indexed-vs-linear matcher
## disagreements, and pcap/frame decoder crashes on hostile captures,
## short enough for CI. The openflow seed corpora live in
## internal/openflow/testdata/fuzz/; the ingest targets seed themselves
## (FuzzParsePacket checks the fast frame parser against a slow
## per-byte reference decoder, FuzzReadPcap sanity-bounds whole files).
## FuzzRNGMatchesMathRand holds the lazily seeded stats.RNG to
## math/rand.NewSource, draw for draw, on arbitrary seeds;
## FuzzEnumerateMatchesReference holds the u-sum time-step sweep to the
## per-assignment reference walk, to 1e-12 relative, on arbitrary rule
## sets; FuzzSweepMatchesReference holds the sweep, which visits only live
## slot sets, to the passes that visit every set, bit for bit;
## FuzzCompactBuildMatchesReference holds the cold compact-model build
## (cover-table γ kernels, estimator scratch, reserved row assembly) to
## the clone-based reference build, bit for bit;
## FuzzReducedModelMatchesFullChain holds the compact model, built over
## the subsets of the installable rules, and its target-conditioned twin
## to the full chain over every subset, bit for bit through the state
## masks: rows, estimates, every step's distribution, every probe's
## split and side effect, and the belief tracker's state labels, with
## the dropped states at exactly +0 and unreachable;
## FuzzStreamLinesMatchEncoding holds flowrecond's append-encoded probe
## and verdict lines to encoding/json, byte for byte, on arbitrary
## attacker names and integers; FuzzTableCopyCacheFrom holds a flow
## table copied with CopyCacheFrom to its source, step by step, under
## arbitrary operation sequences (expiry and eviction order included);
## FuzzSessionSpec holds flowrecond's spec admission (the HTTP decoder and
## SessionSpec.Validate) to its bounds on arbitrary request bodies: no
## panic, and no accepted spec past the step, rule, mask-bit, flow, cache
## or probe bounds or naming a server-side file trace;
## FuzzProbeNeverViable holds the figure screen's lemma to Evaluate's
## joint and posterior arithmetic on arbitrary probabilities in
## [0, 1+1e-12]: a probe the screen rules out is never a viable detector.
fuzz-smoke:
	$(GO) test ./internal/openflow/ -run '^$$' -fuzz FuzzReadMessage -fuzztime 10s
	$(GO) test ./internal/openflow/ -run '^$$' -fuzz FuzzParsePacket -fuzztime 10s
	$(GO) test ./internal/rules/ -run '^$$' -fuzz FuzzMatchInDifferential -fuzztime 10s
	$(GO) test ./internal/ingest/ -run '^$$' -fuzz FuzzParsePacket -fuzztime 10s
	$(GO) test ./internal/ingest/ -run '^$$' -fuzz FuzzReadPcap -fuzztime 10s
	$(GO) test ./internal/stats/ -run '^$$' -fuzz FuzzRNGMatchesMathRand -fuzztime 10s
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzEnumerateMatchesReference -fuzztime 10s
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzSweepMatchesReference -fuzztime 10s
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzCompactBuildMatchesReference -fuzztime 10s
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzReducedModelMatchesFullChain -fuzztime 10s
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzProbeNeverViable -fuzztime 10s
	$(GO) test ./internal/service/ -run '^$$' -fuzz FuzzStreamLinesMatchEncoding -fuzztime 10s
	$(GO) test ./internal/service/ -run '^$$' -fuzz FuzzSessionSpec -fuzztime 10s
	$(GO) test ./internal/flowtable/ -run '^$$' -fuzz FuzzTableCopyCacheFrom -fuzztime 10s

## cover-gate enforces statement-coverage floors on the packages whose
## failure modes are wire-facing — the OpenFlow codec, the fault-injection
## layer and the capture-ingestion pipeline — on the multi-tenant
## service, which holds the process's one model cache, and on the model
## and the trial loop (internal/core, internal/experiment), whose outputs
## the determinism contract pins. Each must stay at or above 70%.
cover-gate:
	@for pkg in internal/openflow internal/faults internal/ingest internal/service internal/core internal/experiment; do \
		pct="$$($(GO) test -cover ./$$pkg/ | awk '{for (i=1;i<=NF;i++) if ($$i ~ /^[0-9.]+%$$/) {sub(/%/,"",$$i); print $$i}}')"; \
		if [ -z "$$pct" ]; then echo "cover-gate: no coverage figure for $$pkg"; exit 1; fi; \
		ok="$$(echo "$$pct 70" | awk '{print ($$1 >= $$2) ? 1 : 0}')"; \
		if [ "$$ok" != 1 ]; then echo "cover-gate: $$pkg coverage $$pct% < 70%"; exit 1; fi; \
		echo "cover-gate: $$pkg $$pct% >= 70%"; \
	done

## results-figs regenerates the committed small-scale Figures 6 and 7
## (experiments -fig6 -fig7 -scale small -seed 1, one figure per file)
## without their wall-clock "took" lines. The figures are a pure function
## of the seed at every -parallelism, so CI reruns this target and fails
## on any diff: a sampler change that moves a figure shows up here.
results-figs:
	$(GO) run ./cmd/experiments -fig6 -scale small -seed 1 > results_fig6.txt.tmp
	grep -v '^(figure 6 took' results_fig6.txt.tmp > results_fig6.txt
	$(GO) run ./cmd/experiments -fig7 -scale small -seed 1 > results_fig7.txt.tmp
	grep -v '^(figure 7 took' results_fig7.txt.tmp > results_fig7.txt
	@rm -f results_fig6.txt.tmp results_fig7.txt.tmp

## check is the pre-merge gate: formatting, vet, the benchmark harness's
## vet and build, the full test suite under the race detector, the
## allocation gate (which race builds must skip), the trace-export smoke,
## and the fleet-drain overhead gate on the committed benchmark history.
check: fmt-check vet perfbench-check race alloc-gate trace-smoke sched-gate
