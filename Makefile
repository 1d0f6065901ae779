GO ?= go

.PHONY: build test vet race verify closure-prop obs-smoke cluster-chaos cluster-tcp cluster-obs fuzz bench bench-smoke bench-compare bench-compare-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race runs the whole suite under the race detector — the supervision code
# (bgp.Reconnector, the multi-connection IPFIX Serve, faultnet) is
# concurrent, so this is the tier the resilience layer is gated on.
race:
	$(GO) test -race ./...

# verify is the CI entry point: static checks, the race-checked suite, the
# parallel-compilation equivalence property, the observability smoke, the
# cluster chaos suite, the cluster observability-plane gate, and the
# benchmark-baseline structural check.
verify: vet race closure-prop obs-smoke cluster-chaos cluster-tcp cluster-obs bench-compare-smoke

# closure-prop runs the parallel-closure property tests explicitly (random
# cyclic topologies: ConeClosures at 1/2/4/8 workers must match the
# sequential constructors element-for-element). They are in the race suite
# too; the dedicated target keeps the equivalence gate visible in CI logs.
closure-prop:
	$(GO) test -race -run 'TestConeClosures' -count=1 ./internal/astopo

# obs-smoke drives a live parallel run with telemetry enabled and asserts the
# /metrics scrape matches the Aggregator exactly and /healthz walks
# unready -> ok (see obs_smoke_test.go).
obs-smoke:
	$(GO) test -race -run TestObsSmoke -count=1 .

# cluster-chaos is the fault-tolerance gate: kill/stall/partition workers
# mid-run (internal/cluster chaos suite) plus the end-to-end acceptance run
# over the simulated IXP — every scenario must produce a merged checkpoint
# byte-identical to the fault-free single-process run. Raced, because the
# whole layer is concurrent by construction. The cluster-tcp prerequisite
# reruns the discipline over real loopback TCP.
cluster-chaos: cluster-tcp
	$(GO) test -race -run 'TestClusterSurvives|TestClusterRepeatedKillsConverge' -count=1 ./internal/cluster
	$(GO) test -race -run TestResilientClusterMatchesSingleProcess -count=1 .

# cluster-tcp is the deployment-transport gate: the chaos and failover
# scenarios again, but over real loopback TCP with authenticated hellos —
# a stalled link, an injected accept failure, a SIGKILL-equivalent
# coordinator death resumed from the shard ledger, and a warm-standby
# takeover. Byte-identity against the fault-free single-process run is the
# bar in every scenario.
cluster-tcp:
	$(GO) test -race -timeout 120s -run 'TestClusterTCPChaos|TestStandbyTakeover|TestClusterSurvivesCoordinatorKill' -count=1 ./internal/cluster

# cluster-obs is the observability-plane gate: a two-TCP-worker run whose
# federated per-class counters must converge to the merged checkpoint
# tallies exactly (with populated epoch-propagation histograms and a fleet
# status that matches the shard ledger), plus the chaos-scrape run — a
# worker killed mid-flight while a concurrent scraper asserts the fleet-wide
# sums never overshoot the final truth and every handoff span that opened
# was closed. Raced, like every cluster tier.
cluster-obs:
	$(GO) test -race -timeout 120s -run 'TestClusterTelemetryFederation|TestChaosScrapeConsistency' -count=1 ./internal/cluster

# bench measures live-runtime consumption throughput (sequential Step loop
# vs the batch-parallel consumer at 1/2/4/8 workers), the end-to-end ingest
# path (wire-image IPFIX decode -> batched queue -> drain -> classify ->
# aggregate, with the allocs/op that must stay effectively zero), pipeline
# compilation latency (cold at 1/2/4/8 build workers and incremental, at
# paper and ~50K-AS full-table scale), the cluster flow transport over TCP
# loopback (frame batch 1/64/512 × deflate off/on, plus interleaved
# plain/telemetry federation-overhead pairs at batch 64/512), and the
# single-core classify hot path (perflow and batch256 APIs, with allocation
# counts), recording the machine-readable baseline in
# BENCH_runtime.json. The document carries the recording host's CPU count,
# so single-core baselines are self-describing.
bench:
	( $(GO) test -run='^$$' -bench=BenchmarkRuntimeThroughput -benchtime=3x . ; \
	  $(GO) test -run='^$$' -bench=BenchmarkIngestPath -benchtime=10x -benchmem . ; \
	  $(GO) test -run='^$$' -bench=BenchmarkPipelineBuild -benchtime=1x . ; \
	  $(GO) test -run='^$$' -bench='BenchmarkClusterTransport/^batch-' -benchtime=1x . ; \
	  $(GO) test -run='^$$' -bench=BenchmarkClusterTransport/overhead -benchtime=1x . ; \
	  $(GO) test -run='^$$' -bench=BenchmarkClassifyHotPath -benchtime=2s -benchmem . ) \
		| $(GO) run ./cmd/benchjson > BENCH_runtime.json
	cat BENCH_runtime.json

# bench-smoke compiles and runs both benchmarks once — the CI guard that
# keeps the benchmark suite executable without paying measurement time. The
# build benchmark runs at its reduced smoke scale.
bench-smoke:
	$(GO) test -run='^$$' -bench=BenchmarkRuntimeThroughput -benchtime=1x .
	SPOOFSCOPE_BENCH_SMOKE=1 $(GO) test -run='^$$' -bench=BenchmarkPipelineBuild -benchtime=1x .

# bench-compare remeasures the classify hot path, the federation-overhead
# transport pairs, and the live-runtime drain/ingest benchmarks and gates
# them against the committed BENCH_runtime.json: any classify or runtime
# variant whose flows/sec fell more than 15% below the baseline fails, so
# does an overhead pair where telemetry federation costs more than 5%
# throughput against the plain lifecycle interleaved with it in the same
# run, and so does an ingest replay that allocates (cap 512 allocs per
# whole-trace op — a single per-message alloc would be ~6,900). Run it on
# classifier, index, queue, decoder, or observability-plane changes; refresh
# the baseline with `make bench` when a speedup (or an accepted cost) moves
# the numbers for real.
bench-compare:
	( $(GO) test -run='^$$' -bench=BenchmarkClassifyHotPath -benchtime=2s -benchmem . ; \
	  $(GO) test -run='^$$' -bench=BenchmarkClusterTransport/overhead -benchtime=1x . ; \
	  $(GO) test -run='^$$' -bench=BenchmarkRuntimeThroughput -benchtime=3x . ; \
	  $(GO) test -run='^$$' -bench=BenchmarkIngestPath -benchtime=10x -benchmem . ) \
		| $(GO) run ./cmd/benchjson -diff BENCH_runtime.json

# bench-compare-smoke is the verify/CI variant: a single iteration proves
# the benchmarks still run and every baseline classify, runtime, and
# federation-overhead variant still exists, without judging single-shot
# numbers.
bench-compare-smoke:
	( $(GO) test -run='^$$' -bench=BenchmarkClassifyHotPath -benchtime=1x -benchmem . ; \
	  SPOOFSCOPE_OVERHEAD_ROUNDS=2 $(GO) test -run='^$$' -bench=BenchmarkClusterTransport/overhead -benchtime=1x . ; \
	  $(GO) test -run='^$$' -bench=BenchmarkRuntimeThroughput -benchtime=1x . ; \
	  $(GO) test -run='^$$' -bench=BenchmarkIngestPath -benchtime=1x -benchmem . ) \
		| $(GO) run ./cmd/benchjson -diff BENCH_runtime.json -smoke

# fuzz gives the stream-framing paths, the checkpoint and cluster-report
# decoders, and the prefix index a short adversarial workout beyond the
# seeded corpus that runs in `make test`.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzServeStream -fuzztime=20s ./internal/ipfix
	$(GO) test -run=^$$ -fuzz=FuzzDecode -fuzztime=20s ./internal/ipfix
	$(GO) test -run=^$$ -fuzz=FuzzUnmarshalUpdate -fuzztime=20s ./internal/bgp
	$(GO) test -run=^$$ -fuzz=FuzzMRT -fuzztime=20s ./internal/bgp
	$(GO) test -run=^$$ -fuzz=FuzzDecodeCheckpoint -fuzztime=20s ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzDecodeReport -fuzztime=20s ./internal/cluster
	$(GO) test -run=^$$ -fuzz=FuzzFlatLPM -fuzztime=20s ./internal/netx
