// Command benchjson converts `go test -bench` text output on stdin into a
// machine-readable JSON document on stdout, so benchmark baselines can be
// committed and diffed (`make bench` pipes the runtime-throughput and
// pipeline-build benchmarks through it into BENCH_runtime.json).
//
//	go test -run='^$' -bench=BenchmarkRuntimeThroughput . | benchjson > BENCH_runtime.json
//
// Each benchmark line ("BenchmarkX/sub-N  iters  value unit  value unit...")
// becomes one entry with its metric pairs keyed by unit; the goos/goarch/
// pkg/cpu header lines and the recording host's CPU count are carried into
// the document header, so a baseline measured on a single-core box cannot be
// mistaken for one with real parallelism.
//
// With -diff <baseline.json> the tool compares instead of emitting: the
// classify hot-path entries parsed from stdin are checked against the
// committed baseline's classify section and the exit status is non-zero when
// any variant's flows/sec regressed by more than 15% (`make bench-compare`).
// When the baseline has a clusterObs section, the federation-overhead gate
// runs too: the fresh run's plain-vs-telemetry transport variants must show
// less than 5% throughput overhead. When it has a runtime section, the
// live-drain gate runs as well: every RuntimeThroughput variant and the
// end-to-end IngestPath entry must reappear, lose no more than 15% flows/sec,
// and the ingest entry must keep its effectively-zero allocs/op (cap 512 per
// whole-trace replay). -smoke relaxes the comparisons to a
// structural check — every baseline variant must still be produced by the
// fresh run, but single-iteration numbers are reported without being judged
// — which is what `make verify` and CI run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

type benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// latencySummary surfaces the sampled classify-latency quantiles emitted by
// the telemetry-enabled benchmark variants (classify-p50-ns / classify-p99-ns
// custom metrics) as a first-class section, so the committed baseline tracks
// classification latency alongside throughput.
type latencySummary struct {
	Benchmark string  `json:"benchmark"`
	P50ns     float64 `json:"classifyP50ns"`
	P99ns     float64 `json:"classifyP99ns"`
}

// buildSummary surfaces the pipeline-compilation benchmark
// (BenchmarkPipelineBuild/<scale>/<variant>) as a first-class section: one
// entry per scale/variant with the build latency in seconds and the table
// size (ases custom metric), so the committed baseline tracks epoch-rebuild
// cost alongside classification throughput. The header's numCPU/goMaxProcs
// qualify the cold-wN variants: on a single-core recorder every worker count
// clamps to sequential.
type buildSummary struct {
	Benchmark string  `json:"benchmark"`
	Scale     string  `json:"scale"`
	Variant   string  `json:"variant"`
	Seconds   float64 `json:"seconds"`
	ASes      float64 `json:"ases,omitempty"`
}

// clusterSummary surfaces the TCP flow-transport benchmark
// (BenchmarkClusterTransport/batch-N[-deflate]) as a first-class section:
// one entry per batch-size/compression variant with its end-to-end
// flows/sec, so the committed baseline records what frame batching and wire
// compression are worth on the deployment transport.
type clusterSummary struct {
	Benchmark   string  `json:"benchmark"`
	Batch       int     `json:"batch"`
	Compressed  bool    `json:"compressed"`
	FlowsPerSec float64 `json:"flowsPerSec"`
}

// clusterObsSummary surfaces one BenchmarkClusterTransport/overhead-batch-N
// entry — an interleaved plain/telemetry-federation transport pair measured
// under the same machine conditions — with the throughput overhead
// federation costs. `benchjson -diff` gates this within the fresh run: past
// clusterObsTolerancePct the observability plane is no longer an observer,
// and the build fails.
type clusterObsSummary struct {
	Batch                int     `json:"batch"`
	PlainFlowsPerSec     float64 `json:"plainFlowsPerSec"`
	TelemetryFlowsPerSec float64 `json:"telemetryFlowsPerSec"`
	OverheadPct          float64 `json:"overheadPct"`
}

// classifySummary surfaces the single-core classify hot-path benchmark
// (BenchmarkClassifyHotPath/<path>-<index>) as a first-class section: one
// entry per API path (perflow/batch256) with its ns/flow, flows/sec, and
// steady-state allocations. The index is always "flat", the classifier's
// only layout; the suffix keeps the committed baseline names stable. This
// is the section `benchjson -diff` guards: the flat batch path is the live
// runtime's consumption loop, so a throughput regression here is a
// production regression.
type classifySummary struct {
	Benchmark   string  `json:"benchmark"`
	Path        string  `json:"path"`  // "perflow" or "batch256"
	Index       string  `json:"index"` // "flat"
	NsPerFlow   float64 `json:"nsPerFlow"`
	FlowsPerSec float64 `json:"flowsPerSec"`
	AllocsPerOp float64 `json:"allocsPerOp"`
}

// runtimeSummary surfaces the live-runtime drain benchmarks as a first-class
// section: one entry per BenchmarkRuntimeThroughput/<variant> (sequential,
// parallel-N, and their -telemetry twins) plus the end-to-end ingest-path
// entry (BenchmarkIngestPath: wire bytes -> decode-into-batch -> queue ->
// drain -> classify -> aggregate, variant "ingest"). `benchjson -diff` gates
// this section: a variant whose flows/sec fell more than 15% below baseline
// fails, and the ingest variant's allocs/op must stay effectively zero — one
// replay decodes thousands of messages, so even a single per-message
// allocation lands orders of magnitude above ingestAllocTolerance.
type runtimeSummary struct {
	Benchmark   string  `json:"benchmark"`
	Variant     string  `json:"variant"`
	FlowsPerSec float64 `json:"flowsPerSec"`
	NsPerFlow   float64 `json:"nsPerFlow,omitempty"`
	AllocsPerOp float64 `json:"allocsPerOp"`
}

type document struct {
	GeneratedAt time.Time           `json:"generatedAt"`
	GoVersion   string              `json:"goVersion"`
	NumCPU      int                 `json:"numCPU"`
	GoMaxProcs  int                 `json:"goMaxProcs"`
	Env         map[string]string   `json:"env,omitempty"`
	Benchmarks  []benchmark         `json:"benchmarks"`
	Latency     []latencySummary    `json:"latency,omitempty"`
	Build       []buildSummary      `json:"build,omitempty"`
	Cluster     []clusterSummary    `json:"cluster,omitempty"`
	ClusterObs  []clusterObsSummary `json:"clusterObs,omitempty"`
	Classify    []classifySummary   `json:"classify,omitempty"`
	Runtime     []runtimeSummary    `json:"runtime,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	diffPath := flag.String("diff", "", "compare the classify section parsed from stdin against this committed baseline instead of emitting JSON; exit non-zero on a >15% flows/sec regression")
	smoke := flag.Bool("smoke", false, "with -diff: check structure only (every baseline classify variant must reappear), never fail on the numbers")
	flag.Parse()
	doc := document{
		GeneratedAt: time.Now().UTC().Truncate(time.Second),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Env:         map[string]string{},
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if b, ok := parseBenchLine(line); ok {
			doc.Benchmarks = append(doc.Benchmarks, b)
			continue
		}
		// Header lines: "goos: linux", "cpu: ...", etc.
		if k, v, ok := strings.Cut(line, ": "); ok && !strings.Contains(k, " ") {
			doc.Env[k] = v
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	if len(doc.Benchmarks) == 0 {
		log.Fatal("no benchmark lines on stdin")
	}
	for _, b := range doc.Benchmarks {
		p50, ok50 := b.Metrics["classify-p50-ns"]
		p99, ok99 := b.Metrics["classify-p99-ns"]
		if ok50 || ok99 {
			doc.Latency = append(doc.Latency, latencySummary{
				Benchmark: b.Name, P50ns: p50, P99ns: p99,
			})
		}
		if bs, ok := parseBuildEntry(b); ok {
			doc.Build = append(doc.Build, bs)
		}
		if cs, ok := parseClusterEntry(b); ok {
			doc.Cluster = append(doc.Cluster, cs)
		}
		if co, ok := parseClusterObsEntry(b); ok {
			doc.ClusterObs = append(doc.ClusterObs, co)
		}
		if cl, ok := parseClassifyEntry(b); ok {
			doc.Classify = append(doc.Classify, cl)
		}
		if rs, ok := parseRuntimeEntry(b); ok {
			doc.Runtime = append(doc.Runtime, rs)
		}
	}
	if *diffPath != "" {
		if err := diffClassify(*diffPath, doc, *smoke); err != nil {
			log.Fatal(err)
		}
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		log.Fatal(err)
	}
}

// regressionTolerance is the fraction of baseline classify throughput a
// fresh measurement may lose before `benchjson -diff` fails the build.
const regressionTolerance = 0.15

// clusterObsTolerancePct caps how much transport throughput telemetry
// federation may cost, in percent, measured plain-vs-telemetry within the
// fresh run itself (not against the baseline — two fresh variants on the
// same box cancel out machine noise that an absolute comparison would not).
const clusterObsTolerancePct = 5.0

// ingestAllocTolerance caps BenchmarkIngestPath's allocs/op. One op replays
// the whole default-scale trace (~6,900 IPFIX messages, ~440K flows), so a
// single per-message allocation anywhere on the ingest path would report
// thousands; the cap absorbs only fixed warm-up residue (goroutine stack
// growth, rare map rehash) while still failing on any per-message or
// per-flow allocation.
const ingestAllocTolerance = 512

// diffClassify compares the classify entries of a fresh run (doc, parsed
// from stdin) against the committed baseline at path. Every baseline
// variant must reappear in the fresh run (a vanished benchmark is a broken
// gate either way); in full mode a variant whose flows/sec fell more than
// regressionTolerance below baseline fails, in smoke mode the numbers are
// printed but not judged — single-iteration CI runs measure nothing.
//
// When the baseline carries a clusterObs section, the federation-overhead
// gate runs too: every baseline batch size must reappear as a fresh
// plain/telemetry pair, and in full mode a fresh overhead — pooled across
// the batch variants — beyond clusterObsTolerancePct fails. The overhead
// is judged within the fresh run only; the baseline's own overhead is
// printed for context.
//
// When the baseline carries a runtime section, the live-drain gate runs
// last: every baseline variant (sequential/parallel-N drains and the
// end-to-end ingest replay) must reappear, full mode fails a variant whose
// flows/sec fell more than regressionTolerance, and the ingest variant
// additionally fails past ingestAllocTolerance allocs per whole-trace
// replay — the committed proof that the decode→queue→drain path stays
// allocation-free in steady state.
func diffClassify(path string, doc document, smoke bool) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w (regenerate with `make bench`)", err)
	}
	var base document
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	if len(base.Classify) == 0 {
		return fmt.Errorf("baseline %s has no classify section; regenerate with `make bench`", path)
	}
	if len(doc.Classify) == 0 {
		return fmt.Errorf("no BenchmarkClassifyHotPath entries on stdin")
	}
	fresh := make(map[string]classifySummary, len(doc.Classify))
	for _, c := range doc.Classify {
		fresh[c.Path+"-"+c.Index] = c
	}
	var failures []string
	for _, b := range base.Classify {
		key := b.Path + "-" + b.Index
		c, ok := fresh[key]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from this run", key))
			continue
		}
		delta := 0.0
		if b.FlowsPerSec > 0 {
			delta = (c.FlowsPerSec - b.FlowsPerSec) / b.FlowsPerSec
		}
		status := "ok"
		if smoke {
			status = "smoke"
		} else if b.FlowsPerSec > 0 && c.FlowsPerSec < b.FlowsPerSec*(1-regressionTolerance) {
			status = "REGRESSION"
			failures = append(failures, fmt.Sprintf("%s: %.0f -> %.0f flows/sec (%.1f%%)",
				key, b.FlowsPerSec, c.FlowsPerSec, 100*delta))
		}
		fmt.Printf("classify %-14s %12.0f -> %12.0f flows/sec  %+6.1f%%  %s\n",
			key, b.FlowsPerSec, c.FlowsPerSec, 100*delta, status)
	}
	if len(base.ClusterObs) > 0 {
		freshObs := make(map[int]clusterObsSummary, len(doc.ClusterObs))
		for _, o := range doc.ClusterObs {
			freshObs[o.Batch] = o
		}
		pooled, pooledN := 0.0, 0
		for _, b := range base.ClusterObs {
			o, ok := freshObs[b.Batch]
			if !ok {
				failures = append(failures, fmt.Sprintf(
					"cluster-obs batch-%d: plain/telemetry pair missing from this run", b.Batch))
				continue
			}
			pooled += o.OverheadPct
			pooledN++
			status := "ok"
			if smoke {
				status = "smoke"
			}
			fmt.Printf("cluster-obs batch-%-4d plain %10.0f  telemetry %10.0f flows/sec  overhead %+5.1f%% (baseline %+5.1f%%)  %s\n",
				o.Batch, o.PlainFlowsPerSec, o.TelemetryFlowsPerSec, o.OverheadPct, b.OverheadPct, status)
		}
		// The gate judges the batch variants pooled, not one by one: each
		// variant measures the same federation cost at a different flow
		// batch size, so averaging them halves the residual machine noise
		// while a real regression moves every variant together.
		if pooledN > 0 {
			mean := pooled / float64(pooledN)
			status := "ok"
			if smoke {
				status = "smoke"
			} else if mean > clusterObsTolerancePct {
				status = "OVERHEAD"
				failures = append(failures, fmt.Sprintf(
					"cluster-obs: telemetry federation costs %.1f%% transport throughput pooled over %d batch variants (cap %.0f%%)",
					mean, pooledN, clusterObsTolerancePct))
			}
			fmt.Printf("cluster-obs pooled    federation overhead %+5.1f%% over %d variants (cap %.0f%%)  %s\n",
				mean, pooledN, clusterObsTolerancePct, status)
		}
	}
	if len(base.Runtime) > 0 {
		freshRt := make(map[string]runtimeSummary, len(doc.Runtime))
		for _, r := range doc.Runtime {
			freshRt[r.Variant] = r
		}
		for _, b := range base.Runtime {
			r, ok := freshRt[b.Variant]
			if !ok {
				failures = append(failures, fmt.Sprintf("runtime %s: missing from this run", b.Variant))
				continue
			}
			delta := 0.0
			if b.FlowsPerSec > 0 {
				delta = (r.FlowsPerSec - b.FlowsPerSec) / b.FlowsPerSec
			}
			status := "ok"
			if smoke {
				status = "smoke"
			} else if b.FlowsPerSec > 0 && r.FlowsPerSec < b.FlowsPerSec*(1-regressionTolerance) {
				status = "REGRESSION"
				failures = append(failures, fmt.Sprintf("runtime %s: %.0f -> %.0f flows/sec (%.1f%%)",
					b.Variant, b.FlowsPerSec, r.FlowsPerSec, 100*delta))
			}
			if b.Variant == "ingest" && !smoke && r.AllocsPerOp > ingestAllocTolerance {
				status = "ALLOCS"
				failures = append(failures, fmt.Sprintf(
					"runtime ingest: %.0f allocs per trace replay (cap %.0f) — the zero-alloc ingest contract is broken",
					r.AllocsPerOp, float64(ingestAllocTolerance)))
			}
			fmt.Printf("runtime  %-20s %12.0f -> %12.0f flows/sec  %+6.1f%%  %s\n",
				b.Variant, b.FlowsPerSec, r.FlowsPerSec, 100*delta, status)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("benchmark gate failed (classify/runtime tolerance %.0f%%, federation overhead cap %.0f%%, ingest alloc cap %d):\n  %s",
			100*regressionTolerance, clusterObsTolerancePct, ingestAllocTolerance, strings.Join(failures, "\n  "))
	}
	return nil
}

// parseRuntimeEntry lifts one BenchmarkRuntimeThroughput/<variant> or
// BenchmarkIngestPath entry into a runtimeSummary. Throughput variant names
// end in digits themselves (parallel-4), so the name is tried verbatim first
// and only on a match failure is one trailing numeric -P GOMAXPROCS suffix
// stripped and the parse retried, mirroring parseClusterEntry.
func parseRuntimeEntry(b benchmark) (runtimeSummary, bool) {
	name := b.Name
	if name == "BenchmarkIngestPath" {
		return runtimeEntry(b, "ingest"), true
	}
	if rest, ok := strings.CutPrefix(name, "BenchmarkIngestPath-"); ok {
		if _, err := strconv.Atoi(rest); err == nil {
			return runtimeEntry(b, "ingest"), true
		}
		return runtimeSummary{}, false
	}
	variant, ok := strings.CutPrefix(name, "BenchmarkRuntimeThroughput/")
	if !ok {
		return runtimeSummary{}, false
	}
	if runtimeVariantValid(variant) {
		return runtimeEntry(b, variant), true
	}
	if i := strings.LastIndex(variant, "-"); i >= 0 {
		if _, err := strconv.Atoi(variant[i+1:]); err == nil && runtimeVariantValid(variant[:i]) {
			return runtimeEntry(b, variant[:i]), true
		}
	}
	return runtimeSummary{}, false
}

// runtimeVariantValid recognizes the throughput benchmark's variant grammar:
// sequential | parallel-<workers>, optionally suffixed -telemetry.
func runtimeVariantValid(v string) bool {
	v = strings.TrimSuffix(v, "-telemetry")
	if v == "sequential" {
		return true
	}
	w, ok := strings.CutPrefix(v, "parallel-")
	if !ok {
		return false
	}
	_, err := strconv.Atoi(w)
	return err == nil
}

func runtimeEntry(b benchmark, variant string) runtimeSummary {
	return runtimeSummary{
		Benchmark:   b.Name,
		Variant:     variant,
		FlowsPerSec: b.Metrics["flows/sec"],
		NsPerFlow:   b.Metrics["ns/flow"],
		AllocsPerOp: b.Metrics["allocs/op"],
	}
}

// parseClassifyEntry lifts one BenchmarkClassifyHotPath/<path>-<index> entry
// into a classifySummary. The variant is tried verbatim first and a trailing
// numeric -P GOMAXPROCS suffix is stripped on failure, mirroring
// parseClusterEntry.
func parseClassifyEntry(b benchmark) (classifySummary, bool) {
	variant, ok := strings.CutPrefix(b.Name, "BenchmarkClassifyHotPath/")
	if !ok {
		return classifySummary{}, false
	}
	if cl, ok := parseClassifyVariant(b, variant); ok {
		return cl, true
	}
	if i := strings.LastIndex(variant, "-"); i >= 0 {
		if _, err := strconv.Atoi(variant[i+1:]); err == nil {
			return parseClassifyVariant(b, variant[:i])
		}
	}
	return classifySummary{}, false
}

func parseClassifyVariant(b benchmark, variant string) (classifySummary, bool) {
	path, index, ok := strings.Cut(variant, "-")
	if !ok || index != "flat" {
		return classifySummary{}, false
	}
	return classifySummary{
		Benchmark:   b.Name,
		Path:        path,
		Index:       index,
		NsPerFlow:   b.Metrics["ns/flow"],
		FlowsPerSec: b.Metrics["flows/sec"],
		AllocsPerOp: b.Metrics["allocs/op"],
	}, true
}

// parseBuildEntry lifts one BenchmarkPipelineBuild/<scale>/<variant> entry
// into a buildSummary. The trailing -P GOMAXPROCS suffix Go appends to the
// variant is stripped; latency comes from ns/op.
func parseBuildEntry(b benchmark) (buildSummary, bool) {
	rest, ok := strings.CutPrefix(b.Name, "BenchmarkPipelineBuild/")
	if !ok {
		return buildSummary{}, false
	}
	scale, variant, ok := strings.Cut(rest, "/")
	if !ok {
		return buildSummary{}, false
	}
	if i := strings.LastIndex(variant, "-"); i >= 0 {
		if _, err := strconv.Atoi(variant[i+1:]); err == nil {
			variant = variant[:i]
		}
	}
	return buildSummary{
		Benchmark: b.Name,
		Scale:     scale,
		Variant:   variant,
		Seconds:   b.Metrics["ns/op"] / 1e9,
		ASes:      b.Metrics["ases"],
	}, true
}

// parseClusterEntry lifts one BenchmarkClusterTransport/batch-N[-deflate]
// entry into a clusterSummary. The variant is tried verbatim first — the
// batch size itself is numeric, so blindly stripping a trailing -N would
// eat it on a GOMAXPROCS=1 recorder (where Go appends no suffix) — and only
// on a parse failure is one numeric -P suffix removed and the parse retried.
func parseClusterEntry(b benchmark) (clusterSummary, bool) {
	variant, ok := strings.CutPrefix(b.Name, "BenchmarkClusterTransport/")
	if !ok {
		return clusterSummary{}, false
	}
	if cs, ok := parseClusterVariant(b, variant); ok {
		return cs, true
	}
	if i := strings.LastIndex(variant, "-"); i >= 0 {
		if _, err := strconv.Atoi(variant[i+1:]); err == nil {
			return parseClusterVariant(b, variant[:i])
		}
	}
	return clusterSummary{}, false
}

func parseClusterVariant(b benchmark, variant string) (clusterSummary, bool) {
	compressed := false
	if v, ok := strings.CutSuffix(variant, "-deflate"); ok {
		variant, compressed = v, true
	}
	batchStr, ok := strings.CutPrefix(variant, "batch-")
	if !ok {
		return clusterSummary{}, false
	}
	batch, err := strconv.Atoi(batchStr)
	if err != nil {
		return clusterSummary{}, false
	}
	return clusterSummary{
		Benchmark:   b.Name,
		Batch:       batch,
		Compressed:  compressed,
		FlowsPerSec: b.Metrics["flows/sec"],
	}, true
}

// parseClusterObsEntry lifts one BenchmarkClusterTransport/overhead-batch-N
// entry into a clusterObsSummary. The variant interleaves a plain and a
// telemetry-federated lifecycle per iteration and reports both throughputs
// plus the median per-pair overhead as custom metrics, so the overhead is a
// same-conditions comparison rather than two variants measured minutes
// apart. The batch number is tried verbatim first and a trailing numeric -P
// GOMAXPROCS suffix is stripped on failure, mirroring parseClusterEntry.
func parseClusterObsEntry(b benchmark) (clusterObsSummary, bool) {
	batchStr, ok := strings.CutPrefix(b.Name, "BenchmarkClusterTransport/overhead-batch-")
	if !ok {
		return clusterObsSummary{}, false
	}
	batch, err := strconv.Atoi(batchStr)
	if err != nil {
		i := strings.LastIndex(batchStr, "-")
		if i < 0 {
			return clusterObsSummary{}, false
		}
		if batch, err = strconv.Atoi(batchStr[:i]); err != nil {
			return clusterObsSummary{}, false
		}
	}
	plain := b.Metrics["plain-flows/sec"]
	tele := b.Metrics["telemetry-flows/sec"]
	over, ok := b.Metrics["overhead-pct"]
	if !ok || plain <= 0 || tele <= 0 {
		return clusterObsSummary{}, false
	}
	return clusterObsSummary{
		Batch:                batch,
		PlainFlowsPerSec:     plain,
		TelemetryFlowsPerSec: tele,
		OverheadPct:          over,
	}, true
}

// parseBenchLine parses one "BenchmarkName-P  N  v unit  v unit..." line.
func parseBenchLine(line string) (benchmark, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return benchmark{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchmark{}, false
	}
	b := benchmark{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	if len(b.Metrics) == 0 {
		return benchmark{}, false
	}
	return b, true
}
