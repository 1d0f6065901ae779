package core

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"

	"spoofscope/internal/ipfix"
	"spoofscope/internal/netx"
	"spoofscope/internal/obs"
)

// TestClassifyBatchMatchesClassify: verdicts from the batch API must equal
// the per-flow path's, flow for flow, for every chunking of the full
// scenario — including the boundary batch sizes the consumers never produce
// (1, a ragged tail, larger than ClassifyBatchSize).
func TestClassifyBatchMatchesClassify(t *testing.T) {
	// The subtest names the index layout the pipeline compiles: flat LPM
	// tables (netx.FlatLPM) are the only one left.
	t.Run("flat", func(t *testing.T) {
		_, p, flows, _ := buildEndToEnd(t)
		want := make([]Verdict, len(flows))
		for i, f := range flows {
			want[i] = p.Classify(f)
		}
		got := make([]Verdict, len(flows))
		for _, chunk := range []int{1, 7, ClassifyBatchSize, len(flows)} {
			for i := range got {
				got[i] = Verdict{RouterIP: true} // poison: every slot must be rewritten
			}
			for lo := 0; lo < len(flows); lo += chunk {
				hi := lo + chunk
				if hi > len(flows) {
					hi = len(flows)
				}
				p.ClassifyBatch(flows[lo:hi], got[lo:hi])
			}
			for i := range flows {
				if got[i] != want[i] {
					t.Fatalf("chunk=%d flow %d: batch %+v, per-flow %+v", chunk, i, got[i], want[i])
				}
			}
		}
	})
}

// TestClassifyBatchShortBufferPanics: a verdict buffer shorter than the
// batch is a programming error, reported loudly rather than truncated.
func TestClassifyBatchShortBufferPanics(t *testing.T) {
	p := testPipeline(t, Options{})
	flows := checkpointFlows()
	defer func() {
		if recover() == nil {
			t.Fatal("ClassifyBatch accepted a short verdict buffer")
		}
	}()
	p.ClassifyBatch(flows, make([]Verdict, len(flows)-1))
}

// TestPipelineMatchesReference checks the compiled classifier against the
// reference Figure 3 classifier (reference_test.go), which answers every
// test from the pipeline's inputs instead of its compiled indexes: every
// flow of the end-to-end scenario must get the identical verdict.
func TestPipelineMatchesReference(t *testing.T) {
	s, p, flows, _ := buildEndToEnd(t)
	ref := newRefClassifier(scenarioRIB(t, s), scenarioMembers(s), p)
	classes := assertMatchesReference(t, p, ref, flows)
	// The scenario must exercise every branch of the sequence, or agreement
	// proves little.
	for _, c := range []Class{ClassValid, ClassBogon, ClassUnrouted, ClassInvalid} {
		if classes[c] == 0 {
			t.Errorf("scenario has no %v flows", c)
		}
	}
}

// TestPipelineMatchesReferenceOnBogonOverlap covers what the scenario never
// announces: routed prefixes equal to a bogon prefix (10.0.0.0/8), nested
// inside one (192.168.1.0/24), and covering one (172.0.0.0/8 around
// 172.16.0.0/12). Figure 3 tests bogons first, so every source in bogon
// space must stay Bogon however the routed table overlaps it, while the
// rest of 172.0.0.0/8 is routed.
func TestPipelineMatchesReferenceOnBogonOverlap(t *testing.T) {
	s, base, flows, _ := buildEndToEnd(t)
	rib := scenarioRIB(t, s)
	path := rib.Announcements()[0].Path
	for _, pfx := range []string{"10.0.0.0/8", "192.168.1.0/24", "172.0.0.0/8"} {
		rib.AddAnnouncement(netx.MustParsePrefix(pfx), path)
	}
	members := scenarioMembers(s)
	p, err := NewPipeline(rib, members, Options{Orgs: s.Orgs().MultiASGroups(), Routers: base.routers})
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefClassifier(rib, members, p)
	for _, src := range []struct {
		addr  string
		bogon bool // else routed: valid or invalid depending on the member
	}{
		{"10.1.2.3", true}, {"192.168.1.7", true}, {"192.168.2.7", true},
		{"172.16.5.5", true}, {"172.1.0.1", false},
	} {
		for _, m := range members {
			f := ipfix.Flow{Start: cpStart, SrcAddr: netx.MustParseAddr(src.addr), Packets: 1, Bytes: 60, Ingress: m.Port}
			if c := ref.classify(f).Class; (c == ClassBogon) != src.bogon || c == ClassUnrouted {
				t.Fatalf("reference classifies %s from port %d as %v (bogon expected: %v)", src.addr, m.Port, c, src.bogon)
			}
			flows = append(flows, f)
		}
	}
	assertMatchesReference(t, p, ref, flows)
}

// assertMatchesReference requires p and ref to agree on every flow and
// returns the reference's class counts.
func assertMatchesReference(t *testing.T, p *Pipeline, ref *refClassifier, flows []ipfix.Flow) map[Class]int {
	t.Helper()
	classes := map[Class]int{}
	for i, f := range flows {
		got, want := p.Classify(f), ref.classify(f)
		if got != want {
			t.Fatalf("flow %d (src %v port %d): pipeline %+v, reference %+v",
				i, f.SrcAddr, f.Ingress, got, want)
		}
		classes[want.Class]++
	}
	return classes
}

// TestBatchCheckpointMatchesReference closes the equivalence loop at the
// checkpoint codec: an Aggregator fed flow by flow from reference verdicts
// and the batched parallel drain (ClassifyBatch throughout) over the same
// flows must encode to byte-identical canonical checkpoints.
func TestBatchCheckpointMatchesReference(t *testing.T) {
	s, p, flows, _ := buildEndToEnd(t)
	ref := newRefClassifier(scenarioRIB(t, s), scenarioMembers(s), p)
	agg := NewAggregator(cpStart, time.Hour)
	for _, f := range flows {
		agg.Add(f, ref.classify(f))
	}
	want := encodeAgg(t, &Checkpoint{Agg: agg})

	path := filepath.Join(t.TempDir(), "par.ckpt")
	runParallel(t, p, flows, 4, path)
	cp, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeAgg(t, &Checkpoint{Agg: cp.Agg}); !bytes.Equal(want, got) {
		t.Fatal("batched parallel checkpoint differs from the reference per-flow aggregate")
	}
}

// TestBatchDrainLatencyHistogramNonEmpty: the classify-latency telemetry
// must survive the batch rollout — after a fully batched parallel drain the
// histogram holds samples (one flow-weighted sample per batch), in per-flow
// seconds, flushed from the worker shards at the merge barriers.
func TestBatchDrainLatencyHistogramNonEmpty(t *testing.T) {
	tel := obs.NewTelemetry()
	flows := telemetryFlows(1000)
	rt, err := NewRuntime(RuntimeConfig{
		Pipeline: testPipeline(t, Options{}),
		Start:    cpStart, Bucket: time.Hour,
		Queue:     unboundedQueue(len(flows)),
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		rt.Ingest(f)
	}
	rt.Close()
	if err := rt.RunParallel(nil, 4, nil); err != nil {
		t.Fatal(err)
	}
	snap, ok := tel.Metrics.FindHistogram(MetricClassifyDuration)
	if !ok {
		t.Fatal("classify-duration histogram not registered")
	}
	// One sample per drained batch: at least one (1000 flows were drained),
	// at most one per flow (the degenerate every-batch-holds-one-flow drain).
	if snap.Count == 0 || snap.Count > uint64(len(flows)) {
		t.Fatalf("latency samples: got %d, want in (0, %d]", snap.Count, len(flows))
	}
	if snap.Sum <= 0 {
		t.Fatalf("latency sum: got %v, want > 0", snap.Sum)
	}
}
