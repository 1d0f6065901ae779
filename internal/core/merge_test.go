package core

import (
	"bytes"
	"testing"
	"time"
)

// Merge's algebraic properties underpin both RunParallel (shard merge
// order is scheduler-dependent) and checkpoint resume (a resumed run is a
// merge of restored state and replayed tail). The canonical checkpoint
// encoding is the equality oracle: two aggregators are equal iff they
// encode to identical bytes.
//
// Merge deep-adds and never adopts its argument's containers, so a merged
// shard can be Reset and refilled (the parallel consumers reuse one shard
// per worker this way); the caps (fanInCap, InvalidOrigins) stay unreached,
// as order-independence only holds below them.

// mergeShards builds per-shard aggregators over a fixed partition of the
// checkpoint flow set, classifies with p, and merges them in the given
// order.
func mergeShards(t *testing.T, p *Pipeline, order []int) *Aggregator {
	t.Helper()
	flows := checkpointFlows()
	bounds := [][2]int{{0, 2}, {2, 4}, {4, len(flows)}}
	shards := make([]*Aggregator, len(bounds))
	for i, b := range bounds {
		shards[i] = NewAggregator(cpStart, time.Hour)
		for _, f := range flows[b[0]:b[1]] {
			shards[i].Add(f, p.Classify(f))
		}
	}
	dst := NewAggregator(cpStart, time.Hour)
	for _, i := range order {
		dst.Merge(shards[i])
	}
	return dst
}

func TestMergeOrderIndependent(t *testing.T) {
	p := testPipeline(t, Options{})
	want := encodeAgg(t, &Checkpoint{Agg: mergeShards(t, p, []int{0, 1, 2})})
	for _, order := range [][]int{
		{0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0},
	} {
		got := encodeAgg(t, &Checkpoint{Agg: mergeShards(t, p, order)})
		if !bytes.Equal(want, got) {
			t.Fatalf("merge order %v produced different state", order)
		}
	}
}

func TestMergeMatchesSequential(t *testing.T) {
	p := testPipeline(t, Options{})
	seq := NewAggregator(cpStart, time.Hour)
	for _, f := range checkpointFlows() {
		seq.Add(f, p.Classify(f))
	}
	want := encodeAgg(t, &Checkpoint{Agg: seq})
	got := encodeAgg(t, &Checkpoint{Agg: mergeShards(t, p, []int{0, 1, 2})})
	if !bytes.Equal(want, got) {
		t.Fatal("sharded merge diverged from sequential aggregation")
	}
}

func TestMergeEmptyIsIdentity(t *testing.T) {
	p := testPipeline(t, Options{})

	// a.Merge(empty) leaves a unchanged.
	a := mergeShards(t, p, []int{0, 1, 2})
	want := encodeAgg(t, &Checkpoint{Agg: a})
	a.Merge(NewAggregator(cpStart, time.Hour))
	if got := encodeAgg(t, &Checkpoint{Agg: a}); !bytes.Equal(want, got) {
		t.Fatal("merging an empty aggregator changed the state")
	}

	// empty.Merge(a) equals a.
	empty := NewAggregator(cpStart, time.Hour)
	empty.Merge(mergeShards(t, p, []int{0, 1, 2}))
	if got := encodeAgg(t, &Checkpoint{Agg: empty}); !bytes.Equal(want, got) {
		t.Fatal("merging into an empty aggregator diverged from the source")
	}
}

// TestMergeResetReuse is the contract the parallel consumers rely on: a
// shard that has been merged, Reset, and refilled behaves exactly like a
// fresh one — including key-presence in the canonical encoding (a Reset
// must not leak present-but-empty containers through a later Merge).
func TestMergeResetReuse(t *testing.T) {
	p := testPipeline(t, Options{})
	flows := checkpointFlows()

	// Reference: two fresh shards merged.
	ref := NewAggregator(cpStart, time.Hour)
	for _, half := range [][2]int{{0, 3}, {3, len(flows)}} {
		shard := NewAggregator(cpStart, time.Hour)
		for _, f := range flows[half[0]:half[1]] {
			shard.Add(f, p.Classify(f))
		}
		ref.Merge(shard)
	}
	want := encodeAgg(t, &Checkpoint{Agg: ref})

	// Same flows through ONE shard, merged + Reset between halves.
	dst := NewAggregator(cpStart, time.Hour)
	shard := NewAggregator(cpStart, time.Hour)
	for _, half := range [][2]int{{0, 3}, {3, len(flows)}} {
		for _, f := range flows[half[0]:half[1]] {
			shard.Add(f, p.Classify(f))
		}
		dst.Merge(shard)
		shard.Reset()
	}
	if got := encodeAgg(t, &Checkpoint{Agg: dst}); !bytes.Equal(want, got) {
		t.Fatal("reused shard diverged from fresh shards")
	}

	// A Reset shard merged again must be a no-op (no phantom keys).
	dst.Merge(shard)
	if got := encodeAgg(t, &Checkpoint{Agg: dst}); !bytes.Equal(want, got) {
		t.Fatal("merging a Reset shard changed the state")
	}
}
