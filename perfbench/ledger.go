package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"spoofscope/internal/cluster"
	"spoofscope/internal/core"
	"spoofscope/internal/ipfix"
)

// stageReps is how many times each isolated stage pass runs; the ledger
// keeps the median.
const stageReps = 3

// stages are the traced run's isolated passes over the workload's own
// inputs, one per layer that otherwise runs hidden inside Run.
type stages struct {
	decodeNs, decodeAllocs float64       // ipfix: FileReader over the wire image
	classifyNs             float64       // core pipeline: ClassifyBatch, 256-flow batches
	addNs, addAllocs       float64       // core aggregate: AddBatch into a fresh aggregator
	merge                  time.Duration // core aggregate: Merge of the per-shard aggregates
	drainNs, drainPar1Ns   float64       // core runtime: Run(nil) / RunParallel(1) over a pre-filled queue
	encode, decode         time.Duration // core checkpoint codec
	encodeAllocs           float64
	ckptBytes              int
	faninSrcs              int // distinct sources across every fan-in destination
}

// measure runs fn stageReps times, each under one span named name, and
// returns the median wall time and the median allocation count of one
// run. fn receives its span, the parent of any spans it records.
func measure(tr *tracer, name uint8, fn func(span int32)) (time.Duration, float64) {
	ds := make([]time.Duration, stageReps)
	allocs := make([]float64, stageReps)
	for i := range ds {
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t := time.Now()
		span := tr.open(name, -1, int32(i), t)
		fn(span)
		end := time.Now()
		tr.close(span, end)
		ds[i] = end.Sub(t)
		runtime.ReadMemStats(&ms1)
		allocs[i] = float64(ms1.Mallocs - ms0.Mallocs)
	}
	return medianDur(ds), median(allocs)
}

// batches calls fn for every 256-flow batch [lo, hi) of n flows, under a
// span named name per batch.
func batches(tr *tracer, name uint8, parent int32, n int, fn func(lo, hi int)) {
	for lo := 0; lo < n; lo += core.ClassifyBatchSize {
		hi := min(lo+core.ClassifyBatchSize, n)
		t := time.Now()
		fn(lo, hi)
		tr.add(name, parent, -1, int32(lo/core.ClassifyBatchSize), t, time.Now())
	}
}

func runStages(in *Inputs, sys *single, wire []byte, flows []ipfix.Flow, h *harness, tr *tracer) (*stages, error) {
	st := &stages{}
	n := float64(len(flows))
	perFlow := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / n }

	var decodeErr error
	d, a := measure(tr, spanStageDecode, func(int32) {
		fr := ipfix.NewFileReader(bytes.NewReader(wire))
		decodeErr = fr.ForEachBatch(func([]ipfix.Flow) bool { return true })
	})
	if decodeErr != nil {
		return nil, fmt.Errorf("decode stage: %w", decodeErr)
	}
	st.decodeNs, st.decodeAllocs = perFlow(d), a/n

	verdicts := make([]core.Verdict, len(flows))
	d, _ = measure(tr, spanStageClassify, func(span int32) {
		batches(tr, spanClassifyBatch, span, len(flows), func(lo, hi int) {
			sys.pipeline.ClassifyBatch(flows[lo:hi], verdicts[lo:hi])
		})
	})
	st.classifyNs = perFlow(d)

	var agg *core.Aggregator
	d, a = measure(tr, spanStageAdd, func(span int32) {
		agg = core.NewAggregator(in.Start, in.Bucket)
		batches(tr, spanAddBatch, span, len(flows), func(lo, hi int) {
			agg.AddBatch(flows[lo:hi], verdicts[lo:hi])
		})
	})
	st.addNs, st.addAllocs = perFlow(d), a/n
	for _, m := range agg.FanIn {
		for _, ds := range m {
			st.faninSrcs += ds.SrcCount()
		}
	}

	// The cluster's shard split: one aggregate per ingress-member shard,
	// folded the way Coordinator.Checkpoint folds worker reports.
	shards := make([]*core.Aggregator, clusterShards)
	for i := range shards {
		shards[i] = core.NewAggregator(in.Start, in.Bucket)
	}
	for i, f := range flows {
		shards[cluster.ShardOf(f.Ingress, clusterShards)].Add(f, verdicts[i])
	}
	d, _ = measure(tr, spanStageMerge, func(span int32) {
		merged := core.NewAggregator(in.Start, in.Bucket)
		for i, s := range shards {
			t := time.Now()
			merged.Merge(s)
			tr.add(spanMerge, span, -1, int32(i), t, time.Now())
		}
	})
	st.merge = d

	drain := func(parallel bool) (time.Duration, *core.Runtime, error) {
		ds := make([]time.Duration, stageReps)
		var rt *core.Runtime
		for i := range ds {
			rt = nil
			runtime.GC()
			var err error
			rt, err = newRuntime(in, sys, core.QueueConfig{Capacity: len(flows)}, nil)
			if err != nil {
				return 0, nil, err
			}
			for lo := 0; lo < len(flows); lo += ipfixRecordsPerMsg {
				rt.IngestBatchWait(flows[lo:min(lo+ipfixRecordsPerMsg, len(flows))])
			}
			rt.Close()
			name, t := spanStageDrain, time.Now()
			if parallel {
				name = spanStageDrainPar1
				err = rt.RunParallel(context.Background(), 1, nil)
			} else {
				err = rt.Run(context.Background(), nil)
			}
			end := time.Now()
			tr.add(name, -1, int32(i), -1, t, end)
			ds[i] = end.Sub(t)
			if err != nil {
				return 0, nil, fmt.Errorf("drain stage: %w", err)
			}
		}
		return medianDur(ds), rt, nil
	}
	d, _, err := drain(true)
	if err != nil {
		return nil, err
	}
	st.drainPar1Ns = perFlow(d)
	d, rt, err := drain(false)
	if err != nil {
		return nil, err
	}
	st.drainNs = perFlow(d)

	// The drained runtime's snapshot, decoded once, is what both codec
	// stages work on.
	h.ckpt.Reset()
	if err := rt.WriteCheckpoint(h.ckpt); err != nil {
		return nil, fmt.Errorf("encode stage: %w", err)
	}
	cp, err := core.DecodeCheckpoint(bytes.NewReader(h.ckpt.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("decode stage: %w", err)
	}
	var codecErr error
	d, a = measure(tr, spanStageEncode, func(int32) {
		h.ckpt.Reset()
		codecErr = core.EncodeCheckpoint(h.ckpt, cp)
	})
	if codecErr != nil {
		return nil, fmt.Errorf("encode stage: %w", codecErr)
	}
	st.encode, st.encodeAllocs, st.ckptBytes = d, a, h.ckpt.Len()
	d, _ = measure(tr, spanStageDecodeCkpt, func(int32) {
		_, codecErr = core.DecodeCheckpoint(bytes.NewReader(h.ckpt.Bytes()))
	})
	if codecErr != nil {
		return nil, fmt.Errorf("decode stage: %w", codecErr)
	}
	st.decode = d
	return st, nil
}
