package main

import (
	"fmt"
	"time"

	"spoofscope/internal/core"
)

// totals sums the passes' counters.
type totals struct {
	offered, passes, barriers    int
	failed, skipped              int
	shed, ingested               uint64
	hwm                          int
	push, elapsed, gcPause       time.Duration
	gcCycles                     uint32
	mallocs, allocBytes, retries uint64
	wireDown, wireUp             int64
	lags                         []float64
}

func sum(ps []*pass) totals {
	var t totals
	for _, p := range ps {
		t.passes++
		t.offered += p.offered
		t.failed += p.offered - int(p.processed)
		t.skipped += p.skipped
		t.shed += p.queue.Shed
		t.ingested += p.queue.Ingested
		t.hwm = max(t.hwm, p.queue.HighWatermarkObserved)
		t.push += p.pushTime
		t.elapsed += p.elapsed
		t.gcPause += p.gcPause
		t.gcCycles += p.gcCycles
		t.mallocs += p.mallocs
		t.allocBytes += p.allocBytes
		t.retries += p.retries
		t.wireDown += p.wireDown
		t.wireUp += p.wireUp
		t.barriers += len(p.barriers)
		t.lags = append(t.lags, p.lags...)
	}
	return t
}

func medianElapsed(ps []*pass) time.Duration {
	ds := make([]time.Duration, len(ps))
	for i, p := range ps {
		ds[i] = p.elapsed
	}
	return medianDur(ds)
}

// layers runs the isolated stage passes and reduces them, with the
// workload's own passes, to the per-layer metrics. sources names, for each
// metric, what measured it.
func (r *runner) layers(ref *reference) (map[string]metric, map[string]string, error) {
	if r.sys == nil {
		// The cluster workload compiles its pipelines inside the worker;
		// the stage passes need one of their own.
		for i := 0; i < stageReps; i++ {
			sys, err := setupSingle(r.in)
			if err != nil {
				return nil, nil, err
			}
			r.sys = sys
			r.builds = append(r.builds, sys.build)
		}
	}
	flows, err := decodeWire(r.wire)
	if err != nil {
		return nil, nil, err
	}
	st, err := runStages(r.in, r.sys, r.wire, flows, r.h, r.tr)
	if err != nil {
		return nil, nil, err
	}
	own := sum(r.traced)
	every := sum(r.passes())
	n := float64(r.nflows)
	out := newMetricSet(perLayerUnits)
	src := map[string]string{}
	set := func(name string, v float64, from string) {
		out.set(name, v)
		src[name] = from
	}
	const (
		fromSpans  = "spans of the workload's traced passes"
		fromPasses = "the workload's passes"
		fromStage  = "isolated stage pass over the workload's inputs"
		fromOpen   = "live-flood stage pass: the open loop over this seed's flood image"
		fromClust  = "cluster-loopback stage pass over the workload's inputs"
		fromSetup  = "the run's setups"
		fromRef    = "reference Pipeline.Classify pass"
	)

	// Open-loop and cluster facts come from the workload itself when it is
	// that workload, else from one stage pass of it: the live-flood pass
	// over this seed's flood image (so the shed path and the fan-in inserts
	// are measured on every workload), the cluster pass over the
	// workload's own flows.
	open, clust := own, own
	openFrom, clustFrom := fromPasses, fromPasses
	if r.workload != wLiveFlood {
		p, err := r.floodStage()
		if err != nil {
			return nil, nil, fmt.Errorf("live-flood stage: %w", err)
		}
		open, openFrom = sum([]*pass{p}), fromOpen
	}
	if r.workload != wCluster {
		p, err := clusterPass(r.in, flows, r.h, nil, -1)
		if err != nil {
			return nil, nil, fmt.Errorf("cluster stage: %w", err)
		}
		if err := check(p, ref, false); err != nil {
			return nil, nil, fmt.Errorf("cluster stage: %w", err)
		}
		r.epochs = append(r.epochs, p.epoch)
		clust, clustFrom = sum([]*pass{p}), fromClust
	}

	// ipfix
	if r.workload == wCluster {
		set("ipfix.decode_ns_per_flow", st.decodeNs, fromStage)
	} else {
		self, _ := r.tr.selfTimes()
		set("ipfix.decode_ns_per_flow", float64(self[spanDecode])/float64(own.offered), fromSpans)
	}
	set("ipfix.decode_allocs_per_flow", st.decodeAllocs, fromStage)
	set("ipfix.skipped_msgs", float64(every.skipped), fromPasses)

	// core queue: the producer's side of the hand-off. On the cluster the
	// hand-off is Coordinator.Ingest.
	set("core.queue.push_ns_per_flow", float64(own.push)/float64(own.offered), fromSpans)
	set("core.queue.producer_wait_share", float64(own.push)/float64(own.elapsed), fromSpans)
	q, qFrom := every, fromPasses
	if r.workload == wCluster {
		q, qFrom = open, openFrom
	}
	set("core.queue.shed_share", float64(q.shed)/float64(q.ingested), qFrom)
	set("core.queue.depth_hwm", float64(q.hwm), qFrom)

	// core runtime, pipeline, aggregate, checkpoint
	set("core.runtime.drain_ns_per_flow", st.drainNs, fromStage)
	set("core.runtime.drain_par1_ns_per_flow", st.drainPar1Ns, fromStage)
	set("core.pipeline.classify_ns_per_flow", st.classifyNs, fromStage)
	for name, c := range map[string]core.TrafficClass{
		"bogon": core.TCBogon, "unrouted": core.TCUnrouted,
		"invalid_full": core.TCInvalidFull, "valid": core.TCRegular,
	} {
		set("core.pipeline.share."+name, float64(ref.totals[c].Flows)/float64(ref.flows), fromRef)
	}
	set("core.aggregate.add_ns_per_flow", st.addNs, fromStage)
	set("core.aggregate.allocs_per_flow", st.addAllocs, fromStage)
	set("core.aggregate.merge_ms", ms(st.merge), fromStage)
	set("core.aggregate.fanin_srcs", float64(st.faninSrcs), fromStage)
	set("core.checkpoint.encode_ms", ms(st.encode), fromStage)
	set("core.checkpoint.decode_ms", ms(st.decode), fromStage)
	set("core.checkpoint.bytes", float64(st.ckptBytes), fromStage)
	set("core.checkpoint.encode_allocs", st.encodeAllocs, fromStage)

	// setup layers
	set("bgp.mrt_load_ms", ms(medianDur(r.mrtLoads)), fromSetup)
	set("core.build.cold_ms", ms(medianDur(r.builds)), fromSetup)

	// cluster
	co := float64(clust.offered)
	set("cluster.ingest_ns_per_flow", float64(clust.push)/co, clustFrom)
	set("cluster.allocs_per_flow", float64(clust.mallocs)/co, clustFrom)
	set("cluster.alloc_bytes_per_flow", float64(clust.allocBytes)/co, clustFrom)
	set("cluster.flow_wire_bytes_per_flow", float64(clust.wireDown)/co, clustFrom)
	set("cluster.report_wire_bytes_per_barrier", float64(clust.wireUp)/float64(clust.barriers), clustFrom)
	set("cluster.epoch_ms", ms(medianDur(r.epochs)), clustFrom)
	set("cluster.retries", float64(clust.retries), clustFrom)

	// process-wide
	set("gc.cycles", float64(own.gcCycles)/float64(own.passes), fromPasses)
	set("gc.pause_ms", ms(own.gcPause)/float64(own.passes), fromPasses)
	set("generator.lag_p99_us", quantile(open.lags, 0.99), openFrom)
	set("failed_share", float64(every.failed)/float64(every.offered), fromPasses)
	untraced := medianElapsed(r.untraced)
	set("trace.overhead_pct", (float64(medianElapsed(r.traced))/float64(untraced)-1)*100, fromPasses)

	// ledger.gap_pct: the measured pass time against the estimate the
	// stage costs give for the workload's critical path.
	var est float64 // ns
	switch r.workload {
	case wFileReplay:
		// Producer (decode + push) and consumer (drain) overlap on two
		// cores; checkpoint encode follows both.
		est = n*max(st.decodeNs, st.drainNs) + float64(st.encode)
	case wLiveFlood:
		est = max(n*1e9/liveRate, n*max(st.decodeNs, st.drainPar1Ns)) + float64(st.encode)
	case wCluster:
		// Coordinator ingest overlaps the worker's drain; each barrier
		// encodes the shard reports, decodes and merges them.
		est = n*max(float64(own.push)/float64(own.offered), st.drainPar1Ns) +
			clusterBarriers*float64(st.encode+st.decode+st.merge)
	}
	set("ledger.gap_pct", (float64(untraced)-est)/float64(untraced)*100, "untraced passes against the stage costs")
	m, err := out.complete()
	return m, src, err
}

// floodStage runs one live-flood pass over the seed's flood image and
// checks it against its own reference.
func (r *runner) floodStage() (*pass, error) {
	wm, err := splitWire(r.in.FloodWire)
	if err != nil {
		return nil, err
	}
	flows, err := decodeWire(r.in.FloodWire)
	if err != nil {
		return nil, err
	}
	ref := referenceTotals(r.in, r.sys.pipeline, flows)
	p, err := livePass(r.in, r.sys, wm, keysOf(flows), r.h, nil, -1)
	if err != nil {
		return nil, err
	}
	return p, check(p, ref, false)
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
