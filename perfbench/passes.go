package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"spoofscope/internal/core"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/obs"
)

// pass is what one workload pass measured and produced.
type pass struct {
	offered   int
	processed uint64
	skipped   int // records (file-replay) or messages (live-flood) decode skipped
	queue     core.QueueStats

	elapsed  time.Duration // first byte read / first Ingest → result durable
	pushTime time.Duration // inside IngestBatchWait / IngestBatch / Coordinator.Ingest
	barriers []time.Duration
	verdicts []float64 // µs, one per IPFIX message (or 25-flow group)
	lags     []float64 // µs, how late the open-loop generator sent each message

	ckpt   [sha256.Size]byte // digest of the pass's checkpoint bytes
	totals []core.Counter

	heapMB              float64
	gcCycles            uint32
	gcPause             time.Duration
	mallocs, allocBytes uint64

	// Cluster only.
	setup, epoch, mrtLoad time.Duration
	wireDown, wireUp      int64 // coordinator→worker, worker→coordinator bytes
	retries               uint64
}

// harness holds the benchmark's own reusable buffers, allocated before the
// heap baseline so they never count as the system's memory.
type harness struct {
	ckpt     *bytes.Buffer
	baseHeap uint64
	kept     uint64 // bytes of samples the run keeps from finished passes
}

func newHarness() *harness {
	h := &harness{ckpt: new(bytes.Buffer)}
	h.ckpt.Grow(64 << 20)
	h.baseHeap = liveHeap()
	return h
}

// liveHeap is the post-GC live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// window records the allocation and GC deltas since ms0, the start of the
// pass's timed window.
func (p *pass) window(ms0 *runtime.MemStats) {
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	p.gcCycles = ms1.NumGC - ms0.NumGC
	p.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
}

// finish digests the pass's checkpoint bytes and measures the live heap;
// the caller still references the system, so it is all counted. The
// latency samples the run keeps are the benchmark's, not the system's, and
// are subtracted.
func (h *harness) finish(p *pass) {
	p.ckpt = sha256.Sum256(h.ckpt.Bytes())
	h.kept += 8 * uint64(cap(p.verdicts)+cap(p.lags)+cap(p.barriers))
	p.heapMB = (float64(liveHeap()) - float64(h.baseHeap) - float64(h.kept)) / (1 << 20)
}

func newRuntime(in *Inputs, sys *single, q core.QueueConfig, tel *obs.Telemetry) (*core.Runtime, error) {
	rt, err := core.NewRuntime(core.RuntimeConfig{Pipeline: sys.pipeline, Start: in.Start,
		Bucket: in.Bucket, Queue: q, Telemetry: tel})
	if err != nil {
		return nil, fmt.Errorf("starting runtime: %w", err)
	}
	return rt, nil
}

// filePass is cmd/classify's job: the wire image read with
// FileReader.ForEachBatch, pushed with backpressure, drained by Run(nil),
// and finished with WriteCheckpoint. A message's verdict is delivered with
// the checkpoint, so its latency runs from when the reader started on it
// until the checkpoint bytes are written.
func filePass(in *Inputs, sys *single, nflows int, h *harness, tr *tracer, id int32) (*pass, error) {
	rt, err := newRuntime(in, sys, core.QueueConfig{Capacity: queueCapacity}, nil)
	if err != nil {
		return nil, err
	}
	done := make(chan error, 1)
	go func() { done <- rt.Run(context.Background(), nil) }()
	p := &pass{offered: nflows}
	offers := make([]time.Time, 0, nflows/ipfixRecordsPerMsg+1)
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	t0 := time.Now()
	ps := tr.open(spanPass, -1, id, t0)
	fr := ipfix.NewFileReader(bytes.NewReader(in.Wire))
	last := t0
	readErr := fr.ForEachBatch(func(b []ipfix.Flow) bool {
		decoded := time.Now()
		k := int32(len(offers))
		offers = append(offers, last)
		tr.add(spanDecode, ps, id, k, last, decoded)
		ok := rt.IngestBatchWait(b)
		last = time.Now()
		p.pushTime += last.Sub(decoded)
		tr.add(spanPush, ps, id, k, decoded, last)
		return ok
	})
	rt.Close()
	closed := time.Now()
	runErr := <-done
	drained := time.Now()
	tr.add(spanDrain, ps, id, -1, closed, drained)
	if readErr != nil {
		return nil, fmt.Errorf("reading IPFIX image: %w", readErr)
	}
	if runErr != nil {
		return nil, fmt.Errorf("runtime drain: %w", runErr)
	}
	h.ckpt.Reset()
	if err := rt.WriteCheckpoint(h.ckpt); err != nil {
		return nil, fmt.Errorf("writing checkpoint: %w", err)
	}
	durable := time.Now()
	tr.add(spanEncode, ps, id, -1, drained, durable)
	tr.close(ps, durable)
	p.window(&ms0)

	p.elapsed = durable.Sub(t0)
	p.barriers = []time.Duration{durable.Sub(drained)}
	p.verdicts = make([]float64, len(offers))
	for k, o := range offers {
		p.verdicts[k] = float64(durable.Sub(o)) / 1e3
	}
	st := rt.Stats()
	p.processed, p.queue = st.Processed, st.Queue
	p.skipped = fr.CollectorStats().RecordsSkipped
	p.totals = rt.ClassTotals()
	h.finish(p)
	runtime.KeepAlive(rt)
	return p, nil
}

const ipfixRecordsPerMsg = 25

// wireMsgs is an IPFIX image split into its messages, with the cumulative
// flow count after each one.
type wireMsgs struct {
	msgs [][]byte
	ends []int
}

func splitWire(wire []byte) (*wireMsgs, error) {
	w := &wireMsgs{}
	dec := ipfix.NewDecoder()
	var buf []ipfix.Flow
	total := 0
	for off := 0; off < len(wire); {
		if len(wire)-off < 4 {
			return nil, fmt.Errorf("truncated IPFIX image at byte %d", off)
		}
		n := int(wire[off+2])<<8 | int(wire[off+3])
		if n < 16 || off+n > len(wire) {
			return nil, fmt.Errorf("bad IPFIX message length %d at byte %d", n, off)
		}
		msg := wire[off : off+n]
		var err error
		if buf, err = dec.AppendFlows(msg, buf[:0]); err != nil {
			return nil, fmt.Errorf("decoding generated message: %w", err)
		}
		total += len(buf)
		w.msgs = append(w.msgs, msg)
		w.ends = append(w.ends, total)
		off += n
	}
	return w, nil
}

// liveRate is the live-flood workload's fixed offered rate.
const liveRate = 500_000 // flows/s

// liveQueueCapacity buffers ~130ms of offered load. With 8192 slots (12ms)
// a drain stall at an idle-edge merge or a host preemption shed flows in
// some runs; with this queue the stall shows in the latency tail instead,
// and any flow still shed counts as failed.
const liveQueueCapacity = 1 << 16

// livePass is the open loop: one generator decodes each message with
// Decoder.AppendFlows and hands it to the shedding IngestBatch on a fixed
// schedule, while RunParallel(1) drains with an observer that stamps the
// verdict of each message's last flow. Latency runs from the message's
// scheduled send time, so a late generator counts against it. The pass
// ends with a WriteCheckpoint, which is also the checked output.
func livePass(in *Inputs, sys *single, wm *wireMsgs, keys []flowKey, h *harness, tr *tracer, id int32) (*pass, error) {
	tel := obs.NewTelemetry()
	rt, err := newRuntime(in, sys, core.QueueConfig{Capacity: liveQueueCapacity, ShedSeed: in.Seed}, tel)
	if err != nil {
		return nil, err
	}
	nm := len(wm.msgs)
	due := make([]time.Duration, nm)
	for k := 1; k < nm; k++ {
		due[k] = time.Duration(float64(wm.ends[k-1]) * 1e9 / liveRate)
	}
	stamp := make([]time.Time, nm)
	p := &pass{offered: len(keys), lags: make([]float64, 0, nm)}

	// The observer walks the offered flows in step with the FIFO drain;
	// a flow it does not see was shed, and is skipped. It reads the clock
	// once per message, when the message's last flow is delivered.
	next, m := 0, 0
	observe := func(f ipfix.Flow, _ core.LiveVerdict) bool {
		k := keyOf(&f)
		for next < len(keys) && keys[next] != k {
			next++
		}
		next++
		if m < nm && wm.ends[m] <= next {
			now := time.Now()
			for ; m < nm && wm.ends[m] <= next; m++ {
				stamp[m] = now
			}
		}
		return true
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now().Add(time.Millisecond)
	done := make(chan error, 1)
	go func() { done <- rt.RunParallel(context.Background(), 1, observe) }()

	ps := tr.open(spanPass, -1, id, t0)
	dec := ipfix.NewDecoder()
	buf := make([]ipfix.Flow, 0, 64)
	for k, msg := range wm.msgs {
		at := t0.Add(due[k])
		now := time.Now()
		for now.Before(at) {
			// Yield while waiting: on a two-core host the drain may then
			// run on either core instead of being pinned to the one the
			// generator leaves free. Any lateness this causes is counted.
			runtime.Gosched()
			now = time.Now()
		}
		p.lags = append(p.lags, float64(now.Sub(at))/1e3)
		buf, err = dec.AppendFlows(msg, buf[:0])
		decoded := time.Now()
		tr.add(spanDecode, ps, id, int32(k), now, decoded)
		if err != nil {
			p.skipped++
			continue
		}
		if len(buf) > 0 {
			rt.IngestBatch(buf)
		}
		pushed := time.Now()
		p.pushTime += pushed.Sub(decoded)
		tr.add(spanPush, ps, id, int32(k), decoded, pushed)
	}
	rt.Close()
	closed := time.Now()
	runErr := <-done
	drained := time.Now()
	tr.add(spanDrain, ps, id, -1, closed, drained)
	if runErr != nil {
		return nil, fmt.Errorf("runtime drain: %w", runErr)
	}
	h.ckpt.Reset()
	if err := rt.WriteCheckpoint(h.ckpt); err != nil {
		return nil, fmt.Errorf("writing checkpoint: %w", err)
	}
	durable := time.Now()
	tr.add(spanEncode, ps, id, -1, drained, durable)
	tr.close(ps, durable)
	p.window(&ms0)

	p.elapsed = durable.Sub(t0)
	p.barriers = []time.Duration{durable.Sub(drained)}
	for k := range wm.msgs {
		if k > 0 && wm.ends[k] == wm.ends[k-1] || k == 0 && wm.ends[0] == 0 {
			continue // a template-only message carries no flows
		}
		s := stamp[k]
		if s.IsZero() {
			s = drained // its flows were shed after the last delivered one
		}
		p.verdicts = append(p.verdicts, float64(s.Sub(t0.Add(due[k])))/1e3)
	}
	st := rt.Stats()
	p.processed, p.queue = st.Processed, st.Queue
	p.totals = rt.ClassTotals()
	h.finish(p)
	runtime.KeepAlive(rt)
	return p, nil
}

// clusterPass brings up a fresh coordinator and worker, feeds the whole
// trace through Coordinator.Ingest with a Checkpoint barrier after every
// eighth, and tears the pair down. A 25-flow group's verdict is delivered
// by the barrier that merges it.
func clusterPass(in *Inputs, flows []ipfix.Flow, h *harness, tr *tracer, id int32) (*pass, error) {
	sys, err := setupCluster(in)
	if err != nil {
		return nil, err
	}
	defer sys.stop()
	p := &pass{offered: len(flows), setup: sys.setup, epoch: sys.epoch, mrtLoad: sys.mrtLoad}
	n := len(flows)
	offers := make([]time.Time, 0, n/ipfixRecordsPerMsg+clusterBarriers)
	down0, up0 := sys.down.Load(), sys.up.Load()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	t0 := time.Now()
	ps := tr.open(spanPass, -1, id, t0)
	var cp *core.Checkpoint
	durable := t0
	lo := 0
	for e := 0; e < clusterBarriers; e++ {
		hi := (e + 1) * n / clusterBarriers
		first := len(offers)
		for i := lo; i < hi; i++ {
			if (i-lo)%ipfixRecordsPerMsg == 0 {
				now := time.Now()
				if len(offers) > first {
					tr.add(spanIngest, ps, id, int32(len(offers)-1), offers[len(offers)-1], now)
				}
				offers = append(offers, now)
			}
			sys.coord.Ingest(flows[i])
		}
		fed := time.Now()
		if len(offers) > first {
			tr.add(spanIngest, ps, id, int32(len(offers)-1), offers[len(offers)-1], fed)
			p.pushTime += fed.Sub(offers[first])
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		cp, err = sys.coord.Checkpoint(ctx)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("barrier %d: %w", e, err)
		}
		durable = time.Now()
		tr.add(spanBarrier, ps, id, int32(e), fed, durable)
		p.barriers = append(p.barriers, durable.Sub(fed))
		for _, o := range offers[first:] {
			p.verdicts = append(p.verdicts, float64(durable.Sub(o))/1e3)
		}
		lo = hi
	}
	tr.close(ps, durable)
	p.window(&ms0)
	p.elapsed = durable.Sub(t0)
	p.wireDown = sys.down.Load() - down0
	p.wireUp = sys.up.Load() - up0

	st := sys.coord.Stats()
	p.retries = st.StaleReports + uint64(st.ReplayFlows) + st.Handoffs + st.Reclaims
	if st.FlowsRouted != uint64(n) {
		return nil, fmt.Errorf("coordinator routed %d flows, offered %d", st.FlowsRouted, n)
	}
	p.processed = cp.Processed
	// The coordinator never sheds: every routed flow is queued on its shard.
	p.queue = core.QueueStats{Ingested: st.FlowsRouted, Queued: cp.Queued}
	// A copy: a slice of the Total field would keep the whole merged
	// aggregate alive into later passes' heap measurements.
	p.totals = append([]core.Counter(nil), cp.Agg.Total[:]...)
	h.ckpt.Reset()
	if err := core.EncodeCheckpoint(h.ckpt, cp); err != nil {
		return nil, fmt.Errorf("encoding merged checkpoint: %w", err)
	}
	h.finish(p)
	return p, nil
}

// clusterBarriers is the number of Checkpoint barriers per pass, one after
// every eighth of the trace.
const clusterBarriers = 8
