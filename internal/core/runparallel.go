package core

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"spoofscope/internal/ipfix"
	"spoofscope/internal/obs"
)

// consumeBatchSize is how many flows a parallel worker drains per queue
// lock acquisition — the batch ClassifyBatch is tuned for. Large enough to
// amortize the lock to noise, small enough that a batch finishes in well
// under a millisecond — the window in which an in-flight batch can defer a
// quiescent checkpoint.
const consumeBatchSize = ClassifyBatchSize

// RunParallel consumes flows with `workers` concurrent consumers (default
// and cap: GOMAXPROCS) until the context is cancelled or the runtime is closed and
// drained. Each worker drains the ingest queue in batches (one lock
// acquisition per batch), classifies every flow of a batch against one
// epoch snapshot, and accumulates verdicts into a private aggregator — the
// hot path takes no shared lock. Private state merges into the canonical
// aggregate only at barriers: an epoch swap, the idle edge (queue found
// empty), and exit. Because Aggregator.Merge is order-independent, a
// drained parallel run's aggregate — and its canonical checkpoint encoding
// — is byte-identical to the sequential Step loop's over the same flows.
//
// Periodic checkpoints still require quiescence; in parallel mode they are
// taken at the first idle edge at which they are due, once every worker
// has merged (the checkpoint path refuses to run while any worker holds an
// unmerged batch, so the cursor can never outrun the aggregate).
//
// fn (optional) observes every flow and verdict; calls are serialized, but
// arrive in worker-completion order, not arrival order. Returning false
// stops consumption: intake is closed and workers exit after finishing
// their in-flight batches. Do not run RunParallel concurrently with Step,
// Run, or another RunParallel.
func (rt *Runtime) RunParallel(ctx context.Context, workers int, fn func(ipfix.Flow, LiveVerdict) bool) error {
	// Worker counts beyond GOMAXPROCS clamp: extra consumers cannot add CPU,
	// only queue-lock contention and merge overhead (the committed 1-CPU
	// benchmark baseline shows exactly this — unclamped parallel-2 measured
	// 849K flows/sec against the sequential loop's 1.02M).
	if max := runtime.GOMAXPROCS(0); workers <= 0 || workers > max {
		workers = max
	}
	if ctx != nil {
		stop := context.AfterFunc(ctx, rt.Close)
		defer stop()
	}
	var (
		stopped atomic.Bool
		observe func(ipfix.Flow, LiveVerdict)
	)
	if fn != nil {
		var fnMu sync.Mutex
		observe = func(f ipfix.Flow, lv LiveVerdict) {
			fnMu.Lock()
			defer fnMu.Unlock()
			if stopped.Load() {
				return
			}
			if !fn(f, lv) {
				stopped.Store(true)
				rt.Close()
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// Profiler labels distinguish the drain workers from the feed side
		// in CPU/goroutine profiles (`stage=merge` overrides at barriers).
		labels := pprof.Labels("worker", strconv.Itoa(w), "stage", "drain")
		go func() {
			defer wg.Done()
			pprof.Do(context.Background(), labels, func(context.Context) {
				rt.consumeShard(observe, &stopped)
			})
		}()
	}
	wg.Wait()
	if ctx != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return nil
}

// consumeShard is one parallel worker: batch pop, classify against the
// batch's epoch snapshot into a private aggregator, merge at barriers.
func (rt *Runtime) consumeShard(observe func(ipfix.Flow, LiveVerdict), stopped *atomic.Bool) {
	// start/bucket are immutable after the aggregator is built, so shard
	// aggregators can be created without rt.mu.
	start, bucket := rt.agg.start, rt.agg.bucket
	// buf and verdicts live for the whole worker and are reused every batch:
	// the steady-state drain loop allocates nothing per flow.
	buf := make([]ipfix.Flow, consumeBatchSize)
	verdicts := make([]Verdict, consumeBatchSize)
	var (
		// priv lives for the whole worker: Merge never adopts its containers,
		// so every barrier Resets it in place instead of allocating a fresh
		// aggregator (a dozen maps per flush adds up at epoch-swap rates).
		priv       = NewAggregator(start, bucket)
		privCount  uint64
		batchEpoch Epoch
		// latShard buffers this worker's sampled classify latencies off the
		// shared histogram; nil (telemetry off) makes Observe/Flush no-ops.
		latShard *obs.Shard
	)
	if rt.classifyHist != nil {
		latShard = rt.classifyHist.NewShard()
	}
	// flush merges the private shard into the canonical aggregate, then
	// Resets it for reuse — Merge deep-adds, so nothing escapes the shard.
	// Merges happen only at barriers (epoch swap, idle edge, exit), so the
	// pprof relabel is off the per-flow hot path.
	flush := func() {
		latShard.Flush()
		if privCount == 0 {
			return
		}
		pprof.Do(context.Background(), pprof.Labels("stage", "merge"), func(context.Context) {
			rt.mu.Lock()
			rt.agg.Merge(priv)
			rt.merged += privCount
			rt.mu.Unlock()
			priv.Reset()
			privCount = 0
		})
	}
	// tryCheckpoint attempts a due periodic snapshot. The fast atomic check
	// keeps the common case (not due) off rt.mu; checkpointLocked itself
	// re-verifies due-ness and quiescence, and defers while other workers
	// still hold unmerged batches.
	tryCheckpoint := func() {
		if rt.cfg.CheckpointEvery == 0 || rt.cfg.CheckpointPath == "" ||
			rt.processed.Load()-rt.ckptMark.Load() < rt.cfg.CheckpointEvery {
			return
		}
		rt.mu.Lock()
		if rt.checkpointDueLocked() {
			rt.checkpointLocked()
		}
		rt.mu.Unlock()
	}
	for !stopped.Load() {
		n := rt.queue.TryPopBatch(buf)
		if n == 0 {
			// Idle edge: surface everything buffered so the canonical
			// aggregate is current and a due checkpoint can find the run
			// quiescent, then park until more flows arrive.
			flush()
			tryCheckpoint()
			n = rt.queue.PopBatch(buf)
			if n == 0 {
				break // closed and drained
			}
		}
		<-rt.firstEpoch
		st := rt.state.Load()
		if privCount > 0 && st.epoch != batchEpoch {
			flush() // epoch barrier: pre-swap verdicts merge before new ones accumulate
		}
		batchEpoch = st.epoch
		// The whole batch classifies against one snapshot before any verdict
		// aggregates — degradation state is likewise read once per batch (it
		// only tags verdicts as stale; the aggregate ignores it).
		rt.classifyBatchTimed(st.pipeline, buf[:n], verdicts[:n], latShard.Observe)
		stale := rt.degraded.Load()
		priv.AddBatch(buf[:n], verdicts[:n])
		privCount += uint64(n)
		if observe != nil {
			for i := 0; i < n; i++ {
				observe(buf[i], LiveVerdict{Verdict: verdicts[i], Epoch: st.epoch, Stale: stale})
			}
		}
		if stale {
			rt.stale.Add(uint64(n))
		}
		rt.processed.Add(uint64(n))
	}
	flush()
	tryCheckpoint()
}
