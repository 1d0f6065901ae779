package core

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"
	"time"

	"spoofscope/internal/ipfix"
)

// unboundedQueue disables shedding for equivalence tests: the capacity holds
// every flow and the watermark sits at capacity, so Push never drops.
func unboundedQueue(n int) QueueConfig {
	return QueueConfig{Capacity: n + 1, HighWatermark: n + 1}
}

// runSequential feeds every flow and drains with the Step loop, then forces
// a final checkpoint and returns its bytes.
func runSequential(t *testing.T, p *Pipeline, flows []ipfix.Flow, path string) []byte {
	t.Helper()
	rt, err := NewRuntime(RuntimeConfig{
		Pipeline: p,
		Start:    cpStart, Bucket: time.Hour,
		Queue:          unboundedQueue(len(flows)),
		CheckpointPath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		if !rt.Ingest(f) {
			t.Fatal("ingest shed with shedding disabled")
		}
	}
	rt.Close()
	for {
		if _, _, ok := rt.Step(); !ok {
			break
		}
	}
	if err := rt.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return mustRead(t, path)
}

// runParallel does the same drain with the sharded consumer.
func runParallel(t *testing.T, p *Pipeline, flows []ipfix.Flow, workers int, path string) []byte {
	t.Helper()
	rt, err := NewRuntime(RuntimeConfig{
		Pipeline: p,
		Start:    cpStart, Bucket: time.Hour,
		Queue:          unboundedQueue(len(flows)),
		CheckpointPath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		if !rt.Ingest(f) {
			t.Fatal("ingest shed with shedding disabled")
		}
	}
	rt.Close()
	if err := rt.RunParallel(nil, workers, nil); err != nil {
		t.Fatal(err)
	}
	if err := rt.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return mustRead(t, path)
}

// TestRunParallelMatchesSequentialCheckpoint is the tentpole's determinism
// oracle: the sharded consumer's aggregate, encoded with the canonical
// checkpoint codec, must be byte-identical to the sequential Step loop's
// over the same flows — for any worker count.
func TestRunParallelMatchesSequentialCheckpoint(t *testing.T) {
	_, p, flows, _ := buildEndToEnd(t)
	dir := t.TempDir()
	ref := runSequential(t, p, flows, filepath.Join(dir, "seq.ckpt"))
	for _, workers := range []int{1, 2, 4, 7} {
		got := runParallel(t, p, flows, workers, filepath.Join(dir, "par.ckpt"))
		if !bytes.Equal(ref, got) {
			t.Fatalf("workers=%d: parallel checkpoint differs from sequential", workers)
		}
	}
}

// TestRunParallelObserverSeesEveryFlow: the serialized fn callback observes
// each flow exactly once, tagged with a live epoch.
func TestRunParallelObserverSeesEveryFlow(t *testing.T) {
	_, p, flows, _ := buildEndToEnd(t)
	rt, err := NewRuntime(RuntimeConfig{
		Pipeline: p,
		Start:    cpStart, Bucket: time.Hour,
		Queue: unboundedQueue(len(flows)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		rt.Ingest(f)
	}
	rt.Close()
	n := 0 // plain int: fn calls are serialized
	if err := rt.RunParallel(nil, 4, func(f ipfix.Flow, v LiveVerdict) bool {
		if v.Epoch != 1 || v.Stale {
			t.Errorf("verdict epoch/stale = %d/%v, want 1/false", v.Epoch, v.Stale)
		}
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != len(flows) {
		t.Fatalf("observed %d flows, want %d", n, len(flows))
	}
	if st := rt.Stats(); st.Processed != uint64(len(flows)) {
		t.Fatalf("processed = %d, want %d", st.Processed, len(flows))
	}
}

// TestRunParallelFnFalseStops: an fn that returns false closes intake and
// every worker exits after its in-flight batch.
func TestRunParallelFnFalseStops(t *testing.T) {
	_, p, flows, _ := buildEndToEnd(t)
	rt, err := NewRuntime(RuntimeConfig{
		Pipeline: p,
		Start:    cpStart, Bucket: time.Hour,
		Queue: unboundedQueue(len(flows)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		rt.Ingest(f)
	}
	n := 0
	done := make(chan error, 1)
	go func() {
		done <- rt.RunParallel(nil, 4, func(ipfix.Flow, LiveVerdict) bool {
			n++
			return n < 10
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunParallel did not stop after fn returned false")
	}
	if n < 10 {
		t.Fatalf("observed %d flows, want >= 10", n)
	}
}

// TestRunParallelContextCancel: cancelling the context closes intake, the
// workers drain what is queued, and the cancellation error surfaces.
func TestRunParallelContextCancel(t *testing.T) {
	_, p, flows, _ := buildEndToEnd(t)
	rt, err := NewRuntime(RuntimeConfig{
		Pipeline: p,
		Start:    cpStart, Bucket: time.Hour,
		Queue: unboundedQueue(len(flows)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		rt.Ingest(f)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := rt.RunParallel(ctx, 2, nil); err != context.Canceled {
		t.Fatalf("RunParallel returned %v, want context.Canceled", err)
	}
}

// TestRunParallelPeriodicCheckpoint: periodic snapshots still happen in
// parallel mode — at the idle edge, once every worker has merged — and the
// written checkpoint is quiescent (cursor == processed).
func TestRunParallelPeriodicCheckpoint(t *testing.T) {
	_, p, flows, _ := buildEndToEnd(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	rt, err := NewRuntime(RuntimeConfig{
		Pipeline: p,
		Start:    cpStart, Bucket: time.Hour,
		Queue:           unboundedQueue(len(flows)),
		CheckpointPath:  path,
		CheckpointEvery: uint64(len(flows) / 4),
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
	st := rt.Stats()
	if st.Checkpoints == 0 {
		t.Fatal("no periodic checkpoint was written")
	}
	if st.CheckpointErrors != 0 {
		t.Fatalf("checkpoint errors: %d (%s)", st.CheckpointErrors, st.LastCheckpointError)
	}
	cp, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Processed != cp.Queued || cp.Processed != uint64(len(flows)) {
		t.Fatalf("checkpoint cursor %d/%d not quiescent at %d flows",
			cp.Processed, cp.Queued, len(flows))
	}
}

// TestRunParallelKillResumeSwitchWorkers is the full crash-recovery
// equivalence: a run interrupted at a checkpoint resumes in a fresh runtime
// with a DIFFERENT worker count — sequential to parallel, and parallel to a
// narrower parallel — and the final checkpoint is byte-identical to an
// uninterrupted run's.
func TestRunParallelKillResumeSwitchWorkers(t *testing.T) {
	_, p, flows, _ := buildEndToEnd(t)
	dir := t.TempDir()
	ref := runSequential(t, p, flows, filepath.Join(dir, "ref.ckpt"))
	cut := 2 * len(flows) / 5

	resume := func(t *testing.T, path string, firstWorkers, secondWorkers int) {
		t.Helper()
		// Phase 1: classify the prefix, checkpoint, "crash".
		if firstWorkers == 0 {
			runSequential(t, p, flows[:cut], path)
		} else {
			runParallel(t, p, flows[:cut], firstWorkers, path)
		}
		cp, err := ReadCheckpointFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if cp.Ingested != uint64(cut) || cp.Processed != uint64(cut) {
			t.Fatalf("cursor = %d/%d, want %d", cp.Ingested, cp.Processed, cut)
		}

		// Phase 2: resume with a different worker count, re-feeding from the
		// cursor.
		rt, err := NewRuntime(RuntimeConfig{
			Pipeline: p,
			Start:    cpStart, Bucket: time.Hour,
			Queue:          unboundedQueue(len(flows)),
			CheckpointPath: path,
			Resume:         cp,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range flows[cp.Ingested:] {
			rt.Ingest(f)
		}
		rt.Close()
		if secondWorkers == 0 {
			for {
				if _, _, ok := rt.Step(); !ok {
					break
				}
			}
		} else if err := rt.RunParallel(nil, secondWorkers, nil); err != nil {
			t.Fatal(err)
		}
		if err := rt.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if got := mustRead(t, path); !bytes.Equal(ref, got) {
			t.Fatalf("resumed %d->%d workers: final checkpoint differs from uninterrupted run",
				firstWorkers, secondWorkers)
		}
	}

	t.Run("sequential-to-parallel4", func(t *testing.T) {
		resume(t, filepath.Join(dir, "s2p.ckpt"), 0, 4)
	})
	t.Run("parallel4-to-parallel2", func(t *testing.T) {
		resume(t, filepath.Join(dir, "p4p2.ckpt"), 4, 2)
	})
	t.Run("parallel2-to-sequential", func(t *testing.T) {
		resume(t, filepath.Join(dir, "p2s.ckpt"), 2, 0)
	})
}

// TestRunContextCancelWithFnFalse: a cancelled context wins even when fn
// stops the loop in the same iteration — Run must report the cancellation
// instead of masking it with nil.
func TestRunContextCancelWithFnFalse(t *testing.T) {
	p := testPipeline(t, Options{})
	rt, err := NewRuntime(RuntimeConfig{Pipeline: p, Start: cpStart, Bucket: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	rt.Ingest(checkpointFlows()[0])
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- rt.Run(ctx, func(ipfix.Flow, LiveVerdict) bool {
			cancel()
			return false
		})
	}()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return")
	}
}
