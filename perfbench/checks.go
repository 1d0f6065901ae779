package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"

	"spoofscope/internal/core"
	"spoofscope/internal/ipfix"
)

// reference is the output every pass must reproduce: class totals from a
// plain Pipeline.Classify pass over the generated flows, and (for the
// cluster) the checkpoint digest of a single-process runtime over them.
type reference struct {
	totals []core.Counter
	flows  uint64            // flows classified
	ckpt   [sha256.Size]byte // cluster only: the single-process checkpoint

	// passCkpt is the checkpoint digest of the run's first pass that lost
	// no flow; every later such pass must reproduce it byte for byte.
	passCkpt *[sha256.Size]byte
}

func referenceTotals(in *Inputs, p *core.Pipeline, flows []ipfix.Flow) *reference {
	agg := core.NewAggregator(in.Start, in.Bucket)
	for _, f := range flows {
		agg.Add(f, p.Classify(f))
	}
	return &reference{totals: append([]core.Counter(nil), agg.Total[:]...), flows: agg.GrandTotal.Flows}
}

// singleProcessCheckpoint is what `make cluster-chaos` compares the
// cluster against: one runtime, every flow queued with backpressure,
// drained, and snapshotted.
func singleProcessCheckpoint(in *Inputs, sys *single, flows []ipfix.Flow) ([sha256.Size]byte, error) {
	rt, err := newRuntime(in, sys, core.QueueConfig{Capacity: queueCapacity}, nil)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	done := make(chan error, 1)
	go func() { done <- rt.Run(context.Background(), nil) }()
	for lo := 0; lo < len(flows); lo += ipfixRecordsPerMsg {
		if !rt.IngestBatchWait(flows[lo:min(lo+ipfixRecordsPerMsg, len(flows))]) {
			break
		}
	}
	rt.Close()
	if err := <-done; err != nil {
		return [sha256.Size]byte{}, fmt.Errorf("reference drain: %w", err)
	}
	var buf bytes.Buffer
	if err := rt.WriteCheckpoint(&buf); err != nil {
		return [sha256.Size]byte{}, fmt.Errorf("reference checkpoint: %w", err)
	}
	return sha256.Sum256(buf.Bytes()), nil
}

// check verifies one pass's outputs. A pass that shed or skipped flows
// still has to balance its ledger, but its totals and bytes legitimately
// differ; those flows count as failed instead.
func check(p *pass, ref *reference, cluster bool) error {
	q := p.queue
	if q.Ingested != q.Queued+q.Shed {
		return fmt.Errorf("queue ledger: ingested %d != queued %d + shed %d", q.Ingested, q.Queued, q.Shed)
	}
	if p.processed != q.Queued {
		return fmt.Errorf("processed %d flows, queued %d", p.processed, q.Queued)
	}
	if q.Shed != 0 || p.skipped != 0 {
		return nil
	}
	for c, want := range ref.totals {
		if got := p.totals[c]; got != want {
			return fmt.Errorf("class %s totals %+v, reference Classify pass %+v",
				core.TrafficClass(c), got, want)
		}
	}
	if cluster && p.ckpt != ref.ckpt {
		return fmt.Errorf("merged cluster checkpoint differs from the single-process checkpoint")
	}
	if ref.passCkpt == nil {
		ref.passCkpt = &p.ckpt
	} else if p.ckpt != *ref.passCkpt {
		return fmt.Errorf("checkpoint bytes differ from the run's first pass")
	}
	return nil
}
