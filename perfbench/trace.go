package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span names. Every span is taken from the benchmark's side of a call into
// one layer's public API; the program itself carries no instrumentation.
const (
	spanPass    uint8 = iota // one workload pass
	spanDecode               // ipfix: one message decoded (FileReader or Decoder.AppendFlows)
	spanPush                 // core queue: IngestBatchWait / IngestBatch of one message
	spanIngest               // cluster: Coordinator.Ingest of one 25-flow group
	spanBarrier              // cluster: one Coordinator.Checkpoint barrier
	spanDrain                // core runtime: drain tail after intake closed
	spanEncode               // core checkpoint: the final WriteCheckpoint

	// The traced run's isolated stage passes: one span per repetition,
	// with a child per 256-flow batch or per merged shard.
	spanStageDecode
	spanStageClassify
	spanClassifyBatch
	spanStageAdd
	spanAddBatch
	spanStageMerge
	spanMerge
	spanStageDrain
	spanStageDrainPar1
	spanStageEncode
	spanStageDecodeCkpt
	numSpanNames
)

var spanNames = [numSpanNames]string{"pass", "ipfix.decode", "core.queue.push",
	"cluster.ingest", "cluster.barrier", "core.runtime.drain", "core.checkpoint.encode",
	"stage.ipfix.decode", "stage.core.pipeline.classify", "core.pipeline.classify_batch",
	"stage.core.aggregate.add", "core.aggregate.add_batch", "stage.core.aggregate.merge",
	"core.aggregate.merge", "stage.core.runtime.drain", "stage.core.runtime.drain_par1",
	"stage.core.checkpoint.encode", "stage.core.checkpoint.decode"}

// span is one timed call. Times are nanoseconds since the tracer's epoch;
// parent is the index of the enclosing span (-1 for none), pass and msg
// identify the pass and the IPFIX message (or 25-flow group, or barrier).
type span struct {
	start, end int64
	parent     int32
	pass, msg  int32
	name       uint8
}

// tracer keeps spans in memory for the whole run; write dumps them when
// the run ends. A nil tracer records nothing, so untraced passes pay one
// nil check per call site.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	// Sized for a 60-second traced run of the largest workload, so the
	// hot path appends without growing.
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<21)}
}

// add records a finished span and returns its index.
func (t *tracer) add(name uint8, parent, pass, msg int32, start, end time.Time) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch)),
		parent: parent, pass: pass, msg: msg, name: name,
	})
	return int32(len(t.spans) - 1)
}

// open records a span whose end is not known yet; close finishes it.
func (t *tracer) open(name uint8, parent, pass int32, start time.Time) int32 {
	return t.add(name, parent, pass, -1, start, start)
}

func (t *tracer) close(id int32, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = int64(end.Sub(t.epoch))
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its child spans cover. Children of one parent never overlap here
// (each parent's children come from one goroutine), so coverage is the
// sum of child durations.
func (t *tracer) selfTimes() (self [numSpanNames]time.Duration, count [numSpanNames]int) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		self[s.name] += time.Duration(s.end - s.start - child[i])
		count[s.name]++
	}
	return self, count
}

// write dumps every span as gzip-compressed CSV under dir.
func (t *tracer) write(dir, base string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, base+".spans.csv.gz")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id,name,parent,pass,msg,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(bw, "%d,%s,%d,%d,%d,%d,%d\n", i, spanNames[s.name], s.parent, s.pass, s.msg, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
