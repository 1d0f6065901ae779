package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"spoofscope/internal/core"
)

// frameCounter wraps the coordinator's side of a link and counts the
// frames it writes, by message type, parsing the length-prefixed stream.
type frameCounter struct {
	net.Conn
	mu     sync.Mutex
	hdr    []byte // partial length prefix
	remain int    // body bytes still to skip in the current frame
	atType bool   // the next body byte is the message type
	counts map[byte]int
}

func (fc *frameCounter) Write(p []byte) (int, error) {
	n, err := fc.Conn.Write(p)
	fc.mu.Lock()
	defer fc.mu.Unlock()
	for b := p[:n]; len(b) > 0; {
		switch {
		case fc.remain == 0:
			fc.hdr = append(fc.hdr, b[0])
			b = b[1:]
			if len(fc.hdr) == 4 {
				fc.remain = int(binary.BigEndian.Uint32(fc.hdr))
				fc.hdr = fc.hdr[:0]
				fc.atType = true
			}
		case fc.atType:
			fc.counts[b[0]]++
			fc.atType = false
			fc.remain--
			b = b[1:]
		default:
			k := min(fc.remain, len(b))
			fc.remain -= k
			b = b[k:]
		}
	}
	return n, err
}

func (fc *frameCounter) count(typ byte) int {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.counts[typ]
}

// TestRepeatCheckpointSolicitsNoReports checks the solicitation rule: once
// a barrier has every shard's report caught up with its cursor, a second
// barrier with no new flows asks no worker for anything.
func TestRepeatCheckpointSolicitsNoReports(t *testing.T) {
	tc := newTestCluster(t, 4)
	fc := &frameCounter{counts: make(map[byte]int)}
	tc.wrapDial = func(_ int, coordSide, workerSide net.Conn) (net.Conn, net.Conn) {
		fc.Conn = coordSide
		return fc, workerSide
	}
	tc.startWorker(0)
	tc.distribute(testRIB())
	for _, f := range testFlows(2000) {
		tc.coordinator().Ingest(f)
	}
	tc.checkpointBytes()
	asked := fc.count(msgReportReq)
	if asked == 0 {
		t.Fatal("the first barrier solicited no reports")
	}
	tc.checkpointBytes()
	if again := fc.count(msgReportReq); again != asked {
		t.Fatalf("a barrier with no new flows sent %d report requests", again-asked)
	}
}

// TestWorkerMergesQueuedReportRequests plays the coordinator against one
// worker: ten back-to-back report requests for one shard, then a revoke.
// The requests queued behind the one being served merge into one, so at
// most two non-final reports precede the final one.
func TestWorkerMergesQueuedReportRequests(t *testing.T) {
	coordSide, workerSide := net.Pipe()
	defer coordSide.Close()
	w, err := NewWorker(WorkerConfig{
		Name:              "w0",
		Dial:              func() (net.Conn, error) { return workerSide, nil },
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatMisses:   40,
		MaxAttempts:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); w.Run(ctx) }()
	defer func() { cancel(); coordSide.Close(); <-done }()

	deadline := time.Now().Add(10 * time.Second)
	write := func(body []byte) {
		t.Helper()
		coordSide.SetWriteDeadline(deadline)
		if err := writeFrame(coordSide, body); err != nil {
			t.Fatal(err)
		}
	}
	write(encodeChallenge(bytes.Repeat([]byte{1}, challengeNonceLen)))
	if body, err := readFrame(coordSide, deadline); err != nil || body[0] != msgHello {
		t.Fatalf("want a hello, got %v, %v", body, err)
	}
	write(encodeAssign(assignMsg{shard: 0, startNanos: tcStart.UnixNano(), bucket: int64(time.Hour)}))
	for i := 0; i < 10; i++ {
		write(encodeShardCtrl(msgReportReq, shardCtrlMsg{shard: 0, trace: uint64(i + 1), nanos: 1}))
	}
	write(encodeShardCtrl(msgRevoke, shardCtrlMsg{shard: 0}))

	reports := 0
	for {
		body, err := readFrame(coordSide, deadline)
		if err != nil {
			t.Fatalf("reading worker frames after %d reports: %v", reports, err)
		}
		if body[0] != msgReport {
			continue
		}
		m, err := decodeReport(body)
		if err != nil {
			t.Fatal(err)
		}
		if m.final {
			break
		}
		reports++
	}
	if reports < 1 || reports > 2 {
		t.Fatalf("ten queued report requests drew %d reports, want 1 or 2", reports)
	}
}

// realReportFrame is a worker's report frame for a shard runtime that
// classified a small traffic mix: header, checkpoint appended in place,
// sealed with the snapshot's cursor.
func realReportFrame(tb testing.TB) []byte {
	p, _, err := core.RebuildPipeline(nil, testRIB(), testMembers, core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	rt, err := core.NewRuntime(core.RuntimeConfig{Pipeline: p, Start: tcStart, Bucket: time.Hour})
	if err != nil {
		tb.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); rt.Run(context.Background(), nil) }()
	defer func() { rt.Close(); <-done }()
	if !rt.IngestBatchWait(testFlows(64)) {
		tb.Fatal("runtime closed mid-feed")
	}
	hdr := appendReportHeader(nil, reportMsg{shard: 2, trace: 0xfeed, reqNanos: 42})
	for deadline := time.Now().Add(5 * time.Second); ; {
		frame, cursor, err := rt.AppendCheckpoint(hdr)
		if err == nil {
			return sealReport(frame, cursor)
		}
		if time.Now().After(deadline) {
			tb.Fatalf("runtime never quiescent: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// FuzzDecodeReport feeds mutated report frames to the coordinator's report
// path. A malformed frame must fail to decode, never panic; an accepted one
// must alias its checkpoint into the frame and re-encode to the same bytes,
// and its checkpoint must decode or fail cleanly.
func FuzzDecodeReport(f *testing.F) {
	frame := realReportFrame(f)
	f.Add(frame)
	f.Add(frame[:reportHeaderLen])
	f.Add(frame[:len(frame)/2])
	f.Add(append(append([]byte(nil), frame...), 0))
	f.Add(encodeReport(reportMsg{shard: 1, final: true, cursor: 9, checkpoint: []byte("SPCK")}))
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) == 0 {
			return // readFrame never yields an empty body
		}
		m, err := decodeReport(body)
		if err != nil {
			return
		}
		if len(m.checkpoint) > 0 && &m.checkpoint[0] != &body[reportHeaderLen] {
			t.Fatal("decodeReport copied the checkpoint instead of aliasing the frame")
		}
		if again := encodeReport(m); !bytes.Equal(again, body) {
			t.Fatalf("re-encoding an accepted report changed it: %x vs %x", again, body)
		}
		core.DecodeCheckpointBytes(m.checkpoint)
	})
}
