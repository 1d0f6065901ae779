package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"spoofscope/internal/bgp"
	"spoofscope/internal/netx"
)

// Checkpoint is a crash-safe snapshot of a live run: the full aggregate
// state plus the ingest cursor that positions a replay. Snapshots are taken
// at quiescent points (empty ingest queue), so every flow the source
// delivered before the cursor is accounted — either aggregated (Processed)
// or deterministically shed (Shed) — and a resumed run that re-feeds the
// source from flow index Ingested onward reproduces the uninterrupted run
// exactly.
type Checkpoint struct {
	// Ingested / Queued / Shed mirror the ingest queue's counters at
	// snapshot time; Ingested is the replay cursor.
	Ingested uint64
	Queued   uint64
	Shed     uint64
	// Processed counts flows aggregated (Queued minus nothing: the
	// snapshot is quiescent, so every queued flow has been processed).
	Processed uint64
	// Epoch is the routing-state generation that was live at snapshot time;
	// Swaps counts the promotions that produced it.
	Epoch Epoch
	Swaps uint64
	// Degraded records whether the routing feed was known stale at snapshot
	// time — a resumed run carries the open feed gap forward instead of
	// silently unmarking its verdicts fresh — and StaleVerdicts counts the
	// verdicts issued while degraded, so RuntimeStats survive the crash.
	Degraded      bool
	StaleVerdicts uint64
	// Agg is the full aggregate state.
	Agg *Aggregator
}

// Checkpoint wire format: magic, version, cursor block, then the aggregate
// with every map written in sorted key order, so equal logical state always
// encodes to identical bytes (the property the kill-and-resume acceptance
// test asserts).
const (
	checkpointMagic   = "SPCK"
	checkpointVersion = 1
)

// The encoder appends to a caller-owned []byte and the decoder consumes a
// bounds-checked []byte with a latched error — the discipline the cluster
// wire codec uses too — so an encode is a handful of appends with no
// per-field call through an io.Writer, and a report or file decodes in
// place without copying.

func appendCounter(b []byte, c Counter) []byte {
	b = binary.BigEndian.AppendUint64(b, c.Flows)
	b = binary.BigEndian.AppendUint64(b, c.Packets)
	return binary.BigEndian.AppendUint64(b, c.Bytes)
}

type cpReader struct {
	b   []byte
	err error
}

// fail latches err (the first one wins) and empties the input, so every
// later read returns zero without touching it.
func (r *cpReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

func (r *cpReader) take(n int) []byte {
	if len(r.b) < n {
		r.fail(io.ErrUnexpectedEOF)
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *cpReader) u8() uint8 {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *cpReader) u16() uint16 {
	if b := r.take(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

func (r *cpReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (r *cpReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

func (r *cpReader) i64() int64 { return int64(r.u64()) }

func (r *cpReader) counter() Counter {
	return Counter{Flows: r.u64(), Packets: r.u64(), Bytes: r.u64()}
}

// count validates a declared element count against a sanity cap before the
// decoder allocates for it — a corrupt count must not demand gigabytes.
func (r *cpReader) count(what string) int {
	n := r.u32()
	const maxCount = 1 << 26
	if n > maxCount {
		r.fail(fmt.Errorf("core: checkpoint %s count %d exceeds sanity cap", what, n))
		return 0
	}
	return int(n)
}

// preallocCap clamps the capacity hint the decoder passes to make() for a
// declared element count. Real inputs get their exact size; an adversarial
// count below the sanity cap but far beyond the actual input gets a small
// buffer that grows only as elements actually decode — every element read
// consumes input bytes and latches r.err at the end of the input, so
// decoder memory stays proportional to input length, never to a forged
// count.
const maxPrealloc = 4096

func preallocCap(n int) int {
	if n > maxPrealloc {
		return maxPrealloc
	}
	return n
}

// sortedKeys appends m's keys to scratch[:0] in ascending order; passing
// the previous result back as scratch reuses its storage.
func sortedKeys[K cmp.Ordered, V any](scratch []K, m map[K]V) []K {
	out := scratch[:0]
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// EncodeCheckpoint writes cp to w in the versioned binary format. Equal
// logical state encodes to identical bytes regardless of map iteration
// order. A writer that offers its spare capacity (bytes.Buffer,
// bufio.Writer) is encoded into directly.
func EncodeCheckpoint(out io.Writer, cp *Checkpoint) error {
	var dst []byte
	if ab, ok := out.(interface{ AvailableBuffer() []byte }); ok {
		dst = ab.AvailableBuffer()
	}
	if _, err := out.Write(AppendCheckpoint(dst, cp)); err != nil {
		return fmt.Errorf("core: encoding checkpoint: %w", err)
	}
	return nil
}

// AppendCheckpoint appends cp's encoding (the format EncodeCheckpoint
// writes) to dst and returns the extended slice. Encoding into a reused
// buffer allocates only sort scratch, never per entry.
func AppendCheckpoint(dst []byte, cp *Checkpoint) []byte {
	b := append(dst, checkpointMagic...)
	b = binary.BigEndian.AppendUint16(b, checkpointVersion)
	b = binary.BigEndian.AppendUint64(b, cp.Ingested)
	b = binary.BigEndian.AppendUint64(b, cp.Queued)
	b = binary.BigEndian.AppendUint64(b, cp.Shed)
	b = binary.BigEndian.AppendUint64(b, cp.Processed)
	b = binary.BigEndian.AppendUint64(b, uint64(cp.Epoch))
	b = binary.BigEndian.AppendUint64(b, cp.Swaps)
	b = binary.BigEndian.AppendUint64(b, cp.StaleVerdicts)
	if cp.Degraded {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}

	a := cp.Agg
	b = binary.BigEndian.AppendUint64(b, uint64(a.start.UnixNano()))
	b = binary.BigEndian.AppendUint64(b, uint64(a.bucket))
	b = appendCounter(b, a.GrandTotal)
	b = binary.BigEndian.AppendUint64(b, a.UnknownPorts)
	for c := TrafficClass(0); c < numTrafficClasses; c++ {
		b = appendCounter(b, a.Total[c])
	}

	// Per-member stats, sorted by port.
	ports := sortedKeys(nil, a.members)
	var origins []bgp.ASN
	b = binary.BigEndian.AppendUint32(b, uint32(len(ports)))
	for _, port := range ports {
		m := a.members[port]
		b = binary.BigEndian.AppendUint32(b, port)
		b = binary.BigEndian.AppendUint32(b, uint32(m.ASN))
		b = appendCounter(b, m.Total)
		for c := TrafficClass(0); c < numTrafficClasses; c++ {
			b = appendCounter(b, m.ByClass[c])
		}
		b = binary.BigEndian.AppendUint64(b, m.RouterIPInvalid)
		origins = sortedKeys(origins, m.InvalidOrigins)
		b = binary.BigEndian.AppendUint32(b, uint32(len(origins)))
		for _, o := range origins {
			b = binary.BigEndian.AppendUint32(b, uint32(o))
			b = binary.BigEndian.AppendUint64(b, m.InvalidOrigins[o])
		}
	}

	// Time series per class.
	classes := sortedKeys(nil, a.Series)
	b = binary.BigEndian.AppendUint32(b, uint32(len(classes)))
	for _, c := range classes {
		s := a.Series[c]
		b = binary.BigEndian.AppendUint32(b, uint32(c))
		b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
		for _, v := range s {
			b = binary.BigEndian.AppendUint64(b, v)
		}
	}

	// Size histograms per class, sizes sorted. SizeTab iterates classes and
	// sizes in ascending order — the order the map-backed encoding sorted
	// into — so the bytes are unchanged.
	b = binary.BigEndian.AppendUint32(b, uint32(a.SizeHist.Classes()))
	for _, c := range a.SizeHist.classList() {
		b = binary.BigEndian.AppendUint32(b, uint32(c))
		b = binary.BigEndian.AppendUint32(b, uint32(a.SizeHist.ClassLen(c)))
		a.SizeHist.RangeClass(c, func(s int, n uint64) {
			b = binary.BigEndian.AppendUint64(b, uint64(s))
			b = binary.BigEndian.AppendUint64(b, n)
		})
	}

	// Port mix, sorted by (class, proto, dir, port) — PortTab's natural
	// iteration order.
	b = binary.BigEndian.AppendUint32(b, uint32(a.Ports.Len()))
	a.Ports.Range(func(k PortKey, v uint64) {
		b = binary.BigEndian.AppendUint32(b, uint32(k.Class))
		b = append(b, k.Proto, k.Dir)
		b = binary.BigEndian.AppendUint16(b, k.Port)
		b = binary.BigEndian.AppendUint64(b, v)
	})

	// /8 address-structure bins.
	for _, m := range [2]map[TrafficClass]*[256]uint64{a.Slash8Src, a.Slash8Dst} {
		classes = sortedKeys(classes, m)
		b = binary.BigEndian.AppendUint32(b, uint32(len(classes)))
		for _, c := range classes {
			b = binary.BigEndian.AppendUint32(b, uint32(c))
			for _, v := range m[c] {
				b = binary.BigEndian.AppendUint64(b, v)
			}
		}
	}

	// Destination fan-in per tracked class.
	var dsts, srcs []netx.Addr
	classes = sortedKeys(classes, a.FanIn)
	b = binary.BigEndian.AppendUint32(b, uint32(len(classes)))
	for _, c := range classes {
		m := a.FanIn[c]
		b = binary.BigEndian.AppendUint32(b, uint32(c))
		b = binary.BigEndian.AppendUint32(b, uint32(len(m)))
		dsts = sortedKeys(dsts, m)
		for _, dst := range dsts {
			ds := m[dst]
			b = binary.BigEndian.AppendUint32(b, uint32(dst))
			b = binary.BigEndian.AppendUint64(b, ds.Packets)
			b = binary.BigEndian.AppendUint64(b, ds.SrcOverflow)
			b = binary.BigEndian.AppendUint32(b, uint32(ds.SrcCount()))
			if ds.Srcs != nil {
				srcs = sortedKeys(srcs, ds.Srcs)
				for _, src := range srcs {
					b = binary.BigEndian.AppendUint32(b, uint32(src))
				}
			} else if ds.has1 {
				// Inline single source (sorted order is trivial).
				b = binary.BigEndian.AppendUint32(b, uint32(ds.src1))
			}
		}
	}

	// NTP trigger/response pair maps and series.
	for _, m := range [2]map[netx.Addr]map[netx.Addr]uint64{a.TriggerPairs, a.ResponsePairs} {
		dsts = sortedKeys(dsts, m)
		b = binary.BigEndian.AppendUint32(b, uint32(len(dsts)))
		for _, outer := range dsts {
			inner := m[outer]
			b = binary.BigEndian.AppendUint32(b, uint32(outer))
			b = binary.BigEndian.AppendUint32(b, uint32(len(inner)))
			srcs = sortedKeys(srcs, inner)
			for _, in := range srcs {
				b = binary.BigEndian.AppendUint32(b, uint32(in))
				b = binary.BigEndian.AppendUint64(b, inner[in])
			}
		}
	}
	for _, s := range [2][]Counter{a.TriggerSeries, a.ResponseSeries} {
		b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
		for _, c := range s {
			b = appendCounter(b, c)
		}
	}
	return b
}

// DecodeCheckpoint reads a checkpoint previously written by
// EncodeCheckpoint: the whole of in is one checkpoint (see
// DecodeCheckpointBytes).
func DecodeCheckpoint(in io.Reader) (*Checkpoint, error) {
	var buf bytes.Buffer
	if l, ok := in.(interface{ Len() int }); ok {
		// MinRead spare keeps ReadFrom from regrowing at the final EOF read.
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(in); err != nil {
		return nil, fmt.Errorf("core: reading checkpoint: %w", err)
	}
	return DecodeCheckpointBytes(buf.Bytes())
}

// DecodeCheckpointBytes decodes one checkpoint that spans exactly raw,
// rejecting unknown magic or versions, truncation, and trailing bytes. The
// result does not alias raw.
func DecodeCheckpointBytes(raw []byte) (*Checkpoint, error) {
	r := &cpReader{b: raw}
	if magic := r.take(len(checkpointMagic)); r.err == nil && string(magic) != checkpointMagic {
		return nil, fmt.Errorf("core: not a checkpoint (magic %q)", magic)
	}
	if v := r.u16(); r.err == nil && v != checkpointVersion {
		return nil, fmt.Errorf("core: unsupported checkpoint version %d", v)
	}
	cp := &Checkpoint{
		Ingested:      r.u64(),
		Queued:        r.u64(),
		Shed:          r.u64(),
		Processed:     r.u64(),
		Epoch:         Epoch(r.u64()),
		Swaps:         r.u64(),
		StaleVerdicts: r.u64(),
	}
	switch d := r.u8(); d {
	case 0:
	case 1:
		cp.Degraded = true
	default:
		if r.err == nil {
			return nil, fmt.Errorf("core: checkpoint degraded flag %d is not a bool", d)
		}
	}

	start := time.Unix(0, r.i64()).UTC()
	bucket := time.Duration(r.i64())
	a := NewAggregator(start, bucket)
	cp.Agg = a
	a.GrandTotal = r.counter()
	a.UnknownPorts = r.u64()
	for c := TrafficClass(0); c < numTrafficClasses; c++ {
		a.Total[c] = r.counter()
	}

	nMembers := r.count("member")
	for i := 0; i < nMembers && r.err == nil; i++ {
		port := r.u32()
		m := &MemberStats{Port: port, ASN: bgp.ASN(r.u32())}
		m.Total = r.counter()
		for c := TrafficClass(0); c < numTrafficClasses; c++ {
			m.ByClass[c] = r.counter()
		}
		m.RouterIPInvalid = r.u64()
		nOrigins := r.count("origin")
		m.InvalidOrigins = make(map[bgp.ASN]uint64, preallocCap(nOrigins))
		for j := 0; j < nOrigins && r.err == nil; j++ {
			o := bgp.ASN(r.u32())
			m.InvalidOrigins[o] = r.u64()
		}
		a.members[port] = m
	}

	nSeries := r.count("series")
	for i := 0; i < nSeries && r.err == nil; i++ {
		c := TrafficClass(r.u32())
		n := r.count("series bucket")
		s := make([]uint64, 0, preallocCap(n))
		for j := 0; j < n && r.err == nil; j++ {
			s = append(s, r.u64())
		}
		a.Series[c] = s
	}

	nHists := r.count("size histogram")
	for i := 0; i < nHists && r.err == nil; i++ {
		c := TrafficClass(r.u32())
		a.SizeHist.Touch(c)
		n := r.count("size bin")
		for j := 0; j < n && r.err == nil; j++ {
			size := int(r.i64())
			a.SizeHist.Set(c, size, r.u64())
		}
	}

	nPorts := r.count("port-mix entry")
	for i := 0; i < nPorts && r.err == nil; i++ {
		k := PortKey{
			Class: TrafficClass(r.u32()),
			Proto: r.u8(),
			Dir:   r.u8(),
			Port:  r.u16(),
		}
		a.Ports.Set(k, r.u64())
	}

	for _, m := range [2]map[TrafficClass]*[256]uint64{a.Slash8Src, a.Slash8Dst} {
		n := r.count("/8 class")
		for i := 0; i < n && r.err == nil; i++ {
			c := TrafficClass(r.u32())
			var bins [256]uint64
			for j := range bins {
				bins[j] = r.u64()
			}
			m[c] = &bins
		}
	}

	nFanIn := r.count("fan-in class")
	for i := 0; i < nFanIn && r.err == nil; i++ {
		c := TrafficClass(r.u32())
		nDst := r.count("fan-in destination")
		m := make(map[netx.Addr]*DstStats, preallocCap(nDst))
		for j := 0; j < nDst && r.err == nil; j++ {
			dst := netx.Addr(r.u32())
			ds := &DstStats{Packets: r.u64(), SrcOverflow: r.u64()}
			nSrc := r.count("fan-in source")
			if nSrc == 1 {
				// Match the fresh-aggregator representation: a single
				// source stays inline, no map.
				ds.src1, ds.has1 = netx.Addr(r.u32()), true
			} else if nSrc > 0 {
				ds.Srcs = make(map[netx.Addr]struct{}, preallocCap(nSrc))
				for k := 0; k < nSrc && r.err == nil; k++ {
					ds.Srcs[netx.Addr(r.u32())] = struct{}{}
				}
			}
			m[dst] = ds
		}
		a.FanIn[c] = m
	}

	for _, dst := range [2]map[netx.Addr]map[netx.Addr]uint64{a.TriggerPairs, a.ResponsePairs} {
		n := r.count("pair")
		for i := 0; i < n && r.err == nil; i++ {
			outer := netx.Addr(r.u32())
			nInner := r.count("pair entry")
			inner := make(map[netx.Addr]uint64, preallocCap(nInner))
			for j := 0; j < nInner && r.err == nil; j++ {
				in := netx.Addr(r.u32())
				inner[in] = r.u64()
			}
			dst[outer] = inner
		}
	}
	readSeries := func() []Counter {
		n := r.count("NTP series bucket")
		if n == 0 {
			return nil
		}
		s := make([]Counter, 0, preallocCap(n))
		for i := 0; i < n && r.err == nil; i++ {
			s = append(s, r.counter())
		}
		return s
	}
	a.TriggerSeries = readSeries()
	a.ResponseSeries = readSeries()

	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint: %w", r.err)
	}
	return cp, nil
}

// WriteCheckpointFile atomically persists cp to path: the snapshot is
// written to a temporary sibling, synced, and renamed into place, so a
// crash mid-write leaves either the previous checkpoint or the new one —
// never a torn file.
func WriteCheckpointFile(path string, cp *Checkpoint) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := EncodeCheckpoint(f, cp); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// ReadCheckpointFile loads a checkpoint written by WriteCheckpointFile.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeCheckpointBytes(raw)
}
