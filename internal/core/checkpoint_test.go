package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"spoofscope/internal/bgp"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/netx"
)

var cpStart = time.Unix(1500000000, 0).UTC()

// checkpointFlows exercises every aggregate dimension: valid, bogon,
// unrouted, invalid, NTP trigger/response, and multiple members and
// buckets.
func checkpointFlows() []ipfix.Flow {
	mk := func(src, dst string, port uint32, proto uint8, sp, dp uint16, bucket int) ipfix.Flow {
		return ipfix.Flow{
			Start:   cpStart.Add(time.Duration(bucket) * time.Hour),
			SrcAddr: netx.MustParseAddr(src),
			DstAddr: netx.MustParseAddr(dst),
			SrcPort: sp, DstPort: dp, Protocol: proto,
			Packets: 3, Bytes: 180,
			Ingress: port,
		}
	}
	return []ipfix.Flow{
		mk("50.1.2.3", "60.1.0.9", 1, ipfix.ProtoTCP, 1234, 80, 0),  // valid
		mk("10.0.0.1", "60.1.0.9", 1, ipfix.ProtoUDP, 53, 53, 0),    // bogon
		mk("99.9.9.9", "60.1.0.9", 2, ipfix.ProtoTCP, 4000, 443, 1), // unrouted
		mk("60.1.0.7", "50.1.0.9", 3, ipfix.ProtoUDP, 5000, 123, 1), // invalid NTP trigger
		mk("50.1.9.9", "70.1.0.2", 1, ipfix.ProtoUDP, 123, 6000, 2), // valid NTP response
		mk("80.0.0.1", "60.1.0.9", 2, ipfix.ProtoICMP, 0, 0, 2),     // non-member space
	}
}

func checkpointAgg(t *testing.T) *Aggregator {
	t.Helper()
	p := testPipeline(t, Options{})
	a := NewAggregator(cpStart, time.Hour)
	for _, f := range checkpointFlows() {
		a.Add(f, p.Classify(f))
	}
	return a
}

// syntheticAgg aggregates n seeded random flows under random verdicts, so
// the encoding covers what the small fixtures do not: multi-source fan-in,
// spilled packet sizes, spilled protocols and many members and origins.
func syntheticAgg(n int) *Aggregator {
	rng := rand.New(rand.NewSource(7))
	a := NewAggregator(cpStart, time.Hour)
	protos := []uint8{ipfix.ProtoTCP, ipfix.ProtoUDP, ipfix.ProtoICMP, 47}
	for i := 0; i < n; i++ {
		f := ipfix.Flow{
			Start:    cpStart.Add(time.Duration(rng.Intn(72)) * time.Hour),
			SrcAddr:  netx.Addr(rng.Uint32()),
			DstAddr:  netx.Addr(0x3c010000 | rng.Uint32()&0xff),
			SrcPort:  uint16(rng.Intn(1 << 16)),
			DstPort:  uint16([]int{53, 80, 123, 443, rng.Intn(1 << 16)}[rng.Intn(5)]),
			Protocol: protos[rng.Intn(len(protos))],
			Packets:  uint64(1 + rng.Intn(4)),
			Bytes:    uint64(rng.Intn(40000)),
			Ingress:  uint32(rng.Intn(40)),
		}
		v := Verdict{
			Class:       Class(rng.Intn(4)),
			SrcOrigin:   bgp.ASN(64500 + rng.Intn(30)),
			RouterIP:    rng.Intn(9) == 0,
			KnownMember: rng.Intn(10) != 0,
		}
		for k := range v.Invalid {
			v.Invalid[k] = rng.Intn(2) == 0
		}
		a.Add(f, v)
	}
	return a
}

func encodeAgg(t *testing.T, cp *Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCheckpointRoundTrip(t *testing.T) {
	cp := &Checkpoint{
		Ingested: 10, Queued: 7, Shed: 3, Processed: 7, Epoch: 4,
		Swaps: 4, Degraded: true, StaleVerdicts: 2,
		Agg: checkpointAgg(t),
	}
	raw := encodeAgg(t, cp)

	got, err := DecodeCheckpoint(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.Ingested != 10 || got.Queued != 7 || got.Shed != 3 || got.Processed != 7 || got.Epoch != 4 {
		t.Fatalf("cursor diverged: %+v", got)
	}
	if got.Swaps != 4 || !got.Degraded || got.StaleVerdicts != 2 {
		t.Fatalf("degradation state diverged: %+v", got)
	}
	if !got.Agg.start.Equal(cpStart) || got.Agg.bucket != time.Hour {
		t.Fatalf("aggregator clock diverged: start=%v bucket=%v", got.Agg.start, got.Agg.bucket)
	}
	if got.Agg.GrandTotal != cp.Agg.GrandTotal {
		t.Fatalf("grand total diverged: %+v vs %+v", got.Agg.GrandTotal, cp.Agg.GrandTotal)
	}

	// The decoded state must re-encode to the identical bytes — the
	// canonical-encoding property resume correctness rests on.
	if again := encodeAgg(t, got); !bytes.Equal(raw, again) {
		t.Fatalf("re-encoding diverged: %d vs %d bytes", len(raw), len(again))
	}
}

// TestCheckpointCanonical asserts equal logical state encodes identically
// regardless of the insertion order that built the maps.
func TestCheckpointCanonical(t *testing.T) {
	p := testPipeline(t, Options{})
	flows := checkpointFlows()
	fwd := NewAggregator(cpStart, time.Hour)
	for _, f := range flows {
		fwd.Add(f, p.Classify(f))
	}
	rev := NewAggregator(cpStart, time.Hour)
	for i := len(flows) - 1; i >= 0; i-- {
		rev.Add(flows[i], p.Classify(flows[i]))
	}
	a := encodeAgg(t, &Checkpoint{Agg: fwd})
	b := encodeAgg(t, &Checkpoint{Agg: rev})
	if !bytes.Equal(a, b) {
		t.Fatal("same logical state encoded differently across insertion orders")
	}
}

// The SHA-256 of two fixtures in the v1 'SPCK' format: checkpointAgg's
// classified flows, and the fuzz corpus seed with synthesized verdicts.
// Every checkpoint ever written to disk or shipped in a cluster report is
// in this format, so a codec change that moves a byte must bump
// checkpointVersion rather than these hashes.
func TestCheckpointGoldenV1(t *testing.T) {
	cases := []struct {
		name string
		raw  []byte
		want string
	}{
		{"checkpointAgg", encodeAgg(t, &Checkpoint{
			Ingested: 10, Queued: 7, Shed: 3, Processed: 7, Epoch: 4,
			Swaps: 4, Degraded: true, StaleVerdicts: 2,
			Agg: checkpointAgg(t),
		}), "14e01c822efd7da0584ac0ed7a56a5f0414695153b4cbed53ca0fb44691bb9ce"},
		{"fuzzSeed", fuzzSeedCheckpoint(), "735c460d5aee72beeec5015401f265c13acabb5210c18ce5228ba363ee9895bf"},
		{"synthetic", encodeAgg(t, &Checkpoint{Processed: 4000, Agg: syntheticAgg(4000)}), "8101259d02247bcde2315742ba8091a5089d76abe342014fe7c957939f2c3d43"},
	}
	for _, tc := range cases {
		sum := sha256.Sum256(tc.raw)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: v1 checkpoint bytes changed: sha256 %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCheckpointRejectsCorruptHeader(t *testing.T) {
	raw := encodeAgg(t, &Checkpoint{Agg: checkpointAgg(t)})

	bad := append([]byte(nil), raw...)
	copy(bad, "NOPE")
	if _, err := DecodeCheckpoint(bytes.NewReader(bad)); err == nil {
		t.Fatal("decoder accepted bad magic")
	}

	bad = append([]byte(nil), raw...)
	bad[4], bad[5] = 0xFF, 0xFF
	if _, err := DecodeCheckpoint(bytes.NewReader(bad)); err == nil {
		t.Fatal("decoder accepted unknown version")
	}

	if _, err := DecodeCheckpoint(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Fatal("decoder accepted truncated input")
	}
}

func TestCheckpointFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	cp := &Checkpoint{Processed: 7, Agg: checkpointAgg(t)}
	if err := WriteCheckpointFile(path, cp); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	got, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Processed != 7 {
		t.Fatalf("processed = %d, want 7", got.Processed)
	}
	// Overwrite with a later snapshot; the file must read back as the new
	// state, not a torn mix.
	cp.Processed = 9
	if err := WriteCheckpointFile(path, cp); err != nil {
		t.Fatal(err)
	}
	got, err = ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Processed != 9 {
		t.Fatalf("processed after overwrite = %d, want 9", got.Processed)
	}
}

// TestCheckpointRejectsMalformed decodes every truncation of a valid
// encoding, and the encoding plus one trailing byte: each must return an
// error, never a panic or a silently partial checkpoint. The io.Reader
// wrapper is checked on a sample of the same inputs.
func TestCheckpointRejectsMalformed(t *testing.T) {
	raw := encodeAgg(t, &Checkpoint{Processed: 7, Agg: checkpointAgg(t)})
	reject := func(name string, in []byte, wrapper bool) {
		if _, err := DecodeCheckpointBytes(in); err == nil {
			t.Errorf("%s: DecodeCheckpointBytes accepted it", name)
		}
		if !wrapper {
			return
		}
		if _, err := DecodeCheckpoint(bytes.NewReader(in)); err == nil {
			t.Errorf("%s: DecodeCheckpoint accepted it", name)
		}
	}
	reject("trailing byte", append(append([]byte(nil), raw...), 0), true)
	for n := 0; n < len(raw); n++ {
		reject(fmt.Sprintf("truncated to %d of %d bytes", n, len(raw)), raw[:n], n%97 == 0)
	}
}

// TestAppendCheckpointAllocsIndependentOfPorts encodes aggregates whose
// port mix differs 64-fold into a reused buffer: the allocation count must
// not grow with the number of port-mix entries.
func TestAppendCheckpointAllocsIndependentOfPorts(t *testing.T) {
	allocs := func(ports int) float64 {
		a := NewAggregator(cpStart, time.Hour)
		for p := 0; p < ports; p++ {
			a.Ports.Set(PortKey{Class: TCRegular, Proto: ipfix.ProtoTCP, Port: uint16(p)}, uint64(p+1))
		}
		cp := &Checkpoint{Agg: a}
		buf := AppendCheckpoint(nil, cp)
		return testing.AllocsPerRun(10, func() { buf = AppendCheckpoint(buf[:0], cp) })
	}
	small, large := allocs(1000), allocs(64000)
	if large != small {
		t.Fatalf("encoding 64000 port-mix entries allocated %.0f times, 1000 entries %.0f", large, small)
	}
}
