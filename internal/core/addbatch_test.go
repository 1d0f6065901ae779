package core

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"spoofscope/internal/bgp"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/netx"
)

// randomVerdict draws a verdict of any class; invalid verdicts carry any
// non-empty approach subset, so every aggregate class is reachable.
func randomVerdict(rng *rand.Rand) Verdict {
	v := Verdict{
		Class:       []Class{ClassBogon, ClassUnrouted, ClassValid, ClassInvalid}[rng.Intn(4)],
		SrcOrigin:   bgp.ASN(64500 + rng.Intn(6)),
		RouterIP:    rng.Intn(8) == 0,
		KnownMember: rng.Intn(10) != 0,
	}
	if v.Class == ClassInvalid {
		for v.Invalid == [numApproaches]bool{} {
			for a := range v.Invalid {
				v.Invalid[a] = rng.Intn(2) == 0
			}
		}
	}
	return v
}

// randomFlow draws a flow from small address, port and member pools, so
// destinations, sources and ports repeat; it covers TCP, UDP, ICMP and a
// spill protocol, zero-packet flows, NTP port 123 in both directions, and
// start times before the aggregate's start.
func randomFlow(rng *rand.Rand) ipfix.Flow {
	addr := func() netx.Addr {
		if rng.Intn(4) == 0 {
			return netx.Addr(rng.Uint32())
		}
		return netx.Addr(0x3c010000 | uint32(rng.Intn(16)))
	}
	port := func() uint16 {
		switch rng.Intn(4) {
		case 0:
			return 123
		case 1:
			return uint16(rng.Intn(1024))
		}
		return uint16(rng.Intn(1 << 16))
	}
	f := ipfix.Flow{
		Start:    cpStart.Add(time.Duration(rng.Int63n(int64(200*time.Hour))) - 2*time.Hour),
		SrcAddr:  addr(),
		DstAddr:  addr(),
		Protocol: []uint8{ipfix.ProtoTCP, ipfix.ProtoUDP, ipfix.ProtoICMP, 47}[rng.Intn(4)],
		Packets:  uint64(rng.Intn(40)),
		Ingress:  uint32(1 + rng.Intn(5)),
	}
	if f.Protocol == ipfix.ProtoTCP || f.Protocol == ipfix.ProtoUDP {
		f.SrcPort, f.DstPort = port(), port()
	}
	f.Bytes = f.Packets * uint64(40+rng.Intn(1460))
	return f
}

// TestAddBatchMatchesAdd pins AddBatch to the per-flow loop it replaces:
// at batch sizes 1, 7 and 256 the aggregate must encode to the same
// checkpoint bytes as calling Add once per flow.
func TestAddBatchMatchesAdd(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		flows := make([]ipfix.Flow, 3000)
		verdicts := make([]Verdict, len(flows))
		for i := range flows {
			flows[i], verdicts[i] = randomFlow(rng), randomVerdict(rng)
		}
		ref := NewAggregator(cpStart, time.Hour)
		for i := range flows {
			ref.Add(flows[i], verdicts[i])
		}
		want := encodeAgg(t, &Checkpoint{Agg: ref})
		for _, size := range []int{1, 7, 256} {
			a := NewAggregator(cpStart, time.Hour)
			for lo := 0; lo < len(flows); lo += size {
				hi := min(lo+size, len(flows))
				a.AddBatch(flows[lo:hi], verdicts[lo:hi])
			}
			if got := encodeAgg(t, &Checkpoint{Agg: a}); !bytes.Equal(got, want) {
				t.Fatalf("seed %d batch %d: AddBatch checkpoint (%d bytes) differs from per-flow Add (%d bytes)",
					seed, size, len(got), len(want))
			}
		}
	}
}

// TestBucketIndexMatchesSub pins the integer-time bucket memo to the
// expression it replaces, int(t.Sub(start) / bucket), on one aggregator per
// (start, bucket) so memo hits and misses interleave: time-ordered walks,
// exact bucket edges, pre-start times, the years 1 and 9999, times where
// Sub saturates, and times carrying monotonic clock readings.
func TestBucketIndexMatchesSub(t *testing.T) {
	starts := []time.Time{
		cpStart,
		time.Unix(0, 0).UTC(),
		time.Date(2017, 2, 5, 0, 0, 0, 123456789, time.UTC),
		time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Now(), // carries a monotonic reading
	}
	buckets := []time.Duration{time.Hour, 7*time.Second + 3, time.Millisecond, time.Nanosecond, 1 << 62}
	rng := rand.New(rand.NewSource(7))
	for _, start := range starts {
		for _, bucket := range buckets {
			a := NewAggregator(start, bucket)
			check := func(ts time.Time) {
				t.Helper()
				if got, want := a.bucketIndex(ts), int(ts.Sub(start)/bucket); got != want {
					t.Fatalf("start %v bucket %v: bucketIndex(%v) = %d, want %d", start, bucket, ts, got, want)
				}
			}
			edge := start
			for k := 0; k < 4; k++ {
				for _, e := range []time.Time{edge, start.Add(-time.Duration(k) * bucket)} {
					check(e.Add(-1))
					check(e)
					check(e.Add(1))
					check(e)
				}
				edge = edge.Add(bucket)
			}
			for _, ts := range []time.Time{
				time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC),
				time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
				time.UnixMilli(1 << 62).UTC(),
				time.UnixMilli(-1 << 62).UTC(),
				{},
				time.Now(),
				time.Now().Add(3 * time.Hour),
			} {
				check(ts)
				check(ts.Add(1))
			}
			cur := start.Add(-time.Duration(rng.Int63n(int64(time.Hour))))
			for i := 0; i < 3000; i++ {
				switch rng.Intn(20) {
				case 0:
					cur = start.Add(time.Duration(rng.Int63()) - time.Duration(rng.Int63()))
				case 1:
					cur = cur.Add(-time.Duration(rng.Int63n(int64(bucket))))
				default:
					cur = cur.Add(time.Duration(rng.Int63n(int64(bucket)/4 + 2)))
				}
				check(cur)
			}
		}
	}
}

// TestHostileFlowStartBoundsSeries: a flow whose start lies far past the
// aggregate's start (flowStartMilliseconds = 2^62 off the wire) must not
// grow the time series to millions of buckets. It skips the per-class,
// trigger and response series and still counts everywhere else.
func TestHostileFlowStartBoundsSeries(t *testing.T) {
	far := time.UnixMilli(1 << 62).UTC()
	trigger := ipfix.Flow{Start: far, SrcAddr: netx.MustParseAddr("60.1.0.7"),
		DstAddr: netx.MustParseAddr("50.1.0.9"), Protocol: ipfix.ProtoUDP,
		SrcPort: 5000, DstPort: 123, Packets: 5, Bytes: 300, Ingress: 3}
	response := trigger
	response.SrcPort, response.DstPort = 123, 6000

	a := NewAggregator(cpStart, time.Hour)
	a.Add(trigger, verdictOf(ClassInvalid, true, true, true))
	if raw := encodeAgg(t, &Checkpoint{Agg: a}); len(raw) >= 64<<10 {
		t.Fatalf("one-flow aggregate encodes to %d bytes, want < 64KB", len(raw))
	}
	a.Add(response, verdictOf(ClassValid, false, false, false))
	if raw := encodeAgg(t, &Checkpoint{Agg: a}); len(raw) >= 64<<10 {
		t.Fatalf("two-flow aggregate encodes to %d bytes, want < 64KB", len(raw))
	}
	if len(a.Series) != 0 || len(a.TriggerSeries) != 0 || len(a.ResponseSeries) != 0 {
		t.Fatalf("out-of-range flows reached the series: %d classes, %d trigger, %d response buckets",
			len(a.Series), len(a.TriggerSeries), len(a.ResponseSeries))
	}
	if a.GrandTotal.Packets != 10 || a.Total[TCInvalidFull].Packets != 5 || a.Total[TCRegular].Packets != 5 {
		t.Fatalf("totals %+v / %+v", a.GrandTotal, a.Total)
	}
	if len(a.TriggerPairs) != 1 || len(a.ResponsePairs) != 1 {
		t.Fatalf("NTP pairs: %d trigger, %d response", len(a.TriggerPairs), len(a.ResponsePairs))
	}

	// The cap is exact: the last bucket below it is kept, the cap itself is
	// skipped.
	b := NewAggregator(cpStart, time.Hour)
	last := trigger
	last.Start = cpStart.Add((maxSeriesBuckets - 1) * time.Hour)
	b.Add(last, verdictOf(ClassValid, false, false, false))
	last.Start = cpStart.Add(maxSeriesBuckets * time.Hour)
	b.Add(last, verdictOf(ClassValid, false, false, false))
	if s := b.Series[TCRegular]; len(s) != maxSeriesBuckets || s[maxSeriesBuckets-1] != 5 {
		t.Fatalf("series length %d, want %d with the last bucket kept", len(s), maxSeriesBuckets)
	}
	if b.Total[TCRegular].Packets != 10 {
		t.Fatalf("regular packets %d, want 10", b.Total[TCRegular].Packets)
	}
}
