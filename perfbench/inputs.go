package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"spoofscope/internal/core"
	"spoofscope/internal/experiments"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/netx"
)

// Inputs is everything one seed generates: the bytes the system under
// test receives. The images hold no pointers, so keeping them alive costs
// the garbage collector nothing; flows are decoded from them on demand.
type Inputs struct {
	Seed    int64
	MRT     []byte
	Wire    []byte // the default week as concatenated IPFIX messages
	Members []core.MemberInfo
	Start   time.Time
	Bucket  time.Duration

	// FloodWire is the default week with one random-source flood flow
	// after every regular flow.
	FloodWire []byte
}

// Flood shape (§7, Figure 11a): a few attacking members aim at a handful
// of victims, every flood flow with a fresh uniformly random IPv4 source.
const (
	floodAttackers = 3
	floodVictims   = 5
)

// Generate builds the default-scale simulated IXP for seed and encodes its
// inputs. The same seed always yields byte-identical images.
func Generate(seed int64, flood bool) (*Inputs, error) {
	opts := experiments.DefaultOptions()
	// Seed 1 reproduces the repository's default scenario (scenario seed 1,
	// traffic seed 7).
	opts.Scenario.Seed = seed
	opts.Flowgen.Seed = seed + 6
	env, err := experiments.NewEnv(opts)
	if err != nil {
		return nil, fmt.Errorf("generating seed %d: %w", seed, err)
	}
	in := &Inputs{
		Seed:   seed,
		Start:  env.Scenario.Cfg.Start,
		Bucket: env.Scenario.Cfg.Duration / 168,
	}
	for _, m := range env.Scenario.Members {
		in.Members = append(in.Members, core.MemberInfo{ASN: m.ASN, Port: m.Port})
	}
	var mrt bytes.Buffer
	if err := env.Scenario.WriteMRT(&mrt); err != nil {
		return nil, fmt.Errorf("encoding MRT: %w", err)
	}
	in.MRT = mrt.Bytes()
	if in.Wire, err = encodeWire(in.Start, env.Flows); err != nil {
		return nil, err
	}
	if flood {
		// Interleave the flows as the wire carries them, so the flood image
		// repeats the week's records bit for bit.
		week, err := decodeWire(in.Wire)
		if err != nil {
			return nil, err
		}
		if in.FloodWire, err = encodeWire(in.Start, interleaveFlood(seed, week, in.Members)); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// encodeWire frames flows into IPFIX messages the way cmd/ixpgen writes
// flows.ipfix: one template, then 25-record data messages.
func encodeWire(start time.Time, flows []ipfix.Flow) ([]byte, error) {
	var buf bytes.Buffer
	fw := ipfix.NewFileWriter(&buf, 1)
	if err := fw.Write(start, flows); err != nil {
		return nil, fmt.Errorf("encoding IPFIX: %w", err)
	}
	if err := fw.Flush(); err != nil {
		return nil, fmt.Errorf("encoding IPFIX: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeWire is the benchmark's own decode of an image it encoded: the
// flows the cluster workload ingests and the reference checks classify,
// identical to what the decoding workloads see.
func decodeWire(wire []byte) ([]ipfix.Flow, error) {
	var flows []ipfix.Flow
	err := ipfix.NewFileReader(bytes.NewReader(wire)).ForEachBatch(func(b []ipfix.Flow) bool {
		flows = append(flows, b...)
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("decoding generated IPFIX: %w", err)
	}
	return flows, nil
}

// interleaveFlood puts one flood flow after every regular flow. Attackers
// are members; victims are destinations the regular traffic already
// reaches, each behind the egress port it was seen on.
func interleaveFlood(seed int64, flows []ipfix.Flow, members []core.MemberInfo) []ipfix.Flow {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed_f100d))
	attackers := make([]uint32, floodAttackers)
	for i := range attackers {
		attackers[i] = members[rng.Intn(len(members))].Port
	}
	type victim struct {
		addr   netx.Addr
		egress uint32
	}
	victims := make([]victim, floodVictims)
	for i := range victims {
		f := flows[rng.Intn(len(flows))]
		victims[i] = victim{f.DstAddr, f.Egress}
	}
	out := make([]ipfix.Flow, 0, 2*len(flows))
	for _, f := range flows {
		v := victims[rng.Intn(len(victims))]
		out = append(out, f, ipfix.Flow{
			Start:    f.Start,
			SrcAddr:  netx.Addr(rng.Uint32()),
			DstAddr:  v.addr,
			SrcPort:  uint16(1024 + rng.Intn(64512)),
			DstPort:  80,
			Protocol: ipfix.ProtoTCP,
			TCPFlags: 0x02, // SYN
			Packets:  1,
			Bytes:    40,
			Ingress:  attackers[rng.Intn(len(attackers))],
			Egress:   v.egress,
		})
	}
	return out
}

// flowKey identifies a flow by its pointer-free fields, so the open-loop
// observer can follow the offered sequence without the harness holding
// pointerful Flow values the garbage collector would have to scan.
type flowKey struct {
	start    int64
	src, dst netx.Addr
	sport    uint16
	dport    uint16
	ingress  uint32
}

func keyOf(f *ipfix.Flow) flowKey {
	return flowKey{f.Start.UnixNano(), f.SrcAddr, f.DstAddr, f.SrcPort, f.DstPort, f.Ingress}
}

func keysOf(flows []ipfix.Flow) []flowKey {
	keys := make([]flowKey, len(flows))
	for i := range flows {
		keys[i] = keyOf(&flows[i])
	}
	return keys
}
