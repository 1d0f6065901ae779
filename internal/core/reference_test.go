package core

import (
	"spoofscope/internal/astopo"
	"spoofscope/internal/bgp"
	"spoofscope/internal/bogon"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/netx"
)

// refClassifier is the Figure 3 sequence written out directly over the
// pipeline's inputs: the oracle the compiled classifier is checked against.
// It shares none of the compiled indexes (the origin slab, originTab, the
// naive entry bitsets, the bogon entry flags):
//
//   - bogon: a linear scan of the reference bogon prefixes;
//   - unrouted and covering origins: one map probe per prefix length over
//     the RIB's MOAS-resolved origin assignments;
//   - naive validity: the naive index's exact interval space;
//   - CC/FC validity: the cone closures' origin sets, tested for every
//     covering origin.
//
// The AS graph, closures and naive index are the topology both sides are
// compiled from, so they are taken from the pipeline under test.
type refClassifier struct {
	bogons  []netx.Prefix
	origins [33]map[netx.Addr]bgp.ASN // per prefix length: network -> origin
	graph   *astopo.Graph
	routers RouterSet
	members map[uint32]*refMember // by ingress port
}

type refMember struct {
	asIdx  int
	naive  netx.IntervalSet
	cc, fc *netx.Bitset
}

// newRefClassifier builds the oracle for p, which must have been compiled
// from rib and members with the reference bogon list and an unbounded Full
// Cone.
func newRefClassifier(rib *bgp.RIB, members []MemberInfo, p *Pipeline) *refClassifier {
	r := &refClassifier{
		graph:   p.Graph(),
		routers: p.routers,
		members: make(map[uint32]*refMember, len(members)),
	}
	for _, e := range bogon.Reference() {
		r.bogons = append(r.bogons, e.Prefix)
	}
	prefixes, origins := rib.OriginAssignments()
	for i, pfx := range prefixes {
		if r.origins[pfx.Bits] == nil {
			r.origins[pfx.Bits] = make(map[netx.Addr]bgp.ASN)
		}
		r.origins[pfx.Bits][pfx.Addr] = origins[i]
	}
	for _, mi := range members {
		m := &refMember{asIdx: r.graph.Index(mi.ASN)}
		if m.asIdx >= 0 {
			m.naive = p.NaiveIndex().ValidSpace(m.asIdx)
			m.cc = p.CustomerCone().ValidOriginSet(m.asIdx)
			m.fc = p.FullCone().ValidOriginSet(m.asIdx)
		}
		r.members[mi.Port] = m // later registrations win, as in the pipeline
	}
	return r
}

func (r *refClassifier) classify(f ipfix.Flow) (v Verdict) {
	src := f.SrcAddr
	m, known := r.members[f.Ingress]
	for _, b := range r.bogons {
		if b.Contains(src) {
			v.Class = ClassBogon
			v.KnownMember = known
			return v
		}
	}
	var covers []bgp.ASN // origins of the covering routed prefixes, shortest first
	for bits := 0; bits <= 32; bits++ {
		if o, ok := r.origins[bits][netx.PrefixFrom(src, uint8(bits)).Addr]; ok {
			covers = append(covers, o)
		}
	}
	if len(covers) == 0 {
		v.Class = ClassUnrouted
		v.KnownMember = known
		return v
	}
	v.SrcOrigin = covers[len(covers)-1]
	if r.routers != nil {
		v.RouterIP = r.routers.Contains(src)
	}
	if !known {
		v.Class = ClassValid
		return v
	}
	v.KnownMember = true
	if m.asIdx < 0 {
		v.Class = ClassValid
		return v
	}
	naiveValid := m.naive.Contains(src)
	ccValid, fcValid := false, false
	for _, o := range covers {
		if i := r.graph.Index(o); i >= 0 {
			ccValid = ccValid || m.cc.Test(i)
			fcValid = fcValid || m.fc.Test(i)
		}
	}
	v.Invalid = [numApproaches]bool{!naiveValid, !ccValid, !fcValid}
	if !naiveValid || !ccValid || !fcValid {
		v.Class = ClassInvalid
	}
	return v
}
