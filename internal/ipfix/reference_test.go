package ipfix

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"spoofscope/internal/netx"
)

// refIELengths is the map the decoder consulted per field per record before
// templates were compiled on arrival.
var refIELengths = map[uint16]uint16{
	IEOctetDeltaCount:       8,
	IEPacketDeltaCount:      8,
	IEProtocolIdentifier:    1,
	IETCPControlBits:        1,
	IESourceTransportPort:   2,
	IESourceIPv4Address:     4,
	IEIngressInterface:      4,
	IEDestTransportPort:     2,
	IEDestIPv4Address:       4,
	IEEgressInterface:       4,
	IEFlowStartMilliseconds: 8,
}

type refField struct{ id, length uint16 }

type refTemplate struct {
	fields []refField
	size   int
}

// refDecoder is the map-driven parser the compiled-template Decoder
// replaced, kept as the differential oracle: same framing, same template
// registry and refresh rule, same counters, but every record looks each
// field's canonical length up in refIELengths.
type refDecoder struct {
	templates       map[uint64]*refTemplate
	Messages        int
	RecordsDecoded  int
	RecordsSkipped  int
	UnknownSetsSeen int
}

func newRefDecoder() *refDecoder { return &refDecoder{templates: make(map[uint64]*refTemplate)} }

func (d *refDecoder) referenceDecode(msg []byte, dst []Flow) ([]Flow, error) {
	if len(msg) < msgHeaderLen {
		return dst, errors.New("ipfix: truncated message header")
	}
	if v := binary.BigEndian.Uint16(msg); v != version {
		return dst, fmt.Errorf("ipfix: unsupported version %d", v)
	}
	total := int(binary.BigEndian.Uint16(msg[2:]))
	if total != len(msg) {
		return dst, fmt.Errorf("ipfix: length mismatch: header %d, have %d", total, len(msg))
	}
	domain := binary.BigEndian.Uint32(msg[12:])
	d.Messages++
	p := msg[msgHeaderLen:]
	for len(p) > 0 {
		if len(p) < setHeaderLen {
			return dst, errors.New("ipfix: truncated set header")
		}
		setID := binary.BigEndian.Uint16(p)
		setLen := int(binary.BigEndian.Uint16(p[2:]))
		if setLen < setHeaderLen || setLen > len(p) {
			return dst, fmt.Errorf("ipfix: bad set length %d", setLen)
		}
		body := p[setHeaderLen:setLen]
		switch {
		case setID == 2:
			if err := d.parseTemplates(domain, body); err != nil {
				return dst, err
			}
		case setID >= 256:
			dst = d.parseData(domain, setID, body, dst)
		default:
			d.UnknownSetsSeen++
		}
		p = p[setLen:]
	}
	return dst, nil
}

func (d *refDecoder) parseTemplates(domain uint32, b []byte) error {
	for len(b) >= 4 {
		id := binary.BigEndian.Uint16(b)
		count := int(binary.BigEndian.Uint16(b[2:]))
		b = b[4:]
		if len(b) < 4*count {
			return errors.New("ipfix: truncated template record")
		}
		if old, ok := d.templates[tkey(domain, id)]; ok && len(old.fields) == count {
			same := true
			for i := 0; i < count; i++ {
				f := refField{binary.BigEndian.Uint16(b[4*i:]), binary.BigEndian.Uint16(b[4*i+2:])}
				if old.fields[i] != f {
					same = false
					break
				}
			}
			if same {
				b = b[4*count:]
				continue
			}
		}
		t := &refTemplate{}
		for i := 0; i < count; i++ {
			ie := binary.BigEndian.Uint16(b[4*i:])
			if ie&0x8000 != 0 {
				return errors.New("ipfix: enterprise IEs unsupported")
			}
			l := binary.BigEndian.Uint16(b[4*i+2:])
			if l == 0xffff {
				return errors.New("ipfix: variable-length IEs unsupported")
			}
			t.fields = append(t.fields, refField{ie, l})
			t.size += int(l)
		}
		b = b[4*count:]
		if t.size == 0 {
			return errors.New("ipfix: empty template")
		}
		d.templates[tkey(domain, id)] = t
	}
	return nil
}

func (d *refDecoder) parseData(domain uint32, setID uint16, b []byte, dst []Flow) []Flow {
	t, ok := d.templates[tkey(domain, setID)]
	if !ok {
		d.RecordsSkipped++
		return dst
	}
	for len(b) >= t.size {
		var f Flow
		off := 0
		for _, fld := range t.fields {
			v := b[off : off+int(fld.length)]
			if fld.length != refIELengths[fld.id] {
				off += int(fld.length)
				continue
			}
			switch fld.id {
			case IEFlowStartMilliseconds:
				f.Start = time.UnixMilli(int64(binary.BigEndian.Uint64(v))).UTC()
			case IESourceIPv4Address:
				f.SrcAddr = netx.Addr(binary.BigEndian.Uint32(v))
			case IEDestIPv4Address:
				f.DstAddr = netx.Addr(binary.BigEndian.Uint32(v))
			case IESourceTransportPort:
				f.SrcPort = binary.BigEndian.Uint16(v)
			case IEDestTransportPort:
				f.DstPort = binary.BigEndian.Uint16(v)
			case IEProtocolIdentifier:
				f.Protocol = v[0]
			case IETCPControlBits:
				f.TCPFlags = v[0]
			case IEPacketDeltaCount:
				f.Packets = binary.BigEndian.Uint64(v)
			case IEOctetDeltaCount:
				f.Bytes = binary.BigEndian.Uint64(v)
			case IEIngressInterface:
				f.Ingress = binary.BigEndian.Uint32(v)
			case IEEgressInterface:
				f.Egress = binary.BigEndian.Uint32(v)
			}
			off += int(fld.length)
		}
		dst = append(dst, f)
		d.RecordsDecoded++
		b = b[t.size:]
	}
	return dst
}

// buildMessage frames sets into one IPFIX message for domain.
func buildMessage(domain uint32, sets ...[]byte) []byte {
	msg := make([]byte, msgHeaderLen)
	for _, s := range sets {
		msg = append(msg, s...)
	}
	binary.BigEndian.PutUint16(msg[0:], version)
	binary.BigEndian.PutUint16(msg[2:], uint16(len(msg)))
	binary.BigEndian.PutUint32(msg[12:], domain)
	return msg
}

// templateSet builds a template set announcing one template of
// (IE, length) pairs.
func templateSet(id uint16, fields ...[2]uint16) []byte {
	s := binary.BigEndian.AppendUint16(nil, 2)
	s = binary.BigEndian.AppendUint16(s, uint16(setHeaderLen+4+4*len(fields)))
	s = binary.BigEndian.AppendUint16(s, id)
	s = binary.BigEndian.AppendUint16(s, uint16(len(fields)))
	for _, f := range fields {
		s = binary.BigEndian.AppendUint16(s, f[0])
		s = binary.BigEndian.AppendUint16(s, f[1])
	}
	return s
}

// dataSet builds a data set for template id from raw record bytes.
func dataSet(id uint16, records ...byte) []byte {
	s := binary.BigEndian.AppendUint16(nil, id)
	s = binary.BigEndian.AppendUint16(s, uint16(setHeaderLen+len(records)))
	return append(s, records...)
}

// decodeCase is one message stream the compiled decoder must decode exactly
// as the reference does.
type decodeCase struct {
	name string
	msgs [][]byte
	want []Flow
}

func decodeCases() []decodeCase {
	canonical := NewEncoder(3).Encode(t0, []Flow{sampleFlow(0), sampleFlow(1), sampleFlow(2)})
	// The TestDecodeForeignTemplateSubset message: a foreign field order
	// with an unknown IE between two known ones.
	foreign := buildMessage(9,
		templateSet(300, [2]uint16{IESourceIPv4Address, 4}, [2]uint16{999, 2}, [2]uint16{IEDestTransportPort, 2}),
		dataSet(300, 203, 0, 113, 9, 0xde, 0xad, 0, 53))
	// destinationTransportPort advertised at 4 bytes: skipped by length,
	// while the fields around it still decode.
	nonCanonical := buildMessage(4,
		templateSet(301, [2]uint16{IESourceIPv4Address, 4}, [2]uint16{IEDestTransportPort, 4}, [2]uint16{IEProtocolIdentifier, 1}),
		dataSet(301, 198, 51, 100, 7, 0, 80, 0, 0, ProtoUDP))
	// Template 302 re-announced with destinationTransportPort grown from 2
	// to 4 bytes: the refresh must rebuild the template, so the second
	// record is sized 8 and its port is skipped.
	refresh := [][]byte{
		buildMessage(5,
			templateSet(302, [2]uint16{IESourceIPv4Address, 4}, [2]uint16{IEDestTransportPort, 2}),
			dataSet(302, 192, 0, 2, 1, 0, 53)),
		buildMessage(5,
			templateSet(302, [2]uint16{IESourceIPv4Address, 4}, [2]uint16{IEDestTransportPort, 4}),
			dataSet(302, 192, 0, 2, 2, 0, 53, 0, 0)),
	}
	return []decodeCase{
		{name: "canonical", msgs: canonical,
			want: []Flow{sampleFlow(0), sampleFlow(1), sampleFlow(2)}},
		{name: "foreign-subset", msgs: [][]byte{foreign},
			want: []Flow{{SrcAddr: netx.MustParseAddr("203.0.113.9"), DstPort: 53}}},
		{name: "non-canonical-length", msgs: [][]byte{nonCanonical},
			want: []Flow{{SrcAddr: netx.MustParseAddr("198.51.100.7"), Protocol: ProtoUDP}}},
		{name: "refresh-changed-length", msgs: refresh,
			want: []Flow{
				{SrcAddr: netx.MustParseAddr("192.0.2.1"), DstPort: 53},
				{SrcAddr: netx.MustParseAddr("192.0.2.2")},
			}},
	}
}

// diffDecode feeds msgs to a fresh Decoder and a fresh reference decoder,
// failing on any difference in errors, flows or counters. It returns the
// decoder's flows and counters.
func diffDecode(t *testing.T, msgs [][]byte) ([]Flow, *Decoder) {
	t.Helper()
	dec, ref := NewDecoder(), newRefDecoder()
	var got, want []Flow
	for i, m := range msgs {
		var gerr, werr error
		got, gerr = dec.AppendFlows(m, got)
		want, werr = ref.referenceDecode(m, want)
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("message %d: error %v, reference %v", i, gerr, werr)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flows differ from reference:\n got %+v\nwant %+v", got, want)
	}
	if dec.Messages != ref.Messages || dec.RecordsDecoded != ref.RecordsDecoded ||
		dec.RecordsSkipped != ref.RecordsSkipped || dec.UnknownSetsSeen != ref.UnknownSetsSeen {
		t.Fatalf("counters (msgs %d decoded %d skipped %d unknown %d), reference (%d %d %d %d)",
			dec.Messages, dec.RecordsDecoded, dec.RecordsSkipped, dec.UnknownSetsSeen,
			ref.Messages, ref.RecordsDecoded, ref.RecordsSkipped, ref.UnknownSetsSeen)
	}
	return got, dec
}

// TestDecodeMatchesReference pins the compiled-template decoder to the
// map-driven reference on the four template shapes that matter: the
// canonical template, a foreign subset, a known IE at a non-canonical
// length, and a refresh that changes one length.
func TestDecodeMatchesReference(t *testing.T) {
	for _, tc := range decodeCases() {
		t.Run(tc.name, func(t *testing.T) {
			got, dec := diffDecode(t, tc.msgs)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("decoded %+v, want %+v", got, tc.want)
			}
			if dec.RecordsDecoded != len(tc.want) || dec.RecordsSkipped != 0 {
				t.Fatalf("decoded %d skipped %d, want %d and 0",
					dec.RecordsDecoded, dec.RecordsSkipped, len(tc.want))
			}
		})
	}
}

// splitMessages frames a fuzz input into messages by their header length
// fields; a tail that does not frame is passed through whole, so the
// decoder sees malformed messages too.
func splitMessages(b []byte) [][]byte {
	var msgs [][]byte
	for len(b) > 0 {
		if len(b) < 4 {
			return append(msgs, b)
		}
		n := int(binary.BigEndian.Uint16(b[2:]))
		if n < msgHeaderLen || n > len(b) {
			return append(msgs, b)
		}
		msgs = append(msgs, b[:n])
		b = b[n:]
	}
	return msgs
}

// FuzzDecode is the differential target: any stream of messages must decode
// to the same flows, errors and counters as the reference decoder.
func FuzzDecode(f *testing.F) {
	for _, tc := range decodeCases() {
		f.Add(bytes.Join(tc.msgs, nil))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		diffDecode(t, splitMessages(b))
	})
}
