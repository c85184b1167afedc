package cluster

import (
	"encoding/binary"

	"zipg/internal/graphapi"
	"zipg/internal/rpc"
)

// Hand-written wire forms (rpc.WireAppender / rpc.WireDecoder) of the
// argument and reply types on the TAO read path, where a gob stream per
// value — type descriptors re-sent and re-compiled every call — cost
// more than the store read it carried. Every other type in this package
// still travels as gob. Integers are signed varints, strings and
// sequences carry a uvarint length; empty slices and maps decode as nil.

func (a nodePropsArgs) AppendWire(b []byte) []byte {
	return rpc.AppendStrings(binary.AppendVarint(b, a.ID), a.PIDs)
}

func (a *nodePropsArgs) DecodeWire(b []byte) error {
	r := rpc.NewWireReader(b)
	a.ID, a.PIDs = r.Varint(), r.Strings()
	return r.Done()
}

func (p nodePropsReply) AppendWire(b []byte) []byte {
	return rpc.AppendStrings(rpc.AppendBool(b, p.OK), p.Vals)
}

func (p *nodePropsReply) DecodeWire(b []byte) error {
	r := rpc.NewWireReader(b)
	p.OK, p.Vals = r.Bool(), r.Strings()
	return r.Done()
}

func (a recArgs) AppendWire(b []byte) []byte {
	return binary.AppendVarint(binary.AppendVarint(b, a.ID), a.EType)
}

func (a *recArgs) DecodeWire(b []byte) error {
	r := rpc.NewWireReader(b)
	a.ID, a.EType = r.Varint(), r.Varint()
	return r.Done()
}

func (p recMetaReply) AppendWire(b []byte) []byte {
	return binary.AppendVarint(rpc.AppendBool(b, p.OK), int64(p.Count))
}

func (p *recMetaReply) DecodeWire(b []byte) error {
	r := rpc.NewWireReader(b)
	p.OK, p.Count = r.Bool(), int(r.Varint())
	return r.Done()
}

func (a recRangeArgs) AppendWire(b []byte) []byte {
	b = binary.AppendVarint(binary.AppendVarint(b, a.ID), a.EType)
	return binary.AppendVarint(binary.AppendVarint(b, a.Lo), a.Hi)
}

func (a *recRangeArgs) DecodeWire(b []byte) error {
	r := rpc.NewWireReader(b)
	a.ID, a.EType, a.Lo, a.Hi = r.Varint(), r.Varint(), r.Varint(), r.Varint()
	return r.Done()
}

func (p rangeReply) AppendWire(b []byte) []byte {
	return binary.AppendVarint(binary.AppendVarint(b, int64(p.Beg)), int64(p.End))
}

func (p *rangeReply) DecodeWire(b []byte) error {
	r := rpc.NewWireReader(b)
	p.Beg, p.End = int(r.Varint()), int(r.Varint())
	return r.Done()
}

func (p edgesReply) AppendWire(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p.Edges)))
	for i := range p.Edges {
		e := &p.Edges[i]
		b = binary.AppendVarint(binary.AppendVarint(b, e.Dst), e.Timestamp)
		b = rpc.AppendStringMap(b, e.Props)
	}
	return b
}

func (p *edgesReply) DecodeWire(b []byte) error {
	r := rpc.NewWireReader(b)
	p.Edges = nil
	if n := r.Count(3); n > 0 { // an edge is at least dst, timestamp, prop count
		p.Edges = make([]graphapi.EdgeData, n)
		for i := range p.Edges {
			p.Edges[i] = graphapi.EdgeData{Dst: r.Varint(), Timestamp: r.Varint(), Props: r.StringMap()}
		}
	}
	return r.Done()
}

func (p idsReply) AppendWire(b []byte) []byte { return rpc.AppendVarints(b, p.IDs) }

func (p *idsReply) DecodeWire(b []byte) error {
	r := rpc.NewWireReader(b)
	p.IDs = r.Varints()
	return r.Done()
}
