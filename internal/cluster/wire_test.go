package cluster

import (
	"math/rand"
	"reflect"
	"testing"

	"zipg/internal/graphapi"
	"zipg/internal/rpc"
)

// wireType is one hand-written payload type: a fresh value to decode
// into, and a random value to encode (round trip and fuzz seeds).
type wireType struct {
	name string
	new  func() rpc.WireDecoder
	rand func(rng *rand.Rand) rpc.WireAppender
}

func randStrings(rng *rand.Rand) []string {
	var out []string
	for i := rng.Intn(4); i > 0; i-- {
		out = append(out, string(rune('a'+rng.Intn(26)))+"\x00é"[:rng.Intn(3)])
	}
	return out
}

func randEdges(rng *rand.Rand) []graphapi.EdgeData {
	var out []graphapi.EdgeData
	for i := rng.Intn(4); i > 0; i-- {
		e := graphapi.EdgeData{Dst: rng.Int63() - rng.Int63(), Timestamp: rng.Int63()}
		for _, k := range randStrings(rng) {
			if e.Props == nil {
				e.Props = map[string]string{}
			}
			e.Props[k] = k + "v"
		}
		out = append(out, e)
	}
	return out
}

var wireTypes = []wireType{
	{"nodePropsArgs", func() rpc.WireDecoder { return new(nodePropsArgs) }, func(rng *rand.Rand) rpc.WireAppender {
		return nodePropsArgs{ID: rng.Int63() - rng.Int63(), PIDs: randStrings(rng)}
	}},
	{"nodePropsReply", func() rpc.WireDecoder { return new(nodePropsReply) }, func(rng *rand.Rand) rpc.WireAppender {
		return nodePropsReply{Vals: randStrings(rng), OK: rng.Intn(2) == 0}
	}},
	{"recArgs", func() rpc.WireDecoder { return new(recArgs) }, func(rng *rand.Rand) rpc.WireAppender {
		return recArgs{ID: rng.Int63(), EType: int64(rng.Intn(5)) - 1}
	}},
	{"recMetaReply", func() rpc.WireDecoder { return new(recMetaReply) }, func(rng *rand.Rand) rpc.WireAppender {
		return recMetaReply{Count: rng.Intn(1 << 20), OK: rng.Intn(2) == 0}
	}},
	{"recRangeArgs", func() rpc.WireDecoder { return new(recRangeArgs) }, func(rng *rand.Rand) rpc.WireAppender {
		return recRangeArgs{ID: rng.Int63(), EType: int64(rng.Intn(5)), Lo: rng.Int63(), Hi: 1<<63 - 1}
	}},
	{"rangeReply", func() rpc.WireDecoder { return new(rangeReply) }, func(rng *rand.Rand) rpc.WireAppender {
		return rangeReply{Beg: rng.Intn(100), End: rng.Intn(100)}
	}},
	{"edgesReply", func() rpc.WireDecoder { return new(edgesReply) }, func(rng *rand.Rand) rpc.WireAppender {
		return edgesReply{Edges: randEdges(rng)}
	}},
	{"idsReply", func() rpc.WireDecoder { return new(idsReply) }, func(rng *rand.Rand) rpc.WireAppender {
		var ids []graphapi.NodeID
		for i := rng.Intn(6); i > 0; i-- {
			ids = append(ids, rng.Int63()-rng.Int63())
		}
		return idsReply{IDs: ids}
	}},
}

// TestWireRoundTrip: every hand-written payload type decodes to what was
// encoded, nil slices and maps included (randStrings and randEdges
// produce them), and an empty-but-non-nil one comes back nil.
func TestWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, wt := range wireTypes {
		for i := 0; i < 200; i++ {
			sent := wt.rand(rng)
			got := wt.new()
			if err := got.DecodeWire(sent.AppendWire(nil)); err != nil {
				t.Fatalf("%s: %v", wt.name, err)
			}
			if !reflect.DeepEqual(reflect.ValueOf(got).Elem().Interface(), sent) {
				t.Fatalf("%s: got %+v, sent %+v", wt.name, got, sent)
			}
		}
	}
	var props nodePropsReply
	if err := props.DecodeWire(nodePropsReply{Vals: []string{}, OK: true}.AppendWire(nil)); err != nil || props.Vals != nil || !props.OK {
		t.Fatalf("empty Vals decoded as %+v, %v", props, err)
	}
	edges := edgesReply{Edges: []graphapi.EdgeData{{Dst: 1, Props: map[string]string{}}}}
	var got edgesReply
	if err := got.DecodeWire(edges.AppendWire(nil)); err != nil || got.Edges[0].Props != nil {
		t.Fatalf("empty Props decoded as %+v, %v", got, err)
	}
}

// FuzzDecodeWire feeds arbitrary bytes to each hand-written payload
// decoder (kind picks which). The outcome is a value or an error, never
// a panic, and a value holds no more elements than the bytes could
// spell out; what decodes must encode and decode again to itself.
func FuzzDecodeWire(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for kind, wt := range wireTypes {
		for i := 0; i < 3; i++ {
			f.Add(uint8(kind), wt.rand(rng).AppendWire(nil))
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, b []byte) {
		wt := wireTypes[int(kind)%len(wireTypes)]
		v := wt.new()
		if err := v.DecodeWire(b); err != nil {
			return
		}
		switch v := v.(type) {
		case *edgesReply:
			if 3*len(v.Edges) > len(b) {
				t.Fatalf("%d edges from %d bytes", len(v.Edges), len(b))
			}
		case *idsReply:
			if len(v.IDs) > len(b) {
				t.Fatalf("%d ids from %d bytes", len(v.IDs), len(b))
			}
		}
		again := wt.new()
		if err := again.DecodeWire(v.(rpc.WireAppender).AppendWire(nil)); err != nil || !reflect.DeepEqual(again, v) {
			t.Fatalf("%s: round trip = %+v, %v; want %+v", wt.name, again, err, v)
		}
	})
}
