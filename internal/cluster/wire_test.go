package cluster

import (
	"bytes"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"zipg/internal/graphapi"
	"zipg/internal/rpc"
)

// wireType is one payload type: a fresh value to decode into, and a
// random value to encode (round trip and fuzz seeds).
type wireType struct {
	name string
	new  func() rpc.Wirer
	rand func(rng *rand.Rand) rpc.Wirer
}

func randStrings(rng *rand.Rand) []string {
	var out []string
	for i := rng.Intn(4); i > 0; i-- {
		out = append(out, string(rune('a'+rng.Intn(26)))+"\x00é"[:rng.Intn(3)])
	}
	return out
}

func randProps(rng *rand.Rand) map[string]string {
	var out map[string]string
	for _, k := range randStrings(rng) {
		if out == nil {
			out = map[string]string{}
		}
		out[k] = k + "v"
	}
	return out
}

func randIDs(rng *rand.Rand) []graphapi.NodeID {
	var ids []graphapi.NodeID
	for i := rng.Intn(6); i > 0; i-- {
		ids = append(ids, rng.Int63()-rng.Int63())
	}
	return ids
}

func randEdges(rng *rand.Rand) []graphapi.EdgeData {
	var out []graphapi.EdgeData
	for i := rng.Intn(4); i > 0; i-- {
		out = append(out, graphapi.EdgeData{Dst: rng.Int63() - rng.Int63(), Timestamp: rng.Int63(), Props: randProps(rng)})
	}
	return out
}

// wireTypes lists every argument and reply type. New types go at the
// end: a fuzz corpus entry picks its type by index.
var wireTypes = []wireType{
	{"nodePropsArgs", func() rpc.Wirer { return new(nodePropsArgs) }, func(rng *rand.Rand) rpc.Wirer {
		return &nodePropsArgs{ID: rng.Int63() - rng.Int63(), PIDs: randStrings(rng)}
	}},
	{"nodePropsReply", func() rpc.Wirer { return new(nodePropsReply) }, func(rng *rand.Rand) rpc.Wirer {
		return &nodePropsReply{Vals: randStrings(rng), OK: rng.Intn(2) == 0}
	}},
	{"recArgs", func() rpc.Wirer { return new(recArgs) }, func(rng *rand.Rand) rpc.Wirer {
		return &recArgs{ID: rng.Int63(), EType: int64(rng.Intn(5)) - 1}
	}},
	{"recMetaReply", func() rpc.Wirer { return new(recMetaReply) }, func(rng *rand.Rand) rpc.Wirer {
		return &recMetaReply{Count: rng.Intn(1 << 20), OK: rng.Intn(2) == 0}
	}},
	{"recRangeArgs", func() rpc.Wirer { return new(recRangeArgs) }, func(rng *rand.Rand) rpc.Wirer {
		return &recRangeArgs{ID: rng.Int63(), EType: int64(rng.Intn(5)), Lo: rng.Int63(), Hi: 1<<63 - 1}
	}},
	{"rangeReply", func() rpc.Wirer { return new(rangeReply) }, func(rng *rand.Rand) rpc.Wirer {
		return &rangeReply{Beg: rng.Intn(100), End: rng.Intn(100)}
	}},
	{"edgesReply", func() rpc.Wirer { return new(edgesReply) }, func(rng *rand.Rand) rpc.Wirer {
		return &edgesReply{Edges: randEdges(rng)}
	}},
	{"idsReply", func() rpc.Wirer { return new(idsReply) }, func(rng *rand.Rand) rpc.Wirer {
		return &idsReply{IDs: randIDs(rng)}
	}},
	{"matchBatchArgs", func() rpc.Wirer { return new(matchBatchArgs) }, func(rng *rand.Rand) rpc.Wirer {
		return &matchBatchArgs{IDs: randIDs(rng), Props: randProps(rng)}
	}},
	{"matchesReply", func() rpc.Wirer { return new(matchesReply) }, func(rng *rand.Rand) rpc.Wirer {
		var m []bool
		for i := rng.Intn(6); i > 0; i-- {
			m = append(m, rng.Intn(2) == 0)
		}
		return &matchesReply{Matches: m}
	}},
	{"propsArgs", func() rpc.Wirer { return new(propsArgs) }, func(rng *rand.Rand) rpc.Wirer {
		return &propsArgs{Props: randProps(rng)}
	}},
	{"neighborsArgs", func() rpc.Wirer { return new(neighborsArgs) }, func(rng *rand.Rand) rpc.Wirer {
		return &neighborsArgs{IDs: randIDs(rng), EType: int64(rng.Intn(5)) - 1, Props: randProps(rng)}
	}},
	{"recsMetaReply", func() rpc.Wirer { return new(recsMetaReply) }, func(rng *rand.Rand) rpc.Wirer {
		var p recsMetaReply
		for i := rng.Intn(4); i > 0; i-- {
			p.Types = append(p.Types, int64(rng.Intn(8)))
			p.Counts = append(p.Counts, rng.Intn(1<<16))
		}
		return &p
	}},
	{"appendNodeArgs", func() rpc.Wirer { return new(appendNodeArgs) }, func(rng *rand.Rand) rpc.Wirer {
		return &appendNodeArgs{ID: rng.Int63() - rng.Int63(), Props: randProps(rng)}
	}},
	{"edgeArgs", func() rpc.Wirer { return new(edgeArgs) }, func(rng *rand.Rand) rpc.Wirer {
		return &edgeArgs{Src: rng.Int63(), Dst: rng.Int63() - rng.Int63(), Type: int64(rng.Intn(5)), Timestamp: rng.Int63(), Props: randProps(rng)}
	}},
	{"deleteEdgesArgs", func() rpc.Wirer { return new(deleteEdgesArgs) }, func(rng *rand.Rand) rpc.Wirer {
		return &deleteEdgesArgs{Src: rng.Int63(), Type: int64(rng.Intn(5)), Dst: rng.Int63() - rng.Int63()}
	}},
	{"countReply", func() rpc.Wirer { return new(countReply) }, func(rng *rand.Rand) rpc.Wirer {
		return &countReply{N: rng.Intn(1 << 20)}
	}},
	{"pathArgs", func() rpc.Wirer { return new(pathArgs) }, func(rng *rand.Rand) rpc.Wirer {
		return &pathArgs{Src: rng.Int63(), Dst: rng.Int63(), Lo: rng.Int63n(1000), Hi: rng.Int63(), MaxHops: rng.Intn(8)}
	}},
	{"pathReply", func() rpc.Wirer { return new(pathReply) }, func(rng *rand.Rand) rpc.Wirer {
		return &pathReply{Found: rng.Intn(2) == 0, Hops: rng.Intn(8), Path: randIDs(rng)}
	}},
	{"readEdgesArgs", func() rpc.Wirer { return new(readEdgesArgs) }, func(rng *rand.Rand) rpc.Wirer {
		return &readEdgesArgs{ID: rng.Int63() - rng.Int63(), EType: int64(rng.Intn(5)), Query: randQuery(rng)}
	}},
	{"expandArgs", func() rpc.Wirer { return new(expandArgs) }, func(rng *rand.Rand) rpc.Wirer {
		return &expandArgs{IDs: randIDs(rng), EType: int64(rng.Intn(5)) - 1, Query: randQuery(rng), WithData: rng.Intn(2) == 0}
	}},
	{"expandReply", func() rpc.Wirer { return new(expandReply) }, func(rng *rand.Rand) rpc.Wirer {
		var p expandReply
		for i := rng.Intn(4); i > 0; i-- {
			p.Edges = append(p.Edges, randEdges(rng))
		}
		return &p
	}},
}

func randQuery(rng *rand.Rand) graphapi.EdgeQuery {
	if rng.Intn(2) == 0 {
		return graphapi.InWindow(rng.Int63n(1000)-1, rng.Int63()-1, []int{rng.Intn(40), graphapi.NoLimit}[rng.Intn(2)])
	}
	return graphapi.ByOrder(rng.Intn(40)-4, rng.Intn(40)-4)
}

// encode is v's payload, as a call or reply carries it.
func encode(t testing.TB, v rpc.Wirer) []byte {
	t.Helper()
	b, err := rpc.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWireRoundTrip: every payload type decodes to what was encoded,
// nil slices and maps included (the rand helpers produce them), and an
// empty-but-non-nil one comes back nil.
func TestWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, wt := range wireTypes {
		for i := 0; i < 200; i++ {
			sent := wt.rand(rng)
			got := wt.new()
			if err := rpc.DecodeArgs(encode(t, sent), got); err != nil {
				t.Fatalf("%s: %v", wt.name, err)
			}
			if !reflect.DeepEqual(got, sent) {
				t.Fatalf("%s: got %+v, sent %+v", wt.name, got, sent)
			}
		}
	}
	var props nodePropsReply
	if err := rpc.DecodeArgs(encode(t, &nodePropsReply{Vals: []string{}, OK: true}), &props); err != nil || props.Vals != nil || !props.OK {
		t.Fatalf("empty Vals decoded as %+v, %v", props, err)
	}
	var got edgesReply
	if err := rpc.DecodeArgs(encode(t, &edgesReply{Edges: []graphapi.EdgeData{{Dst: 1, Props: map[string]string{}}}}), &got); err != nil || got.Edges[0].Props != nil {
		t.Fatalf("empty Props decoded as %+v, %v", got, err)
	}
}

// wireGolden fixes the payloads of the TAO read path's methods, both
// directions: the bytes they had before every payload was coded by a
// Wire method, and ReadEdges's as it was introduced; and those of the
// hop, Expand, and of the frontier Neighbors query.
var wireGolden = []struct {
	name string
	v    rpc.Wirer
	hex  string
}{
	{"NodeProps args", &nodePropsArgs{ID: 42, PIDs: []string{"city", "name"}}, "0154020463697479046e616d65"},
	{"NodeProps reply", &nodePropsReply{Vals: []string{"Ithaca", ""}, OK: true}, "0101020649746861636100"},
	{"RecMeta args", &recArgs{ID: -7, EType: 3}, "010d06"},
	{"RecMeta reply", &recMetaReply{Count: 300, OK: true}, "0101d804"},
	{"RecRange args", &recRangeArgs{ID: 42, EType: 1, Lo: 100, Hi: math.MaxInt64}, "015402c801feffffffffffffffff01"},
	{"RecRange reply", &rangeReply{Beg: 2, End: 17}, "010422"},
	{"ReadEdges args, by order", &readEdgesArgs{ID: 42, EType: 1, Query: graphapi.ByOrder(2, 10)}, "01540200041814"},
	{"ReadEdges args, by time", &readEdgesArgs{ID: 42, EType: 1, Query: graphapi.InWindow(100, graphapi.WildcardTime, graphapi.NoLimit)}, "01540201c80101feffffffffffffffff01"},
	{"ReadEdges reply", &edgesReply{Edges: []graphapi.EdgeData{{Dst: 9, Timestamp: 1000, Props: map[string]string{"w": "5"}}, {Dst: -3, Timestamp: 1001}}}, "010212d00f010177013505d20f00"},
	{"RecsMeta args", &recArgs{ID: 42}, "015400"},
	{"Neighbors args", &neighborsArgs{IDs: []graphapi.NodeID{42, 7}, EType: graphapi.WildcardType, Props: map[string]string{"city": "Ithaca"}}, "0102540e0101046369747906497468616361"},
	{"Neighbors reply", &idsReply{IDs: []graphapi.NodeID{9, -3, 1 << 40}}, "01031205808080808040"},
	{"Expand args", &expandArgs{IDs: []graphapi.NodeID{42, -7}, EType: graphapi.WildcardType, Query: graphapi.ByOrder(0, graphapi.NoLimit), WithData: true}, "0102540d010000feffffffffffffffff01feffffffffffffffff0101"},
	{"Expand reply", &expandReply{Edges: [][]graphapi.EdgeData{{{Dst: 9, Timestamp: 1000, Props: map[string]string{"w": "5"}}}, nil, {{Dst: -3}}}}, "01030112d00f01017701350001050000"},
}

func TestWireGolden(t *testing.T) {
	for _, g := range wireGolden {
		if got := hex.EncodeToString(encode(t, g.v)); got != g.hex {
			t.Errorf("%s: payload %s, want %s", g.name, got, g.hex)
		}
	}
}

// TestConcurrentEncode encodes one shared reply from several goroutines:
// encoding only reads the value's fields, so the race detector finds
// nothing and every copy is the same bytes.
func TestConcurrentEncode(t *testing.T) {
	shared := &edgesReply{Edges: []graphapi.EdgeData{
		{Dst: 9, Timestamp: 1000, Props: map[string]string{"w": "5"}},
		{Dst: -3, Timestamp: 1001},
		{Dst: 4, Timestamp: 1002, Props: map[string]string{}},
	}}
	want := encode(t, shared)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got, err := rpc.Encode(shared); err != nil || !bytes.Equal(got, want) {
					t.Errorf("encoded %x, %v; want %x", got, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzDecodeWire feeds arbitrary payloads to each payload type's decoder
// (kind picks which). The outcome is a value or an error, never a panic,
// and a value holds no more elements than the bytes could spell out;
// what decodes must encode and decode again to itself.
func FuzzDecodeWire(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for kind, wt := range wireTypes {
		for i := 0; i < 3; i++ {
			f.Add(uint8(kind), encode(f, wt.rand(rng)))
		}
	}
	// The golden payloads too: well-formed hot-path bytes to mutate.
	for _, g := range wireGolden {
		for kind, wt := range wireTypes {
			if reflect.TypeOf(wt.new()) == reflect.TypeOf(g.v) {
				f.Add(uint8(kind), encode(f, g.v))
			}
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, b []byte) {
		wt := wireTypes[int(kind)%len(wireTypes)]
		v := wt.new()
		if err := rpc.DecodeArgs(b, v); err != nil {
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
		case *expandReply:
			n := len(v.Edges)
			for _, es := range v.Edges {
				n += 3 * len(es)
			}
			if n > len(b) {
				t.Fatalf("%d edge lists of %d bytes' worth from %d bytes", len(v.Edges), n, len(b))
			}
		}
		again := wt.new()
		if err := rpc.DecodeArgs(encode(t, v), again); err != nil || !reflect.DeepEqual(again, v) {
			t.Fatalf("%s: round trip = %+v, %v; want %+v", wt.name, again, err, v)
		}
	})
}
