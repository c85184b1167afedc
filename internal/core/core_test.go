package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"zipg/internal/layout"
	"zipg/internal/memsim"
	"zipg/internal/succinct"
)

func buildTestShard(t testing.TB) (*Shard, []layout.Node, []layout.Edge) {
	t.Helper()
	return buildShardWith(t, "city", "name")
}

// buildShardWith is buildTestShard with the node properties a subset of
// city and name.
func buildShardWith(t testing.TB, nodeProps ...string) (*Shard, []layout.Node, []layout.Edge) {
	t.Helper()
	ns, err := layout.NewPropertySchema(nodeProps, 64)
	if err != nil {
		t.Fatal(err)
	}
	es, err := layout.NewPropertySchema([]string{"w"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]layout.Node, 25)
	for i := range nodes {
		all := map[string]string{"city": fmt.Sprintf("c%d", i%4), "name": fmt.Sprintf("n%d", i)}
		nodes[i] = layout.Node{ID: int64(i), Props: map[string]string{}}
		for _, p := range nodeProps {
			nodes[i].Props[p] = all[p]
		}
	}
	var edges []layout.Edge
	for i := 0; i < 80; i++ {
		edges = append(edges, layout.Edge{
			Src: int64(i % 25), Dst: int64((i * 7) % 25), Type: int64(i % 2),
			Timestamp: int64(i), Props: map[string]string{"w": fmt.Sprint(i)},
		})
	}
	sh, err := Build(nodes, edges, ns, es, Options{SamplingRate: 4})
	if err != nil {
		t.Fatal(err)
	}
	return sh, nodes, edges
}

func TestShardQueries(t *testing.T) {
	sh, nodes, _ := buildTestShard(t)
	for _, n := range nodes {
		props, ok := sh.Nodes().GetAllProps(n.ID)
		if !ok || !reflect.DeepEqual(props, n.Props) {
			t.Fatalf("node %d: %v, want %v", n.ID, props, n.Props)
		}
	}
	ref, ok := sh.Edges().GetEdgeRecord(3, 0)
	if !ok || ref.Count == 0 {
		t.Fatal("edge record missing")
	}
	if sh.CompressedSize() <= 0 || sh.RawSize() <= 0 {
		t.Fatal("size accounting broken")
	}
	if sh.NumNodes() != len(nodes) {
		t.Fatalf("NumNodes = %d", sh.NumNodes())
	}
}

// edgeSources lists the distinct sources of the shard's edge records,
// ascending (the record index is in (source, type) order).
func edgeSources(s *Shard) []layout.NodeID {
	var out []layout.NodeID
	for _, src := range s.Edges().Columns().Srcs {
		if len(out) == 0 || out[len(out)-1] != src {
			out = append(out, src)
		}
	}
	return out
}

// checkShardsAgree asserts both shards answer node-property and edge
// queries identically.
func checkShardsAgree(t *testing.T, a, b *Shard, nodes []layout.Node) {
	t.Helper()
	for _, n := range nodes {
		pa, oka := a.Nodes().GetAllProps(n.ID)
		pb, okb := b.Nodes().GetAllProps(n.ID)
		if oka != okb || !reflect.DeepEqual(pa, pb) {
			t.Fatalf("node %d: %v/%v vs %v/%v", n.ID, pa, oka, pb, okb)
		}
	}
	srcs := edgeSources(a)
	for _, src := range srcs {
		for etype := int64(0); etype < 2; etype++ {
			ra, oka := a.Edges().GetEdgeRecord(src, etype)
			rb, okb := b.Edges().GetEdgeRecord(src, etype)
			if oka != okb {
				t.Fatalf("record (%d,%d): %v vs %v", src, etype, oka, okb)
			}
			if !oka {
				continue
			}
			if ra.Count != rb.Count {
				t.Fatalf("record (%d,%d) counts: %d vs %d", src, etype, ra.Count, rb.Count)
			}
			for i := 0; i < ra.Count; i++ {
				da, err1 := a.Edges().GetEdgeData(&ra, i)
				db, err2 := b.Edges().GetEdgeData(&rb, i)
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				if !reflect.DeepEqual(da, db) {
					t.Fatalf("record (%d,%d)[%d]: %+v vs %+v", src, etype, i, da, db)
				}
			}
		}
	}
	q := map[string]string{"w": "7"}
	if fa, fb := a.Edges().FindEdges(q), b.Edges().FindEdges(q); len(fa) != 1 || !reflect.DeepEqual(fa, fb) {
		t.Fatalf("FindEdges(%v): %v vs %v", q, fa, fb)
	}
}

// TestShardSerializationRoundTrip: a shard survives Marshal/Unmarshal
// with its answers, its raw size and every region's encoding and bytes.
func TestShardSerializationRoundTrip(t *testing.T) {
	sh, nodes, _ := buildTestShard(t)
	blob, err := sh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalShard(blob, memsim.Unlimited())
	if err != nil {
		t.Fatal(err)
	}
	checkShardsAgree(t, sh, got, nodes)
	if got.RawSize() != sh.RawSize() {
		t.Fatalf("raw size %d != %d", got.RawSize(), sh.RawSize())
	}
	if want, back := sh.CodecReport(), got.CodecReport(); !reflect.DeepEqual(want, back) {
		t.Errorf("region report after reload:\n%+v\nbuilt:\n%+v", back, want)
	}
}

// TestOnePropertyNodeFileAnchored: a shard whose nodes have one property
// samples its NodeFile at the records' delimiter — none of the α grid's
// marks — and answers every node read and FindNodes like its input,
// before and after a round trip; one with two stays on the α grid.
func TestOnePropertyNodeFileAnchored(t *testing.T) {
	if sh, _, _ := buildTestShard(t); sh.NodeSampling() != "alpha=4" {
		t.Fatalf("two-property NodeFile sampled %q, want alpha=4", sh.NodeSampling())
	}
	sh, nodes, _ := buildShardWith(t, "city")
	if got := sh.NodeSampling(); got != "anchored 0x02" {
		t.Fatalf("one-property NodeFile sampled %q, want anchored 0x02", got)
	}
	for _, rc := range sh.CodecReport() {
		if rc.Region == "node/marks" {
			t.Fatal("an anchored NodeFile reports α-grid marks")
		}
	}
	blob, err := sh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalShard(blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkShardsAgree(t, sh, back, nodes)
	for _, s := range []*Shard{sh, back} {
		for _, n := range nodes {
			if got, ok := s.Nodes().GetAllProps(n.ID); !ok || !reflect.DeepEqual(got, n.Props) {
				t.Fatalf("node %d: %v, %v, want %v", n.ID, got, ok, n.Props)
			}
		}
		for c := 0; c < 4; c++ {
			var want []layout.NodeID
			for _, n := range nodes {
				if n.Props["city"] == fmt.Sprintf("c%d", c) {
					want = append(want, n.ID)
				}
			}
			if got := s.Nodes().FindNodes(map[string]string{"city": fmt.Sprintf("c%d", c)}); !reflect.DeepEqual(got, want) {
				t.Fatalf("FindNodes(city=c%d) = %v, want %v", c, got, want)
			}
		}
	}
}

// encodeWire gob-encodes a (possibly doctored) wire struct.
func encodeWire(t testing.TB, w any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// currentWire decodes a freshly built shard's wire form for doctoring.
func currentWire(t testing.TB) shardWire {
	t.Helper()
	sh, _, _ := buildTestShard(t)
	return wireOf(t, sh)
}

// wireOf decodes sh's wire form.
func wireOf(t testing.TB, sh *Shard) shardWire {
	t.Helper()
	blob, err := sh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var w shardWire
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&w); err != nil {
		t.Fatal(err)
	}
	return w
}

// taggedShardWire is the wire form of the build before this one: the
// offset columns codec-tagged, under field names of their own.
type taggedShardWire struct {
	NodeStore      []byte
	EdgeStore      []byte
	NodeIDs        []int64
	EdgeSrcs       []int64
	NodeSchema     layout.SchemaSpec
	EdgeSchema     layout.SchemaSpec
	RawNodeBytes   int
	RawEdgeBytes   int
	EdgeFormat     int
	NodeOffsetsEnc []byte
	EdgeIdxSrcs    []int64
	EdgeIdxTypes   []int64
	EdgeIdxOffsEnc []byte
}

func tagged(w shardWire) taggedShardWire {
	return taggedShardWire{
		NodeStore: w.NodeStore, EdgeStore: w.EdgeStore, NodeIDs: w.NodeIDs,
		NodeSchema: w.NodeSchema, EdgeSchema: w.EdgeSchema, RawNodeBytes: w.RawNodeBytes, RawEdgeBytes: w.RawEdgeBytes,
		EdgeFormat: w.EdgeFormat, EdgeIdxSrcs: w.EdgeIdxSrcs, EdgeIdxTypes: w.EdgeIdxTypes,
		NodeOffsetsEnc: append([]byte{1}, w.NodeOffsets...), EdgeIdxOffsEnc: append([]byte{1}, w.EdgeStarts...),
	}
}

// TestOldShardRefusedByVersion: a shard from an earlier build — ZSUC1
// stores and no offset columns at all, ZSUC4 stores and codec-tagged
// columns, or ZSUC5 stores with one Ψ vector per bucket — is refused by
// the version of its stores, which UnmarshalShard checks before any
// column: the error names the format found, not a missing column or a
// vector that failed to decode.
func TestOldShardRefusedByVersion(t *testing.T) {
	for _, magic := range []string{"ZSUC1", "ZSUC4", "ZSUC5"} {
		w := currentWire(t)
		copy(w.NodeStore, magic)
		copy(w.EdgeStore, magic)
		var old any = tagged(w)
		switch magic {
		case "ZSUC5":
			old = w
		case "ZSUC1":
			w.NodeOffsets, w.EdgeStarts = nil, nil
			old = w
		}
		_, err := UnmarshalShard(encodeWire(t, old), nil)
		if err == nil || !strings.Contains(err.Error(), "unsupported format version") || !strings.Contains(err.Error(), magic) {
			t.Errorf("err = %v, want unsupported format version naming %s", err, magic)
		}
	}
}

// TestShardWithoutOffsetColumnsRefused: current stores but an offset
// column missing — either one, or both because they are the tagged
// columns of the build before — is named as an unsupported shard format,
// not reported as a column that failed to decode; so is an EdgeFile
// record format other than the one this build reads, and one whose
// property lists still carry length digits is named "length-header
// text", and one whose text keeps its record keys and whose store is
// on the α grid "keyed text, α-grid samples".
func TestShardWithoutOffsetColumnsRefused(t *testing.T) {
	for name, doctor := range map[string]func(w shardWire) any{
		"node offsets":   func(w shardWire) any { w.NodeOffsets = nil; return w },
		"edge starts":    func(w shardWire) any { w.EdgeStarts = nil; return w },
		"tagged columns": func(w shardWire) any { return tagged(w) },
	} {
		if _, err := UnmarshalShard(encodeWire(t, doctor(currentWire(t))), nil); err == nil || !strings.Contains(err.Error(), "unsupported shard format") {
			t.Errorf("without %s: err = %v, want unsupported shard format", name, err)
		}
	}
	for format, name := range map[int]string{0: "Figure 2 text", 1: "hot-header text", 2: "length-header text", 3: "keyed text, α-grid samples", 7: "unknown"} {
		w := currentWire(t)
		w.EdgeFormat = format
		want := fmt.Sprintf("unsupported edge record format %d (%s;", format, name)
		if _, err := UnmarshalShard(encodeWire(t, w), nil); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("edge format %d: err = %v, want one containing %q", format, err, want)
		}
	}
}

// mislaidStores are wire forms of a shard whose stores are each sound
// but sampled where the shard's reads do not start: the EdgeFile's on
// the α grid, at a byte other than its lists' first, with no anchor or
// one fewer than its edges; a multi-property NodeFile's at anchors; a
// one-property NodeFile's on the α grid, at a byte other than its
// records' delimiter, or one anchor fewer than its nodes.
func mislaidStores(t testing.TB, w shardWire, edges []layout.Edge, nodes []layout.Node) map[string]shardWire {
	t.Helper()
	es, err := w.EdgeSchema.Build()
	if err != nil {
		t.Fatal(err)
	}
	ns, err := w.NodeSchema.Build()
	if err != nil {
		t.Fatal(err)
	}
	text, _, err := layout.BuildEdgeFile(edges, es)
	if err != nil {
		t.Fatal(err)
	}
	nodeText, _, _, err := layout.BuildNodeFile(nodes, ns)
	if err != nil {
		t.Fatal(err)
	}
	anchor := es.ListAnchor()
	fewer := bytes.Clone(text)
	fewer[bytes.LastIndexByte(fewer, anchor)] = 'x'
	out := map[string]shardWire{}
	for name, store := range map[string]*succinct.Store{
		"edge store on the α grid":     succinct.Build(text, Options{SamplingRate: 4}),
		"edge store at the end marker": succinct.BuildAnchored(text, layout.EndOfRecord, nil),
		"edge store without anchors":   succinct.BuildAnchored(bytes.Repeat([]byte("x"), len(text)), anchor, nil),
		"edge store one anchor short":  succinct.BuildAnchored(fewer, anchor, nil),
	} {
		d := w
		d.EdgeStore = store.MarshalBinary()
		out[name] = d
	}
	nodeStores := map[string]*succinct.Store{"node store sampled at anchors": succinct.BuildAnchored(nodeText, nodeText[0], nil)}
	if layout.NodeFileAnchored(ns) {
		delim := ns.ListAnchor()
		short := bytes.Clone(nodeText)
		short[bytes.LastIndexByte(short, delim)] = 'x'
		nodeStores = map[string]*succinct.Store{
			"one-property node store on the α grid":     succinct.Build(nodeText, Options{SamplingRate: 4}),
			"one-property node store at the end marker": succinct.BuildAnchored(nodeText, layout.EndOfRecord, nil),
			"one-property node store one anchor short":  succinct.BuildAnchored(short, delim, nil),
		}
	}
	for name, store := range nodeStores {
		d := w
		d.NodeStore = store.MarshalBinary()
		out[name] = d
	}
	return out
}

// TestMislaidSamplesRefused: a shard whose stores are sampled where its
// reads do not start is refused at load, naming the fault — for a
// NodeFile of two properties and of one.
func TestMislaidSamplesRefused(t *testing.T) {
	for _, props := range [][]string{{"city", "name"}, {"name"}} {
		sh, nodes, edges := buildShardWith(t, props...)
		for name, w := range mislaidStores(t, wireOf(t, sh), edges, nodes) {
			_, err := UnmarshalShard(encodeWire(t, w), nil)
			if err == nil || !strings.Contains(err.Error(), "sampled") && !strings.Contains(err.Error(), "anchors") {
				t.Errorf("%v: %s: err = %v, want one naming the sampling", props, name, err)
			}
		}
	}
}

// FuzzUnmarshalShard feeds UnmarshalShard arbitrary bytes, seeded with a
// valid shard and that shard with one byte of each column changed. The
// only acceptable outcomes are an error or a shard whose every node and
// edge read returns without a panic.
func FuzzUnmarshalShard(f *testing.F) {
	ns, _ := layout.NewPropertySchema([]string{"n"}, 8)
	es, _ := layout.NewPropertySchema([]string{"w"}, 8)
	edges := []layout.Edge{
		{Src: 1, Dst: 2, Timestamp: 5, Props: map[string]string{"w": "7"}},
		{Src: 1, Dst: 3, Timestamp: 9},
		{Src: 2, Dst: 1, Type: 1, Timestamp: 6, Props: map[string]string{"w": "8"}},
	}
	nodes := []layout.Node{{ID: 1, Props: map[string]string{"n": "a"}}}
	sh, err := Build(nodes, edges, ns, es, Options{SamplingRate: 4})
	if err != nil {
		f.Fatal(err)
	}
	blob, err := sh.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	var w shardWire
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&w); err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	for _, col := range [][]byte{w.EdgeStarts, w.EdgeProps, w.EdgeTs, w.EdgeDsts, w.EdgeStore, w.NodeStore, w.NodeOffsets} {
		col[len(col)-1] ^= 0x5a
		f.Add(encodeWire(f, w))
		col[len(col)-1] ^= 0x5a
	}
	for _, d := range mislaidStores(f, w, edges, nodes) {
		f.Add(encodeWire(f, d))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sh, err := UnmarshalShard(data, nil)
		if err != nil {
			return
		}
		v := sh.Edges()
		for r := 0; r < v.NumRecords(); r++ {
			refs, _, _ := v.ReadRecords(r, r+1)
			ref := refs[0]
			v.TimeRange(&ref, 0, 1<<40)
			v.Destinations(&ref)
			v.GetEdgeDataRange(&ref, 0, ref.Count)
		}
		v.FindEdges(map[string]string{"w": "7"})
		nv := sh.Nodes()
		for _, id := range nv.IDs() {
			nv.GetAllProps(id)
			nv.GetProperty(id, "n")
			nv.GetProperties(id, []string{"n", "x"})
		}
		nv.FindNodes(map[string]string{"n": "a"})
	})
}

func TestUnmarshalShardErrors(t *testing.T) {
	if _, err := UnmarshalShard([]byte("not a shard"), nil); err == nil {
		t.Error("expected error on garbage")
	}
}
