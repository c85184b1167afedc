package store

import (
	"bytes"
	"encoding/gob"
	"os"
	"reflect"
	"strings"
	"testing"

	"zipg/internal/bitutil"
	"zipg/internal/layout"
	"zipg/internal/succinct"
)

// mutatedStore builds a store with every kind of state to persist:
// multiple shards, rollovers, live LogStore data, update pointers,
// deleted nodes and deleted edges.
func mutatedStore(t *testing.T) *Store {
	t.Helper()
	ns, es := testSchemas(t)
	nodes, edges := testGraph(30, 120, 3)
	s, err := New(nodes, edges, ns, es, Config{
		NumShards:         3,
		SamplingRate:      8,
		LogStoreThreshold: 3000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if err := s.AppendEdge(layout.Edge{Src: int64(i % 10), Dst: int64(500 + i), Type: 1, Timestamp: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AppendNode(100, map[string]string{"name": "persisted"}); err != nil {
		t.Fatal(err)
	}
	s.DeleteNode(7)
	s.DeleteEdges(edges[0].Src, edges[0].Type, edges[0].Dst)
	if s.Rollovers() == 0 {
		t.Fatal("fixture should have rolled over")
	}
	return s
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := mutatedStore(t)
	blob, err := s.SaveBytes()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(blob, []byte("EdgeSrcs")) {
		t.Error("saved shards still carry the EdgeSrcs column")
	}
	got, err := Load(bytes.NewReader(blob), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkLoadedStore(t, s, got)
}

// TestLoadArchiveWithEdgeSrcs: a ZIPGSTORE1 archive of mutatedStore
// whose shards carry the distinct-sources column EdgeSrcs that shards
// had before they stopped storing it (testdata: this format's archive,
// each shard re-encoded by a struct that still declares the column)
// loads — gob skips the field this build no longer declares — and
// answers like a fresh one.
func TestLoadArchiveWithEdgeSrcs(t *testing.T) {
	blob, err := os.ReadFile("testdata/store_pr22_edgesrcs.zipg")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(blob, []byte("EdgeSrcs")) {
		t.Fatal("testdata archive carries no EdgeSrcs column")
	}
	got, err := Load(bytes.NewReader(blob), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkLoadedStore(t, mutatedStore(t), got)
}

// checkLoadedStore compares a loaded store with the mutatedStore it
// was saved from, then keeps writing to it.
func checkLoadedStore(t *testing.T, s, got *Store) {
	t.Helper()
	// Every node resolves identically (including deleted and appended).
	for id := int64(0); id < 110; id++ {
		wantProps, wantOK := s.GetNodeProps(id, nil)
		gotProps, gotOK := got.GetNodeProps(id, nil)
		if wantOK != gotOK || !reflect.DeepEqual(wantProps, gotProps) {
			t.Fatalf("node %d: %v,%v want %v,%v", id, gotProps, gotOK, wantProps, wantOK)
		}
	}
	// Edge records agree, including merged fragments and deletions.
	for src := int64(0); src < 30; src++ {
		for ty := int64(0); ty < 3; ty++ {
			wantRec, wantOK := s.GetEdgeRecord(src, ty)
			gotRec, gotOK := got.GetEdgeRecord(src, ty)
			if wantOK != gotOK {
				t.Fatalf("record (%d,%d): ok %v want %v", src, ty, gotOK, wantOK)
			}
			if !wantOK {
				continue
			}
			if wantRec.Count() != gotRec.Count() {
				t.Fatalf("record (%d,%d): count %d want %d", src, ty, gotRec.Count(), wantRec.Count())
			}
			for i := 0; i < wantRec.Count(); i++ {
				wd, _ := wantRec.GetEdgeData(i)
				gd, _ := gotRec.GetEdgeData(i)
				if wd.Timestamp != gd.Timestamp {
					t.Fatalf("record (%d,%d)[%d]: ts %d want %d", src, ty, i, gd.Timestamp, wd.Timestamp)
				}
			}
		}
	}
	// Fragmentation state carried over.
	if got.Rollovers() != s.Rollovers() || got.NumFragments() != s.NumFragments() {
		t.Fatalf("fragments %d/%d want %d/%d",
			got.Rollovers(), got.NumFragments(), s.Rollovers(), s.NumFragments())
	}
	for id := int64(0); id < 10; id++ {
		if got.FragmentsOf(id) != s.FragmentsOf(id) {
			t.Fatalf("FragmentsOf(%d) = %d want %d", id, got.FragmentsOf(id), s.FragmentsOf(id))
		}
	}
	// The loaded store keeps working: writes and rollovers continue.
	for i := 0; i < 50; i++ {
		if err := got.AppendEdge(layout.Edge{Src: 5, Dst: int64(900 + i), Type: 2, Timestamp: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	rec, ok := got.GetEdgeRecord(5, 2)
	if !ok || rec.Count() < 50 {
		t.Fatalf("appends after load missing: %v", ok)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(strings.NewReader("not a store"), nil); err == nil {
		t.Error("bad magic should fail")
	}
	if _, err := Load(strings.NewReader(persistMagic+"garbage"), nil); err == nil {
		t.Error("corrupt body should fail")
	}
	if _, err := Load(strings.NewReader(""), nil); err == nil {
		t.Error("empty stream should fail")
	}
	// An archive whose shards carry a retired succinct format is refused
	// by name, not misread.
	blob, err := mutatedStore(t).SaveBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(blob, []byte("ZSUC7\x00")) {
		t.Fatal("saved store carries no ZSUC7 succinct store")
	}
	for _, old := range []string{"ZSUC1\x00", "ZSUC2\x00", "ZSUC3\x00", "ZSUC4\x00", "ZSUC5\x00", "ZSUC6\x00"} {
		_, err := Load(bytes.NewReader(bytes.ReplaceAll(blob, []byte("ZSUC7\x00"), []byte(old))), nil)
		if err == nil || !strings.Contains(err.Error(), "unsupported format version") || !strings.Contains(err.Error(), old[:5]) {
			t.Errorf("archive with %q stores: err = %v, want unsupported format version naming it", old, err)
		}
	}
}

// TestLoadRejectsInconsistentArchive: an archive whose storeWire
// disagrees with itself is an error naming the field, not a store that
// panics on its first read. Each case decodes a mutatedStore archive,
// changes one field and encodes it again.
func TestLoadRejectsInconsistentArchive(t *testing.T) {
	blob, err := mutatedStore(t).SaveBytes()
	if err != nil {
		t.Fatal(err)
	}
	reencode := func(mutate func(w *storeWire)) *bytes.Buffer {
		t.Helper()
		var w storeWire
		if err := gob.NewDecoder(bytes.NewReader(blob[len(persistMagic):])).Decode(&w); err != nil {
			t.Fatal(err)
		}
		mutate(&w)
		buf := bytes.NewBufferString(persistMagic)
		if err := gob.NewEncoder(buf).Encode(w); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	if _, err := Load(reencode(func(*storeWire) {}), nil); err != nil {
		t.Fatalf("unchanged archive: %v", err)
	}
	for _, tc := range []struct {
		name, field string
		mutate      func(w *storeWire)
	}{
		{"no shards", "NumShards", func(w *storeWire) { w.NumShards = 0 }},
		{"more shards than primaries", "NumShards", func(w *storeWire) { w.NumShards = len(w.Primaries) + 1 }},
		{"pointer at generation -1", "Ptrs", func(w *storeWire) { w.Ptrs[100] = append(w.Ptrs[100], -1) }},
		{"pointer past the live log", "Ptrs", func(w *storeWire) { w.Ptrs[100] = append(w.Ptrs[100], len(w.Frozen)+1) }},
		// One corrupt EdgeFile column per check UnmarshalShard makes.
		{"a destination short", "disagree in length", doctorShard(t, func(c *shardWireCopy) {
			c.EdgeDsts = repack(t, c.EdgeDsts, func(v []uint64) []uint64 { return v[:len(v)-1] })
		})},
		{"record starts repeat", "record starts", doctorShard(t, func(c *shardWireCopy) {
			c.EdgeStarts = remono(t, c.EdgeStarts, func(v []uint64) { v[1] = v[0] })
		})},
		{"record starts short of the edges", "record starts", doctorShard(t, func(c *shardWireCopy) {
			c.EdgeStarts = remono(t, c.EdgeStarts, func(v []uint64) { v[len(v)-1]-- })
		})},
		{"property offsets repeat", "property offsets", doctorShard(t, func(c *shardWireCopy) {
			c.EdgeProps = remono(t, c.EdgeProps, func(v []uint64) { v[1] = v[0] })
		})},
		{"property offsets past the text", "property offsets", doctorShard(t, func(c *shardWireCopy) {
			c.EdgeProps = remono(t, c.EdgeProps, func(v []uint64) { v[len(v)-1] += 5 })
		})},
		{"timestamps 65 bits wide", "timestamps", doctorShard(t, func(c *shardWireCopy) {
			c.EdgeTs[0] = 65
		})},
		// An EdgeFile store that is not sampled at its property lists.
		{"edge store on the α grid", "property lists' first byte", doctorShard(t, func(c *shardWireCopy) {
			c.EdgeStore = succinct.Build(edgeText(t, c, 'a'), succinct.Options{SamplingRate: 8}).MarshalBinary()
		})},
		{"edge store anchored at another byte", "property lists' first byte", doctorShard(t, func(c *shardWireCopy) {
			c.EdgeStore = succinct.BuildAnchored(edgeText(t, c, 'a'), 'a', nil).MarshalBinary()
		})},
		{"anchor byte missing from the text", "anchors", doctorShard(t, func(c *shardWireCopy) {
			c.EdgeStore = succinct.BuildAnchored(edgeText(t, c, 'a'), layout.EndOfRecord+1, nil).MarshalBinary()
		})},
		{"one anchor fewer than the edges", "anchors", doctorShard(t, func(c *shardWireCopy) {
			text := edgeText(t, c, 'a')
			for i := range text[:count(t, c)-1] {
				text[i] = layout.EndOfRecord + 1
			}
			c.EdgeStore = succinct.BuildAnchored(text, layout.EndOfRecord+1, nil).MarshalBinary()
		})},
		// A NodeFile store sampled where its reads do not start: a
		// three-property one at anchors, a one-property one (the schema
		// cut to its first property) on the α grid, at a byte other than
		// its records' delimiter, or at one anchor fewer than its nodes.
		{"three-property node store at anchors", "3 properties is sampled at anchors", doctorShard(t, func(c *shardWireCopy) {
			c.NodeStore = succinct.BuildAnchored(bytes.Repeat([]byte("\x02a\x01"), len(c.NodeIDs)), 0x02, nil).MarshalBinary()
		})},
		{"one-property node store on the α grid", "sampled on the α grid", doctorShard(t, func(c *shardWireCopy) {
			c.NodeSchema.PropertyIDs = c.NodeSchema.PropertyIDs[:1]
		})},
		{"one-property node store anchored at another byte", "not at its records' delimiter", doctorShard(t, func(c *shardWireCopy) {
			c.NodeSchema.PropertyIDs = c.NodeSchema.PropertyIDs[:1]
			c.NodeStore = succinct.BuildAnchored(bytes.Repeat([]byte("\x02a\x01"), len(c.NodeIDs)), 'a', nil).MarshalBinary()
		})},
		{"one node anchor fewer than the nodes", "record anchors", doctorShard(t, func(c *shardWireCopy) {
			c.NodeSchema.PropertyIDs = c.NodeSchema.PropertyIDs[:1]
			c.NodeStore = succinct.BuildAnchored(bytes.Repeat([]byte("\x02a\x01"), len(c.NodeIDs)-1), 0x02, nil).MarshalBinary()
		})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(reencode(tc.mutate), nil)
			if err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("err = %v, want one naming %s", err, tc.field)
			}
		})
	}
}

func TestSaveDeterministicQueries(t *testing.T) {
	// Save twice; loads must agree with each other query-for-query.
	s := mutatedStore(t)
	b1, err := s.SaveBytes()
	if err != nil {
		t.Fatal(err)
	}
	g1, err := Load(bytes.NewReader(b1), nil)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := s.SaveBytes()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Load(bytes.NewReader(b2), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, props := range []map[string]string{{"location": "Ithaca"}, {"name": "persisted"}} {
		if !reflect.DeepEqual(g1.FindNodes(props), g2.FindNodes(props)) {
			t.Fatalf("loads disagree on FindNodes(%v)", props)
		}
	}
}

// shardWireCopy is core's shard wire form, declared again so a test
// can doctor a shard's stores and columns (gob matches fields by name).
type shardWireCopy struct {
	NodeStore    []byte
	EdgeStore    []byte
	NodeIDs      []int64
	NodeSchema   layout.SchemaSpec
	EdgeSchema   layout.SchemaSpec
	RawNodeBytes int
	RawEdgeBytes int
	EdgeFormat   int
	NodeOffsets  []byte
	EdgeIdxSrcs  []int64
	EdgeIdxTypes []int64
	EdgeStarts   []byte
	EdgeProps    []byte
	EdgeTsMin    int64
	EdgeTs       []byte
	EdgeDsts     []byte
}

// doctorShard returns a storeWire mutation that doctors the first
// primary shard's wire form with mutate.
func doctorShard(t *testing.T, mutate func(c *shardWireCopy)) func(w *storeWire) {
	return func(w *storeWire) {
		var c shardWireCopy
		if err := gob.NewDecoder(bytes.NewReader(w.Primaries[0])).Decode(&c); err != nil {
			t.Fatal(err)
		}
		mutate(&c)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(c); err != nil {
			t.Fatal(err)
		}
		w.Primaries[0] = buf.Bytes()
	}
}

// edgeText returns a text as long as the shard's EdgeFile text, filled
// with fill: a stand-in the columns accept.
func edgeText(t *testing.T, c *shardWireCopy, fill byte) []byte {
	mv, _, err := bitutil.DecodeMonotoneVector(c.EdgeProps)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Repeat([]byte{fill}, int(mv.Get(mv.Len()-1)))
}

// count returns how many edges the shard's columns hold.
func count(t *testing.T, c *shardWireCopy) int {
	pv, _, err := bitutil.DecodePackedVector(c.EdgeDsts)
	if err != nil {
		t.Fatal(err)
	}
	return pv.Len()
}

// remono re-encodes a serialized monotone vector after edit; the edit
// may make it non-monotone, which the encoder does not check.
func remono(t *testing.T, enc []byte, edit func(v []uint64)) []byte {
	mv, _, err := bitutil.DecodeMonotoneVector(enc)
	if err != nil {
		t.Fatal(err)
	}
	v := mv.DecodeAll(nil)
	edit(v)
	return bitutil.NewMonotoneVector(v).AppendBinary(nil)
}

// repack re-encodes a serialized packed vector after edit.
func repack(t *testing.T, enc []byte, edit func(v []uint64) []uint64) []byte {
	pv, _, err := bitutil.DecodePackedVector(enc)
	if err != nil {
		t.Fatal(err)
	}
	v := make([]uint64, pv.Len())
	for i := range v {
		v[i] = pv.Get(i)
	}
	return bitutil.PackSlice(edit(v)).AppendBinary(nil)
}
