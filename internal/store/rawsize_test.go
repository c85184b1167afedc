package store

import (
	"strings"
	"testing"

	"zipg/internal/layout"
	"zipg/internal/logstore"
)

// figure1Size is a property list's size in Figure 1's all-text layout,
// computed from the input: a LenWidth-digit length per schema property,
// then each property's delimiter and value, then the end marker.
func figure1Size(schema *layout.PropertySchema, props map[string]string) int {
	n := schema.NumProperties()*schema.LenWidth + 1
	for o, id := range schema.IDs() {
		n += len(schema.Delimiter(o)) + len(props[id])
	}
	return n
}

// figure2Size is the EdgeFile's size in Figure 2's all-text layout: per
// (src, etype) record its key, the version digit, the 6-digit count, the
// three field widths, the edge type's width and the type, the timestamp
// span, and per edge a timestamp, a destination, a list length (each at
// the record's widest) and the list in Figure 1's layout.
func figure2Size(schema *layout.PropertySchema, edges []layout.Edge) int {
	type key struct{ src, etype int64 }
	groups := map[key][]layout.Edge{}
	for _, e := range edges {
		groups[key{e.Src, e.Type}] = append(groups[key{e.Src, e.Type}], e)
	}
	total := 0
	for k, g := range groups {
		tLen, dLen, pLenW, lists := 1, 1, 1, 0
		for _, e := range g {
			tLen = max(tLen, layout.FixedWidth(uint64(e.Timestamp)))
			dLen = max(dLen, layout.FixedWidth(uint64(e.Dst)))
			pLenW = max(pLenW, layout.FixedWidth(uint64(figure1Size(schema, e.Props))))
			lists += figure1Size(schema, e.Props)
		}
		total += len(layout.RecordKey(k.src, k.etype)) + 1 + 6 + 3 + 1 + layout.FixedWidth(uint64(k.etype)) + 2*tLen +
			len(g)*(tLen+dLen+pLenW) + lists
	}
	return total
}

// TestRawSizeKeepsFigureDigits: the footprint ratio's denominator and the
// LogStore's growth count Figure 1's and Figure 2's all-text layouts,
// length digits included, though an edge property list holds none:
// RawSize is their size computed from the input (and the figure this
// input had while the edge lists carried their digits), and a put grows
// a log by its record's Figure 1 size (plus 24 bytes for an edge's
// numbers), twice over for the query-optimized overhead.
func TestRawSizeKeepsFigureDigits(t *testing.T) {
	ns, es := testSchemas(t)
	nodes, edges := testGraph(300, 2000, 35)
	for i := range edges {
		if i%3 == 0 {
			edges[i].Props["note"] = strings.Repeat("n", i%90) // lists on both sides of 64 bytes
		}
		if i%7 == 0 {
			edges[i].Props = nil
		}
	}
	s, err := New(nodes, edges, ns, es, Config{NumShards: 3, SamplingRate: 8})
	if err != nil {
		t.Fatal(err)
	}
	want := figure2Size(es, edges)
	for _, n := range nodes {
		want += figure1Size(ns, n.Props)
	}
	const before = 79_745 // RawSize of this input while the edge lists carried their digits
	if got := s.RawSize(); got != int64(want) || got != before {
		t.Errorf("RawSize = %d, want %d from the input and %d as before", got, want, before)
	}

	log := logstore.New(ns, es, nil)
	for _, n := range nodes[:50] {
		size := log.Size()
		if err := log.AddNode(n.ID+1000, n.Props); err != nil {
			t.Fatal(err)
		}
		if grew, want := log.Size()-size, 2*figure1Size(ns, n.Props); grew != int64(want) {
			t.Fatalf("node %d grew the log by %d bytes, want %d", n.ID, grew, want)
		}
	}
	for _, e := range edges[:50] {
		size := log.Size()
		if err := log.AddEdge(e); err != nil {
			t.Fatal(err)
		}
		if grew, want := log.Size()-size, 2*(figure1Size(es, e.Props)+24); grew != int64(want) {
			t.Fatalf("edge %d->%d grew the log by %d bytes, want %d", e.Src, e.Dst, grew, want)
		}
	}
}
