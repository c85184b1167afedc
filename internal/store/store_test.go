package store

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"zipg/internal/layout"
)

func testSchemas(t testing.TB) (ns, es *layout.PropertySchema) {
	t.Helper()
	var err error
	ns, err = layout.NewPropertySchema([]string{"age", "location", "name"}, 100)
	if err != nil {
		t.Fatal(err)
	}
	es, err = layout.NewPropertySchema([]string{"note", "weight"}, 100)
	if err != nil {
		t.Fatal(err)
	}
	return ns, es
}

// testGraph builds a deterministic small graph.
func testGraph(nNodes, nEdges int, seed int64) ([]layout.Node, []layout.Edge) {
	rng := rand.New(rand.NewSource(seed))
	cities := []string{"Ithaca", "Berkeley", "Chicago"}
	nodes := make([]layout.Node, nNodes)
	for i := range nodes {
		nodes[i] = layout.Node{
			ID: int64(i),
			Props: map[string]string{
				"age":      fmt.Sprint(20 + i%40),
				"location": cities[i%3],
				"name":     fmt.Sprintf("user%d", i),
			},
		}
	}
	edges := make([]layout.Edge, nEdges)
	for i := range edges {
		edges[i] = layout.Edge{
			Src:       int64(rng.Intn(nNodes)),
			Dst:       int64(rng.Intn(nNodes)),
			Type:      int64(rng.Intn(3)),
			Timestamp: int64(rng.Intn(10000)),
			Props:     map[string]string{"weight": fmt.Sprint(rng.Intn(10))},
		}
	}
	return nodes, edges
}

func newTestStore(t testing.TB, nNodes, nEdges int, shards int) (*Store, []layout.Node, []layout.Edge) {
	t.Helper()
	ns, es := testSchemas(t)
	nodes, edges := testGraph(nNodes, nEdges, 1)
	s, err := New(nodes, edges, ns, es, Config{NumShards: shards, SamplingRate: 8})
	if err != nil {
		t.Fatal(err)
	}
	return s, nodes, edges
}

func TestGetNodeProps(t *testing.T) {
	s, nodes, _ := newTestStore(t, 50, 200, 4)
	for _, n := range nodes {
		vals, ok := s.GetNodeProps(n.ID, []string{"location", "age"})
		if !ok {
			t.Fatalf("node %d missing", n.ID)
		}
		if vals[0] != n.Props["location"] || vals[1] != n.Props["age"] {
			t.Fatalf("node %d props = %v", n.ID, vals)
		}
		props, _ := s.GetAllNodeProps(n.ID)
		if !reflect.DeepEqual(props, n.Props) {
			t.Fatalf("GetAllNodeProps(%d) = %v, want %v", n.ID, props, n.Props)
		}
	}
	if _, ok := s.GetNodeProps(9999, nil); ok {
		t.Fatal("missing node found")
	}
}

func TestFindNodesAcrossShards(t *testing.T) {
	s, nodes, _ := newTestStore(t, 60, 100, 4)
	got := s.FindNodes(map[string]string{"location": "Ithaca"})
	var want []int64
	for _, n := range nodes {
		if n.Props["location"] == "Ithaca" {
			want = append(want, n.ID)
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FindNodes = %v, want %v", got, want)
	}
}

// refEdges computes the expected live (src,etype) edges sorted by ts.
func refEdges(edges []layout.Edge, src, etype int64) []layout.Edge {
	var out []layout.Edge
	for _, e := range edges {
		if e.Src == src && e.Type == etype {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Timestamp < out[j].Timestamp })
	return out
}

func TestEdgeRecordStatic(t *testing.T) {
	s, _, edges := newTestStore(t, 30, 300, 3)
	for src := int64(0); src < 30; src++ {
		for etype := int64(0); etype < 3; etype++ {
			want := refEdges(edges, src, etype)
			rec, ok := s.GetEdgeRecord(src, etype)
			if len(want) == 0 {
				if ok {
					t.Fatalf("(%d,%d): unexpected record", src, etype)
				}
				continue
			}
			if !ok || rec.Count() != len(want) {
				t.Fatalf("(%d,%d): count=%d want %d", src, etype, rec.Count(), len(want))
			}
			for i, e := range want {
				d, err := rec.GetEdgeData(i)
				if err != nil {
					t.Fatal(err)
				}
				if d.Dst != e.Dst || d.Timestamp != e.Timestamp {
					t.Fatalf("(%d,%d)[%d]: got %+v want dst=%d ts=%d", src, etype, i, d, e.Dst, e.Timestamp)
				}
			}
		}
	}
}

func TestEdgeRecordsWildcard(t *testing.T) {
	s, _, edges := newTestStore(t, 20, 200, 2)
	for src := int64(0); src < 20; src++ {
		types := map[int64]int{}
		for _, e := range edges {
			if e.Src == src {
				types[e.Type]++
			}
		}
		recs := s.GetEdgeRecords(src)
		if len(recs) != len(types) {
			t.Fatalf("src %d: %d records, want %d", src, len(recs), len(types))
		}
		for _, r := range recs {
			if r.Count() != types[r.Type] {
				t.Fatalf("src %d type %d: count %d want %d", src, r.Type, r.Count(), types[r.Type])
			}
		}
	}
}

func TestEdgeRangeAndNeighbors(t *testing.T) {
	s, nodes, edges := newTestStore(t, 40, 400, 2)
	rec, ok := s.GetEdgeRecord(edges[0].Src, edges[0].Type)
	if !ok {
		t.Fatal("record missing")
	}
	want := refEdges(edges, edges[0].Src, edges[0].Type)
	lo, hi := int64(2000), int64(7000)
	beg, end := rec.GetEdgeRange(lo, hi)
	var wantBeg, wantEnd int
	for _, e := range want {
		if e.Timestamp < lo {
			wantBeg++
		}
		if e.Timestamp < hi {
			wantEnd++
		}
	}
	if beg != wantBeg || end != wantEnd {
		t.Fatalf("range [%d,%d) want [%d,%d)", beg, end, wantBeg, wantEnd)
	}

	// Neighbors with a property filter.
	src := edges[0].Src
	gotN := s.NeighborIDs(src, -1, map[string]string{"location": "Berkeley"})
	wantSet := map[int64]bool{}
	for _, e := range edges {
		if e.Src == src && nodes[e.Dst].Props["location"] == "Berkeley" {
			wantSet[e.Dst] = true
		}
	}
	var wantN []int64
	for id := range wantSet {
		wantN = append(wantN, id)
	}
	sort.Slice(wantN, func(i, j int) bool { return wantN[i] < wantN[j] })
	if !reflect.DeepEqual(gotN, wantN) {
		t.Fatalf("NeighborIDs = %v, want %v", gotN, wantN)
	}
}

func TestAppendNodeNewAndUpdate(t *testing.T) {
	s, _, _ := newTestStore(t, 10, 20, 2)
	// Brand-new node lands in the LogStore and is immediately visible.
	if err := s.AppendNode(100, map[string]string{"name": "newbie", "location": "Ithaca"}); err != nil {
		t.Fatal(err)
	}
	props, ok := s.GetAllNodeProps(100)
	if !ok || props["name"] != "newbie" {
		t.Fatalf("new node invisible: %v %v", props, ok)
	}
	// Update of an existing node supersedes the compressed version.
	if err := s.AppendNode(3, map[string]string{"name": "renamed", "location": "Chicago"}); err != nil {
		t.Fatal(err)
	}
	props, _ = s.GetAllNodeProps(3)
	if props["name"] != "renamed" || props["location"] != "Chicago" {
		t.Fatalf("update not visible: %v", props)
	}
	if props["age"] != "" {
		t.Fatalf("replacement should drop old props, got age=%q", props["age"])
	}
	// FindNodes must not return the node for its stale value.
	for _, id := range s.FindNodes(map[string]string{"name": "user3"}) {
		if id == 3 {
			t.Fatal("FindNodes returned stale match")
		}
	}
	// ...but must return it for the new value.
	found := false
	for _, id := range s.FindNodes(map[string]string{"name": "renamed"}) {
		found = found || id == 3
	}
	if !found {
		t.Fatal("FindNodes missed updated node")
	}
	if s.FragmentsOf(3) != 2 {
		t.Fatalf("FragmentsOf(3) = %d, want 2", s.FragmentsOf(3))
	}
}

func TestAppendEdgesMergeWithStatic(t *testing.T) {
	s, _, edges := newTestStore(t, 20, 100, 2)
	src, etype := edges[0].Src, edges[0].Type
	static := refEdges(edges, src, etype)
	// Append one edge with a timestamp in the middle of the static range
	// and one before everything.
	mid := static[len(static)/2].Timestamp + 1
	for _, e := range []layout.Edge{
		{Src: src, Dst: 999, Type: etype, Timestamp: mid},
		{Src: src, Dst: 998, Type: etype, Timestamp: 0},
	} {
		if err := s.AppendEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	rec, ok := s.GetEdgeRecord(src, etype)
	if !ok || rec.Count() != len(static)+2 {
		t.Fatalf("count = %d, want %d", rec.Count(), len(static)+2)
	}
	// Global time order: edge with ts=0 must be first.
	d, err := rec.GetEdgeData(0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Dst != 998 {
		t.Fatalf("first edge dst=%d, want 998 (merged order)", d.Dst)
	}
	// Monotone timestamps across the whole merged record.
	var prev int64 = -1
	for i := 0; i < rec.Count(); i++ {
		d, err := rec.GetEdgeData(i)
		if err != nil {
			t.Fatal(err)
		}
		if d.Timestamp < prev {
			t.Fatalf("merged timestamps unsorted at %d", i)
		}
		prev = d.Timestamp
	}
}

func TestDeleteNode(t *testing.T) {
	s, _, edges := newTestStore(t, 20, 100, 2)
	victim := edges[0].Src
	s.DeleteNode(victim)
	if _, ok := s.GetNodeProps(victim, nil); ok {
		t.Fatal("deleted node readable")
	}
	if _, ok := s.GetEdgeRecord(victim, edges[0].Type); ok {
		t.Fatal("deleted node's edges readable")
	}
	// Deleted node disappears from neighbor lists.
	for src := int64(0); src < 20; src++ {
		for _, n := range s.NeighborIDs(src, -1, nil) {
			if n == victim {
				t.Fatal("deleted node in neighbor list")
			}
		}
	}
	// And from FindNodes.
	for _, id := range s.FindNodes(map[string]string{"name": fmt.Sprintf("user%d", victim)}) {
		if id == victim {
			t.Fatal("deleted node in FindNodes")
		}
	}
	// Re-creating restores it.
	if err := s.AppendNode(victim, map[string]string{"name": "back"}); err != nil {
		t.Fatal(err)
	}
	if props, ok := s.GetAllNodeProps(victim); !ok || props["name"] != "back" {
		t.Fatal("recreated node invisible")
	}
}

func TestDeleteEdges(t *testing.T) {
	s, _, edges := newTestStore(t, 20, 200, 2)
	src, etype := edges[0].Src, edges[0].Type
	static := refEdges(edges, src, etype)
	dst := static[0].Dst
	wantRemoved := 0
	for _, e := range static {
		if e.Dst == dst {
			wantRemoved++
		}
	}
	if got := s.DeleteEdges(src, etype, dst); got != wantRemoved {
		t.Fatalf("DeleteEdges removed %d, want %d", got, wantRemoved)
	}
	rec, ok := s.GetEdgeRecord(src, etype)
	if len(static) == wantRemoved {
		if ok {
			t.Fatal("fully deleted record still present")
		}
		return
	}
	if !ok || rec.Count() != len(static)-wantRemoved {
		t.Fatalf("count after delete = %d, want %d", rec.Count(), len(static)-wantRemoved)
	}
	for i := 0; i < rec.Count(); i++ {
		d, err := rec.GetEdgeData(i)
		if err != nil {
			t.Fatal(err)
		}
		if d.Dst == dst {
			t.Fatal("deleted edge visible")
		}
	}
	// Deleting a LogStore edge too.
	if err := s.AppendEdge(layout.Edge{Src: src, Dst: 777, Type: etype, Timestamp: 42}); err != nil {
		t.Fatal(err)
	}
	if got := s.DeleteEdges(src, etype, 777); got != 1 {
		t.Fatalf("log delete removed %d, want 1", got)
	}
	// Idempotent: deleting again removes nothing.
	if got := s.DeleteEdges(src, etype, dst); got != 0 {
		t.Fatalf("second delete removed %d, want 0", got)
	}
}

func TestRolloverAndFannedUpdates(t *testing.T) {
	ns, es := testSchemas(t)
	nodes, edges := testGraph(20, 50, 2)
	s, err := New(nodes, edges, ns, es, Config{
		NumShards:         2,
		SamplingRate:      8,
		LogStoreThreshold: 2000, // tiny: force frequent rollovers
	})
	if err != nil {
		t.Fatal(err)
	}
	// Write enough to force several rollovers, repeatedly touching node 5.
	for i := 0; i < 200; i++ {
		e := layout.Edge{Src: 5, Dst: int64(1000 + i), Type: 0, Timestamp: int64(i)}
		if err := s.AppendEdge(e); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			if err := s.AppendNode(int64(2000+i), map[string]string{"name": fmt.Sprint(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s.Rollovers() == 0 {
		t.Fatal("expected at least one rollover")
	}
	// Node 5's record must contain static edges + all 200 appended ones.
	static := refEdges(edges, 5, 0)
	rec, ok := s.GetEdgeRecord(5, 0)
	if !ok || rec.Count() != len(static)+200 {
		t.Fatalf("count = %d, want %d", rec.Count(), len(static)+200)
	}
	// All appended destinations visible, in time order across fragments.
	dsts := map[int64]bool{}
	var prev int64 = -1
	for i := 0; i < rec.Count(); i++ {
		d, err := rec.GetEdgeData(i)
		if err != nil {
			t.Fatal(err)
		}
		if d.Timestamp < prev {
			t.Fatalf("timestamps unsorted at %d", i)
		}
		prev = d.Timestamp
		dsts[d.Dst] = true
	}
	for i := 0; i < 200; i++ {
		if !dsts[int64(1000+i)] {
			t.Fatalf("appended edge to %d lost after rollover", 1000+i)
		}
	}
	// Fragmentation grows but stays far below the fragment count.
	if f := s.FragmentsOf(5); f < 3 {
		t.Fatalf("FragmentsOf(5) = %d, want >= 3 after rollovers", f)
	}
	// Nodes never written must have exactly one fragment.
	if f := s.FragmentsOf(7); f != 1 {
		t.Fatalf("FragmentsOf(7) = %d, want 1", f)
	}
	// Appended nodes visible after their LogStore froze.
	if props, ok := s.GetAllNodeProps(2000); !ok || props["name"] != "0" {
		t.Fatalf("node 2000 lost after rollover: %v %v", props, ok)
	}
}

func TestGetEdgeRangeWildcards(t *testing.T) {
	s, _, edges := newTestStore(t, 10, 100, 1)
	src, etype := edges[0].Src, edges[0].Type
	rec, _ := s.GetEdgeRecord(src, etype)
	beg, end := rec.GetEdgeRange(0, math.MaxInt64)
	if beg != 0 || end != rec.Count() {
		t.Fatalf("wildcard range = [%d,%d), want [0,%d)", beg, end, rec.Count())
	}
}

func TestEdgeDataOutOfRange(t *testing.T) {
	s, _, edges := newTestStore(t, 10, 50, 1)
	rec, _ := s.GetEdgeRecord(edges[0].Src, edges[0].Type)
	if _, err := rec.GetEdgeData(-1); err == nil {
		t.Error("negative time order should fail")
	}
	if _, err := rec.GetEdgeData(rec.Count()); err == nil {
		t.Error("out-of-range time order should fail")
	}
}

// TestEdgeDataRangeMatchesLoop: EdgeRecord.GetEdgeDataRange(b, e) is the
// GetEdgeData(i) loop over [b, e), at α ∈ {4, 8, 32}, on every shape of
// record the store builds — one clean compressed piece, a compressed
// piece with physical deletes, a record fragmented over shards and the
// LogStore, a record living in the LogStore alone — with the piece's
// ref caches cold and warm, for whole, partial, one-edge, empty, inverted
// and out-of-range intervals.
func TestEdgeDataRangeMatchesLoop(t *testing.T) {
	ns, es := testSchemas(t)
	nodes, edges := testGraph(12, 300, 5)
	for _, alpha := range []int{4, 8, 32} {
		s, err := New(nodes, edges, ns, es, Config{NumShards: 2, SamplingRate: alpha, LogStoreThreshold: 2000})
		if err != nil {
			t.Fatal(err)
		}
		shapes := map[string]int{}
		check := func(src, etype int64) {
			rng := rand.New(rand.NewSource(src*7 + etype))
			loop, ok := s.GetEdgeRecord(src, etype)
			if !ok {
				return
			}
			n := loop.Count()
			switch p, clean := loop.singleCleanPiece(); {
			case clean:
				shapes["clean"]++
			case len(loop.pieces) > 1:
				shapes["fragmented"]++
			case p == nil && loop.pieces[0].shard == nil:
				shapes["log-only"]++
			default:
				shapes["deletes"]++
			}
			want := make([]layout.EdgeData, n)
			for i := range want {
				if want[i], err = loop.GetEdgeData(i); err != nil {
					t.Fatal(err)
				}
			}
			ranges := [][2]int{{0, n}, {n - 1, n}, {0, 0}, {n, n}, {n, 0}, {-1, n}, {0, n + 1}, {-3, -1}, {n + 1, n + 4}}
			for k := 0; k < 3; k++ {
				b := rng.Intn(n + 1)
				ranges = append(ranges, [2]int{b, b + rng.Intn(n-b+1)})
			}
			for _, warm := range []bool{false, true} {
				for _, r := range ranges {
					rec, _ := s.GetEdgeRecord(src, etype) // fresh refs: cold caches
					if warm {
						rec.GetEdgeRange(want[0].Timestamp+1, math.MaxInt64)
						if _, err := rec.GetEdgeData(n - 1); err != nil {
							t.Fatal(err)
						}
					}
					got, err := rec.GetEdgeDataRange(r[0], r[1])
					wantErr := r[0] < r[1] && (r[0] < 0 || r[1] > n)
					if (err != nil) != wantErr {
						t.Fatalf("α=%d (%d,%d) warm=%v [%d,%d) of %d: err = %v", alpha, src, etype, warm, r[0], r[1], n, err)
					}
					if wantErr || r[0] >= r[1] {
						if got != nil {
							t.Fatalf("α=%d (%d,%d) [%d,%d): got %v, want nil", alpha, src, etype, r[0], r[1], got)
						}
						continue
					}
					if !reflect.DeepEqual(got, want[r[0]:r[1]]) {
						t.Fatalf("α=%d (%d,%d) warm=%v [%d,%d): got %v want %v", alpha, src, etype, warm, r[0], r[1], got, want[r[0]:r[1]])
					}
				}
			}
		}
		all := func() {
			for src := int64(0); src < 16; src++ {
				for etype := int64(0); etype < 3; etype++ {
					check(src, etype)
				}
			}
		}
		all() // every record is one clean piece
		// Physical deletes on compressed pieces, then appends: fragments
		// over the LogStore and, past the threshold, frozen shards; node
		// 15 gets its edges last and has them in the LogStore only.
		for i, e := range edges[:40] {
			if i%4 == 0 {
				s.DeleteEdges(e.Src, e.Type, e.Dst)
			}
		}
		all()
		for i := 0; i < 150; i++ {
			e := layout.Edge{Src: int64(i % 14), Dst: int64(100 + i), Type: int64(i % 3), Timestamp: int64(i * 61 % 10000), Props: map[string]string{"weight": fmt.Sprint(i % 7)}}
			if err := s.AppendEdge(e); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 5; i++ {
			if err := s.AppendEdge(layout.Edge{Src: 15, Dst: int64(i), Type: 1, Timestamp: int64(50 - i), Props: map[string]string{"weight": "3"}}); err != nil {
				t.Fatal(err)
			}
		}
		all()
		for _, shape := range []string{"clean", "deletes", "fragmented", "log-only"} {
			if shapes[shape] == 0 {
				t.Errorf("α=%d: no %s record was exercised (%v)", alpha, shape, shapes)
			}
		}
		if s.Rollovers() == 0 {
			t.Errorf("α=%d: the store never rolled over", alpha)
		}
	}
}

func TestNodeMatches(t *testing.T) {
	s, nodes, _ := newTestStore(t, 10, 10, 2)
	n := nodes[4]
	if !s.NodeMatches(n.ID, map[string]string{"location": n.Props["location"]}) {
		t.Error("should match")
	}
	if s.NodeMatches(n.ID, map[string]string{"location": "Nowhere"}) {
		t.Error("should not match")
	}
	if !s.NodeMatches(n.ID, nil) {
		t.Error("empty filter matches everything")
	}
	if s.NodeMatches(99999, map[string]string{"location": "Ithaca"}) {
		t.Error("missing node must not match")
	}
}

func TestCompact(t *testing.T) {
	ns, es := testSchemas(t)
	nodes, edges := testGraph(25, 100, 4)
	s, err := New(nodes, edges, ns, es, Config{
		NumShards:         3,
		SamplingRate:      8,
		LogStoreThreshold: 2500,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fragment heavily and mutate. Distinct timestamps keep edge order
	// comparable across the rebuild.
	for i := 0; i < 150; i++ {
		if err := s.AppendEdge(layout.Edge{Src: int64(i % 8), Dst: int64(300 + i), Type: 0, Timestamp: int64(100000 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AppendNode(3, map[string]string{"name": "updated", "location": "Chicago"}); err != nil {
		t.Fatal(err)
	}
	s.DeleteNode(9)
	s.DeleteEdges(edges[0].Src, edges[0].Type, edges[0].Dst)
	if s.Rollovers() == 0 {
		t.Fatal("fixture should have rolled over")
	}

	// Snapshot observable state before compaction.
	type nodeObs struct {
		vals []string
		ok   bool
	}
	nodeBefore := map[int64]nodeObs{}
	for id := int64(0); id < 30; id++ {
		vals, ok := s.GetNodeProps(id, nil)
		nodeBefore[id] = nodeObs{vals, ok}
	}
	recBefore := map[[2]int64][]int64{} // (src,type) -> timestamps
	for src := int64(0); src < 25; src++ {
		for ty := int64(0); ty < 4; ty++ {
			if rec, ok := s.GetEdgeRecord(src, ty); ok {
				var ts []int64
				for i := 0; i < rec.Count(); i++ {
					d, err := rec.GetEdgeData(i)
					if err != nil {
						t.Fatal(err)
					}
					ts = append(ts, d.Timestamp)
				}
				recBefore[[2]int64{src, ty}] = ts
			}
		}
	}

	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}

	// Fragmentation reset.
	if s.NumFragments() != 3+1 {
		t.Fatalf("fragments after compact = %d, want 4", s.NumFragments())
	}
	for id := int64(0); id < 25; id++ {
		if f := s.FragmentsOf(id); f != 1 {
			t.Fatalf("FragmentsOf(%d) = %d after compact", id, f)
		}
	}
	// Observable state unchanged.
	for id, want := range nodeBefore {
		vals, ok := s.GetNodeProps(id, nil)
		if ok != want.ok || !reflect.DeepEqual(vals, want.vals) {
			t.Fatalf("node %d changed by compact: %v,%v want %v,%v", id, vals, ok, want.vals, want.ok)
		}
	}
	for src := int64(0); src < 25; src++ {
		for ty := int64(0); ty < 4; ty++ {
			want, had := recBefore[[2]int64{src, ty}]
			rec, ok := s.GetEdgeRecord(src, ty)
			if ok != had {
				t.Fatalf("record (%d,%d) existence changed: %v want %v", src, ty, ok, had)
			}
			if !ok {
				continue
			}
			if rec.Count() != len(want) {
				t.Fatalf("record (%d,%d) count %d want %d", src, ty, rec.Count(), len(want))
			}
			for i, w := range want {
				d, err := rec.GetEdgeData(i)
				if err != nil {
					t.Fatal(err)
				}
				if d.Timestamp != w {
					t.Fatalf("record (%d,%d)[%d] ts %d want %d", src, ty, i, d.Timestamp, w)
				}
			}
		}
	}
	// The store keeps working after compaction (writes, rollovers).
	for i := 0; i < 80; i++ {
		if err := s.AppendEdge(layout.Edge{Src: 2, Dst: int64(900 + i), Type: 1, Timestamp: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	rec, ok := s.GetEdgeRecord(2, 1)
	if !ok || rec.Count() < 80 {
		t.Fatalf("writes after compact lost")
	}
	// Deleted node stays deleted (physically gone now).
	if _, ok := s.GetNodeProps(9, nil); ok {
		t.Fatal("deleted node resurrected by compact")
	}
}
