package pointerstore

import (
	"fmt"
	"reflect"
	"testing"

	"zipg/internal/graphapi"
	"zipg/internal/memsim"
)

func testStore(t testing.TB, cfg Config) *Store {
	t.Helper()
	var nodes []graphapi.Node
	for i := 0; i < 20; i++ {
		nodes = append(nodes, graphapi.Node{ID: int64(i), Props: map[string]string{
			"name": fmt.Sprintf("n%d", i),
			"city": []string{"a", "b"}[i%2],
		}})
	}
	var edges []graphapi.Edge
	for i := 0; i < 60; i++ {
		edges = append(edges, graphapi.Edge{
			Src: int64(i % 20), Dst: int64((i + 3) % 20),
			Type: int64((i / 20) % 2), Timestamp: int64(i * 10),
			Props: map[string]string{"w": fmt.Sprint(i)},
		})
	}
	s, err := New(nodes, edges, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPropertyChains(t *testing.T) {
	s := testStore(t, Config{})
	vals, ok := s.GetNodeProperty(3, []string{"city", "name"})
	if !ok || vals[0] != "b" || vals[1] != "n3" {
		t.Fatalf("props = %v", vals)
	}
	// Wildcard returns sorted present values.
	vals, _ = s.GetNodeProperty(3, nil)
	if !reflect.DeepEqual(vals, []string{"b", "n3"}) {
		t.Fatalf("wildcard = %v", vals)
	}
	if _, ok := s.GetNodeProperty(99, nil); ok {
		t.Fatal("missing node found")
	}
}

func TestRelationshipChainScan(t *testing.T) {
	s := testStore(t, Config{})
	// src 5 appears at i=5,25,45 with types 0,1,0.
	rec, ok := s.GetEdgeRecord(5, 0)
	if !ok || rec.Count() != 2 {
		t.Fatalf("record(5,0) count = %d", rec.Count())
	}
	// Timestamps sorted.
	var prev int64 = -1
	for i := 0; i < rec.Count(); i++ {
		d, err := rec.Data(i)
		if err != nil {
			t.Fatal(err)
		}
		if d.Timestamp < prev {
			t.Fatal("unsorted")
		}
		prev = d.Timestamp
		if d.Props["w"] == "" {
			t.Fatal("edge props lost")
		}
	}
	// Wildcard record list covers both types.
	if recs := s.GetEdgeRecords(5); len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
}

func TestGlobalIndex(t *testing.T) {
	s := testStore(t, Config{})
	ids := s.GetNodeIDs(map[string]string{"city": "a"})
	if len(ids) != 10 {
		t.Fatalf("index search = %v", ids)
	}
	// Stale index entries are filtered after updates.
	if err := s.AppendNode(0, map[string]string{"city": "b", "name": "n0"}); err != nil {
		t.Fatal(err)
	}
	for _, id := range s.GetNodeIDs(map[string]string{"city": "a"}) {
		if id == 0 {
			t.Fatal("stale index entry returned")
		}
	}
	found := false
	for _, id := range s.GetNodeIDs(map[string]string{"city": "b"}) {
		found = found || id == 0
	}
	if !found {
		t.Fatal("updated node missing from index")
	}
}

func TestTunedCache(t *testing.T) {
	s := testStore(t, Config{Tuned: true, CacheNodes: 64})
	s.GetNodeProperty(7, nil) // fill
	s.med.ResetStats()
	s.GetNodeProperty(7, nil) // hit: no prop-chain walk
	if st := s.med.Stats(); st.Accesses > 2 {
		t.Errorf("cache hit still walked records: %d accesses", st.Accesses)
	}
	// Updates invalidate.
	if err := s.AppendNode(7, map[string]string{"name": "fresh"}); err != nil {
		t.Fatal(err)
	}
	vals, _ := s.GetNodeProperty(7, []string{"name"})
	if vals[0] != "fresh" {
		t.Fatalf("stale cache after update: %v", vals)
	}
}

func TestTunedCacheEviction(t *testing.T) {
	s := testStore(t, Config{Tuned: true, CacheNodes: 4})
	for id := int64(0); id < 20; id++ {
		s.GetNodeProperty(id, nil)
	}
	s.cacheMu.Lock()
	n := len(s.cache)
	s.cacheMu.Unlock()
	if n > 4 {
		t.Fatalf("cache grew to %d entries", n)
	}
}

func TestDeleteSemantics(t *testing.T) {
	s := testStore(t, Config{})
	if err := s.DeleteNode(5); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetNodeProperty(5, nil); ok {
		t.Fatal("deleted node readable")
	}
	if _, ok := s.GetEdgeRecord(5, 0); ok {
		t.Fatal("deleted node's edges readable")
	}
	// Edge deletes: (6,0,9) exists for i=6 and i=46 (both type 0).
	n, err := s.DeleteEdges(6, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("removed %d, want 2", n)
	}
	if n, _ = s.DeleteEdges(6, 0, 9); n != 0 {
		t.Fatal("double delete")
	}
	// A deleted node's edges can be deleted, and stay deleted when the
	// node comes back: (5,0,8) exists for i=5 and i=45, (5,1,8) for i=25.
	if n, _ = s.DeleteEdges(5, 0, 8); n != 2 {
		t.Fatalf("removed %d of the deleted node's edges, want 2", n)
	}
	if err := s.AppendNode(5, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetEdgeRecord(5, 0); ok {
		t.Fatal("deleted edges came back with their node")
	}
	if rec, ok := s.GetEdgeRecord(5, 1); !ok || rec.Count() != 1 {
		t.Fatal("the recreated node lost its other edges")
	}
}

func TestDynamicStoreChargedOnRead(t *testing.T) {
	med := memsim.NewMedium(nil, memsim.Config{Budget: 1 << 20})
	long := make([]byte, 300)
	for i := range long {
		long[i] = 'x'
	}
	s, err := New([]graphapi.Node{{ID: 0, Props: map[string]string{"big": string(long)}}}, nil,
		Config{Medium: med})
	if err != nil {
		t.Fatal(err)
	}
	med.ResetStats()
	s.GetNodeProperty(0, []string{"big"})
	if st := med.Stats(); st.Accesses < 2 {
		t.Errorf("dynamic store read not charged: %d accesses", st.Accesses)
	}
	// Footprint includes the dynamic blocks (3 blocks of 128B for 300B).
	if med.Footprint() < 3*128 {
		t.Errorf("dynamic blocks missing from footprint: %d", med.Footprint())
	}
}

func TestEndpointAutoCreate(t *testing.T) {
	s, err := New(nil, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEdge(graphapi.Edge{Src: 1, Dst: 2, Type: 0, Timestamp: 1}); err != nil {
		t.Fatal(err)
	}
	if nbr := s.GetNeighborIDs(1, 0, nil); !reflect.DeepEqual(nbr, []graphapi.NodeID{2}) {
		t.Fatalf("neighbors = %v", nbr)
	}
}
