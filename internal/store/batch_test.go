package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"zipg/internal/graphapi"
	"zipg/internal/layout"
	"zipg/internal/parallel"
)

// newFragmentedStore builds a store whose data is deliberately spread
// across fragments: primary shards, a rolled-over frozen shard, the
// live log, update pointers from re-appended nodes, and lazy deletion
// marks on nodes and physical edges. Batch reads must agree with the
// scalar path on every one of these cases.
func newFragmentedStore(t testing.TB, alpha int) (*Store, []layout.NodeID) {
	t.Helper()
	ns, es := testSchemas(t)
	nodes, edges := testGraph(60, 400, 2)
	// A tiny threshold forces log rollover into frozen shards as we append.
	s, err := New(nodes, edges, ns, es, Config{NumShards: 4, SamplingRate: alpha, LogStoreThreshold: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	// Re-append some nodes (update pointers), append fresh nodes and
	// edges (log + rollover), delete some nodes and physical edges.
	for i := 0; i < 20; i++ {
		id := layout.NodeID(i * 3)
		if err := s.AppendNode(id, map[string]string{"age": fmt.Sprint(90 + i), "name": fmt.Sprintf("upd%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 60; i < 70; i++ {
		if err := s.AppendNode(layout.NodeID(i), map[string]string{"location": "Ithaca"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		if err := s.AppendEdge(layout.Edge{
			Src: layout.NodeID(i % 60), Dst: layout.NodeID((i * 11) % 60), Type: int64(i % 3),
			Timestamp: int64(20000 + i), Props: map[string]string{"weight": fmt.Sprint(i)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		s.DeleteNode(layout.NodeID(i*7 + 1))
	}
	for _, e := range edges[:15] {
		s.DeleteEdges(e.Src, e.Type, e.Dst)
	}
	ids := make([]layout.NodeID, 0, 75)
	for i := 0; i < 75; i++ { // includes IDs that never existed
		ids = append(ids, layout.NodeID(i))
	}
	return s, ids
}

// atPoolSizes runs f with the shared pool at 4 workers — a batch fans out
// whatever the host's core count — and at 1, the sequential path.
func atPoolSizes(t *testing.T, f func(t *testing.T)) {
	for _, n := range []int{4, 1} {
		prev := parallel.SetWorkers(n)
		t.Run(fmt.Sprintf("workers=%d", n), f)
		parallel.SetWorkers(prev)
	}
}

func TestObjGetBatchAgainstScalar(t *testing.T) {
	atPoolSizes(t, testObjGetBatchAgainstScalar)
}

func testObjGetBatchAgainstScalar(t *testing.T) {
	for _, alpha := range []int{4, 8, 32} {
		s, universe := newFragmentedStore(t, alpha)
		rng := rand.New(rand.NewSource(int64(alpha)))
		for trial := 0; trial < 15; trial++ {
			n := rng.Intn(80)
			batch := make([]layout.NodeID, n)
			for i := range batch {
				if rng.Intn(8) == 0 && i > 0 {
					batch[i] = batch[rng.Intn(i)] // duplicate
				} else {
					batch[i] = universe[rng.Intn(len(universe))]
				}
			}
			gotVals, gotOKs := s.ObjGetBatch(batch)
			for i, id := range batch {
				wantVals, wantOK := s.GetNodeProps(id, nil)
				if gotOKs[i] != wantOK || !reflect.DeepEqual(gotVals[i], wantVals) {
					t.Fatalf("α=%d trial %d batch[%d]=%d: got %v,%v want %v,%v",
						alpha, trial, i, id, gotVals[i], gotOKs[i], wantVals, wantOK)
				}
			}
		}
		vals, oks := s.ObjGetBatch(nil)
		if len(vals) != 0 || len(oks) != 0 {
			t.Fatal("empty batch not empty")
		}
	}
}

func TestNodeMatchesBatchAgainstScalar(t *testing.T) {
	atPoolSizes(t, testNodeMatchesBatchAgainstScalar)
}

func testNodeMatchesBatchAgainstScalar(t *testing.T) {
	s, universe := newFragmentedStore(t, 8)
	filters := []map[string]string{
		nil,
		{"location": "Ithaca"},
		{"location": "Ithaca", "age": "25"},
		{"name": "upd3"},
		{"nope": "x"},
	}
	for _, props := range filters {
		got := s.NodeMatchesBatch(universe, props)
		for i, id := range universe {
			want := s.HasNode(id) && s.NodeMatches(id, props)
			if got[i] != want {
				t.Fatalf("props %v id %d: got %v want %v", props, id, got[i], want)
			}
		}
	}
}

func TestAssocRangeBatchAgainstScalar(t *testing.T) {
	atPoolSizes(t, testAssocRangeBatchAgainstScalar)
}

func testAssocRangeBatchAgainstScalar(t *testing.T) {
	for _, alpha := range []int{4, 8, 32} {
		s, _ := newFragmentedStore(t, alpha)
		rng := rand.New(rand.NewSource(int64(alpha) * 7))
		for trial := 0; trial < 15; trial++ {
			n := rng.Intn(60)
			reqs := make([]graphapi.AssocRangeReq, n)
			for i := range reqs {
				reqs[i] = graphapi.AssocRangeReq{
					ID:    layout.NodeID(rng.Intn(70)), // includes edge-less and deleted nodes
					Type:  int64(rng.Intn(4)),          // includes absent type 3
					Idx:   rng.Intn(12) - 2,            // negative indices too
					Limit: rng.Intn(15),
				}
				if rng.Intn(8) == 0 && i > 0 {
					reqs[i] = reqs[rng.Intn(i)] // duplicate
				}
			}
			got, err := s.AssocRangeBatch(reqs)
			if err != nil {
				t.Fatal(err)
			}
			for i, req := range reqs {
				want, err := s.assocRangeScalar(req)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got[i], want) {
					t.Fatalf("α=%d trial %d req %+v: got %v want %v", alpha, trial, req, got[i], want)
				}
			}
		}
		out, err := s.AssocRangeBatch(nil)
		if err != nil || len(out) != 0 {
			t.Fatal("empty batch not empty")
		}
	}
}

// TestBatchConcurrentReadWrite runs batch readers against concurrent
// writers; under -race this proves a fanned batch's tasks keep the
// scalar reads' snapshot discipline.
func TestBatchConcurrentReadWrite(t *testing.T) {
	atPoolSizes(t, testBatchConcurrentReadWrite)
}

func testBatchConcurrentReadWrite(t *testing.T) {
	s, universe := newFragmentedStore(t, 8)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for iter := 0; iter < 30; iter++ {
				switch g % 4 {
				case 0: // node writer
					id := universe[rng.Intn(len(universe))]
					if rng.Intn(5) == 0 {
						s.DeleteNode(id)
					} else if err := s.AppendNode(id, map[string]string{"age": fmt.Sprint(iter)}); err != nil {
						t.Error(err)
						return
					}
				case 1: // edge writer
					e := layout.Edge{
						Src: universe[rng.Intn(len(universe))], Dst: universe[rng.Intn(len(universe))],
						Type: int64(rng.Intn(3)), Timestamp: int64(30000 + iter),
						Props: map[string]string{"weight": "1"},
					}
					if rng.Intn(5) == 0 {
						s.DeleteEdges(e.Src, e.Type, e.Dst)
					} else if err := s.AppendEdge(e); err != nil {
						t.Error(err)
						return
					}
				case 2: // node batch reader
					batch := make([]layout.NodeID, 20)
					for i := range batch {
						batch[i] = universe[rng.Intn(len(universe))]
					}
					vals, oks := s.ObjGetBatch(batch)
					for i := range batch {
						if oks[i] && vals[i] == nil {
							t.Errorf("found node %d with nil props", batch[i])
							return
						}
					}
					s.NodeMatchesBatch(batch, map[string]string{"location": "Ithaca"})
				default: // edge batch reader
					reqs := make([]graphapi.AssocRangeReq, 20)
					for i := range reqs {
						reqs[i] = graphapi.AssocRangeReq{
							ID: universe[rng.Intn(len(universe))], Type: int64(rng.Intn(3)),
							Idx: 0, Limit: 10,
						}
					}
					if _, err := s.AssocRangeBatch(reqs); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
