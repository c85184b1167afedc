package store

import (
	"math/rand"
	"sync"
	"testing"

	"zipg/internal/gen"
	"zipg/internal/graphapi"
	"zipg/internal/layout"
)

// Batch-vs-scalar benchmarks over one store: 64 requests through the
// batch entry point against the same 64 through a scalar loop, so with
// -cpu 1,2 they read what the fan-out costs and what it buys. The store
// is an orkut-shaped 16 MiB dataset, large enough that requests at random
// IDs leave the cache between visits (on a few hundred nodes everything
// stays resident and any reordering of the reads looks like a gain). CI's
// bench smoke runs each once so a setup break or hang fails fast.

type batchBench struct {
	s    *Store
	ids  [][]layout.NodeID
	reqs [][]graphapi.AssocRangeReq
	prop map[string]string // a filter some nodes match, for NodeMatchesBatch
}

var (
	benchBatchOnce sync.Once
	benchBatch     batchBench
)

// benchStore returns the shared store and request sets, built by the first
// benchmark that asks, with the timer reset.
func benchStore(b *testing.B) *batchBench {
	b.Helper()
	benchBatchOnce.Do(func() {
		d := gen.DatasetSpec{Name: "orkut", Kind: gen.RealWorld, TargetBytes: 16 << 20, AvgDegree: 39, NumEdgeTypes: 5, Seed: 101}.Generate()
		bb := &benchBatch
		bb.s = datasetStore(b, d, Config{NumShards: 4, SamplingRate: 32})
		bb.prop = map[string]string{"prop00": d.Nodes[0].Props["prop00"]}
		rng := rand.New(rand.NewSource(9))
		const size = 64
		bb.ids = make([][]layout.NodeID, 256)
		bb.reqs = make([][]graphapi.AssocRangeReq, 256)
		for i := range bb.ids {
			bb.ids[i] = make([]layout.NodeID, size)
			bb.reqs[i] = make([]graphapi.AssocRangeReq, size)
			for k := 0; k < size; k++ {
				bb.ids[i][k] = d.Nodes[rng.Intn(len(d.Nodes))].ID
				bb.reqs[i][k] = graphapi.AssocRangeReq{
					ID: d.Nodes[rng.Intn(len(d.Nodes))].ID, Type: int64(rng.Intn(5)),
					Idx: 0, Limit: 10,
				}
			}
		}
	})
	b.ResetTimer()
	return &benchBatch
}

func BenchmarkBatchObjGet64(b *testing.B) {
	bb := benchStore(b)
	for i := 0; i < b.N; i++ {
		bb.s.ObjGetBatch(bb.ids[i%len(bb.ids)])
	}
}

func BenchmarkScalarObjGet64(b *testing.B) {
	bb := benchStore(b)
	for i := 0; i < b.N; i++ {
		for _, id := range bb.ids[i%len(bb.ids)] {
			bb.s.GetNodeProps(id, nil)
		}
	}
}

func BenchmarkBatchNodeMatches64(b *testing.B) {
	bb := benchStore(b)
	for i := 0; i < b.N; i++ {
		bb.s.NodeMatchesBatch(bb.ids[i%len(bb.ids)], bb.prop)
	}
}

func BenchmarkScalarNodeMatches64(b *testing.B) {
	bb := benchStore(b)
	for i := 0; i < b.N; i++ {
		for _, id := range bb.ids[i%len(bb.ids)] {
			_ = bb.s.HasNode(id) && bb.s.NodeMatches(id, bb.prop)
		}
	}
}

func BenchmarkBatchAssocRange64(b *testing.B) {
	bb := benchStore(b)
	for i := 0; i < b.N; i++ {
		if _, err := bb.s.AssocRangeBatch(bb.reqs[i%len(bb.reqs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScalarAssocRange64(b *testing.B) {
	bb := benchStore(b)
	for i := 0; i < b.N; i++ {
		for _, req := range bb.reqs[i%len(bb.reqs)] {
			if _, err := bb.s.assocRangeScalar(req); err != nil {
				b.Fatal(err)
			}
		}
	}
}
