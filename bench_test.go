package zipg_test

// Benchmark harness entry points: BenchmarkFigures runs every table and
// figure of the paper's evaluation, one sub-benchmark per entry of
// internal/bench's Figures, at a benchmark-friendly scale. Run the full
// suite with:
//
//	go test -bench=. -benchmem
//
// For paper-scale tables (bigger datasets, more operations, the full
// printed output and its claims) use the standalone harness:
//
//	go run ./cmd/zipg-bench -experiment all -base 1048576 -ops 4000

import (
	"fmt"
	"runtime"
	"testing"

	"zipg"
	"zipg/internal/bench"
	"zipg/internal/gen"
	"zipg/internal/parallel"
	"zipg/internal/workloads"
)

// BenchmarkFigures regenerates every figure. Each run keeps its
// end-to-end time in the seconds range; TestPaperClaims in
// internal/bench checks the claims at the scales where they hold.
func BenchmarkFigures(b *testing.B) {
	for _, f := range bench.Figures {
		b.Run(f.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := f.Run(bench.Options{BaseBytes: 64 << 10, Ops: 400})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 && testing.Verbose() {
					b.Logf("\n%s", r.Format())
				}
			}
		})
	}
}

// --- micro-benchmarks of the public API on a realistic graph ---

func benchGraph(b *testing.B) (*zipg.Graph, *gen.Dataset) {
	b.Helper()
	d := gen.DatasetSpec{
		Name: "micro", Kind: gen.RealWorld,
		TargetBytes: 256 << 10, AvgDegree: 15, NumEdgeTypes: 5, Seed: 5150,
	}.Generate()
	g, err := zipg.Compress(zipg.GraphData{Nodes: d.Nodes, Edges: d.Edges}, zipg.Options{NumShards: 2})
	if err != nil {
		b.Fatal(err)
	}
	return g, d
}

// BenchmarkObjGet measures get_node_property(id, *) — TAO's obj_get.
func BenchmarkObjGet(b *testing.B) {
	g, d := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.GetNodeProperty(int64(i%d.NumNodes()), nil)
	}
}

// BenchmarkAssocRange measures Algorithm 1 on the compressed store.
func BenchmarkAssocRange(b *testing.B) {
	g, d := benchGraph(b)
	tao := workloads.TAO{S: g}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tao.AssocRange(int64(i%d.NumNodes()), int64(i%5), 0, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssocCount measures the metadata-only count path.
func BenchmarkAssocCount(b *testing.B) {
	g, d := benchGraph(b)
	tao := workloads.TAO{S: g}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tao.AssocCount(int64(i%d.NumNodes()), int64(i%5))
	}
}

// BenchmarkGetNodeIDs measures compressed substring search
// (get_node_ids).
func BenchmarkGetNodeIDs(b *testing.B) {
	g, d := benchGraph(b)
	pool := d.Vocab["prop00"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.GetNodeIDs(map[string]string{"prop00": pool[i%len(pool)]})
	}
}

// BenchmarkNeighborFilter measures the no-join neighbor+property plan.
func BenchmarkNeighborFilter(b *testing.B) {
	g, d := benchGraph(b)
	pool := d.Vocab["prop01"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.GetNeighborIDs(int64(i%d.NumNodes()), zipg.WildcardType,
			map[string]string{"prop01": pool[i%len(pool)]})
	}
}

// BenchmarkAppendEdge measures the LogStore write path.
func BenchmarkAppendEdge(b *testing.B) {
	g, d := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := g.AppendEdge(zipg.Edge{
			Src: int64(i % d.NumNodes()), Dst: int64((i + 1) % d.NumNodes()),
			Type: int64(i % 5), Timestamp: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompress measures end-to-end compression throughput.
func BenchmarkCompress(b *testing.B) {
	d := gen.DatasetSpec{
		Name: "compress", Kind: gen.RealWorld,
		TargetBytes: 128 << 10, AvgDegree: 10, NumEdgeTypes: 3, Seed: 99,
	}.Generate()
	b.SetBytes(d.RawBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := zipg.Compress(zipg.GraphData{Nodes: d.Nodes, Edges: d.Edges}, zipg.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWorkerCounts returns the pool sizes each parallel benchmark
// compares: the sequential baseline plus NumCPU (when they differ).
func benchWorkerCounts() []int {
	if n := runtime.NumCPU(); n > 1 {
		return []int{1, n}
	}
	return []int{1, 2}
}

// BenchmarkParallelFindNodes measures multi-fragment get_node_ids at
// pool size 1 (sequential baseline) and NumCPU, on a store fragmented
// across ≥8 fragments by forced LogStore rollovers.
func BenchmarkParallelFindNodes(b *testing.B) {
	d := gen.DatasetSpec{
		Name: "pfind", Kind: gen.RealWorld,
		TargetBytes: 256 << 10, AvgDegree: 15, NumEdgeTypes: 5, Seed: 5151,
	}.Generate()
	g, err := zipg.Compress(zipg.GraphData{Nodes: d.Nodes, Edges: d.Edges}, zipg.Options{
		NumShards:         4,
		LogStoreThreshold: 16 << 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; g.Store().Rollovers() < 4; i++ {
		src := d.Nodes[i%len(d.Nodes)]
		if err := g.AppendNode(int64(d.NumNodes()+i), src.Props); err != nil {
			b.Fatal(err)
		}
	}
	pool := d.Vocab["prop00"]
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			prev := parallel.SetWorkers(w)
			defer parallel.SetWorkers(prev)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.GetNodeIDs(map[string]string{"prop00": pool[i%len(pool)]})
			}
		})
	}
}

// BenchmarkParallelCompress measures multi-shard compression at pool
// size 1 and NumCPU (4 independent shards build concurrently).
func BenchmarkParallelCompress(b *testing.B) {
	d := gen.DatasetSpec{
		Name: "pcompress", Kind: gen.RealWorld,
		TargetBytes: 128 << 10, AvgDegree: 10, NumEdgeTypes: 3, Seed: 98,
	}.Generate()
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			prev := parallel.SetWorkers(w)
			defer parallel.SetWorkers(prev)
			b.SetBytes(d.RawBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := zipg.Compress(zipg.GraphData{Nodes: d.Nodes, Edges: d.Edges}, zipg.Options{NumShards: 4}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Example demonstrates the API end to end (shown on the package docs).
func Example() {
	g, err := zipg.Compress(zipg.GraphData{
		Nodes: []zipg.Node{
			{ID: 0, Props: map[string]string{"name": "alice", "location": "Ithaca"}},
			{ID: 1, Props: map[string]string{"name": "bob", "location": "Princeton"}},
		},
		Edges: []zipg.Edge{{Src: 0, Dst: 1, Type: 0, Timestamp: 42}},
	}, zipg.Options{})
	if err != nil {
		panic(err)
	}
	name, _ := g.GetNodeProperty(1, []string{"name"})
	fmt.Println(name[0], g.GetNeighborIDs(0, 0, nil))
	// Output: bob [1]
}
