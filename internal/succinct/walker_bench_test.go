package succinct_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"zipg/internal/gen"
	"zipg/internal/layout"
	"zipg/internal/succinct"
)

var (
	orkutEdgesOnce sync.Once
	orkutEdges     *succinct.Store
)

// orkutEdgeStore compresses the EdgeFile of the orkut-shaped 16 MiB
// dataset the store benchmarks build (about 14 MB of text, 5 MB
// compressed at α = 32): well past L2, so a Ψ step is a cache miss, as it
// is on the benchmark's workloads. Built once, by the first caller.
func orkutEdgeStore(b *testing.B) *succinct.Store {
	b.Helper()
	orkutEdgesOnce.Do(func() {
		d := gen.DatasetSpec{Name: "orkut", Kind: gen.RealWorld, TargetBytes: 16 << 20, AvgDegree: 39, NumEdgeTypes: 5, Seed: 101}.Generate()
		widest := 0
		for _, e := range d.Edges {
			widest = max(widest, len(e.Props["edgedata"]))
		}
		schema, err := layout.NewPropertySchema([]string{"edgedata"}, 4*widest)
		if err != nil {
			b.Fatal(err)
		}
		flat, _, err := layout.BuildEdgeFile(d.Edges, schema)
		if err != nil {
			b.Fatal(err)
		}
		orkutEdges = succinct.Build(flat, succinct.Options{SamplingRate: 32})
	})
	b.ResetTimer()
	return orkutEdges
}

// BenchmarkWalkerLanes is the table walkLanes is picked from: a walk
// anchored at a random offset reads n bytes with k chains in lockstep,
// for the lengths the workloads read (a 16-byte field, the ≈131-byte
// payload of one edge, a few edges, a whole record), in ns per byte.
// Run it at -cpu 1.
func BenchmarkWalkerLanes(b *testing.B) {
	s := orkutEdgeStore(b)
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{16, 131, 720, 2000} {
		offs := make([]int, 4096)
		for i := range offs {
			offs[i] = rng.Intn(s.InputLen() - n)
		}
		for _, k := range []int{1, 2, 4, 8, 16} {
			b.Run(fmt.Sprintf("len=%d/k=%d", n, k), func(b *testing.B) {
				buf := make([]byte, 0, n)
				for i := 0; i < b.N; i++ {
					w := s.Walk(offs[i%len(offs)])
					buf = w.AppendLanes(buf[:0], n, k)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/B")
			})
		}
	}
}
