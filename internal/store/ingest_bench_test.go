package store

import (
	"sync/atomic"
	"testing"

	"zipg/internal/layout"
)

// BenchmarkIngest measures concurrent append throughput through
// Store.commit.
func BenchmarkIngest(b *testing.B) {
	ns, es := testSchemas(b)
	nodes, edges := testGraph(100, 400, 11)
	s, err := New(nodes, edges, ns, es, Config{
		NumShards: 4, SamplingRate: 8, LogStoreThreshold: 1 << 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	_ = edges
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Each goroutine writes to its own source node so record growth
		// is spread across partitions, like distinct clients would.
		src := 10000 + seq.Add(1)
		i := int64(0)
		for pb.Next() {
			i++
			if err := s.AppendEdge(layout.Edge{Src: src, Dst: 20000 + i, Type: 1, Timestamp: i}); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
