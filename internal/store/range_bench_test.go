package store

import (
	"fmt"
	"testing"

	"zipg/internal/gen"
	"zipg/internal/graphapi"
	"zipg/internal/layout"
	"zipg/internal/workloads"
)

// fragmentedLinkBench builds a store over an lb-small-shaped dataset and
// spreads LinkBench's edge writes over pieces-1 compressed generations
// behind the primaries, so a Zipf-hot node's record lies over up to that
// many pieces. It returns the assoc_range reads of the same generated op
// sequence — node, type, idx and limit drawn as workloads.GenerateOps
// draws them.
func fragmentedLinkBench(b *testing.B, pieces int) (*Store, []graphapi.AssocRangeReq) {
	b.Helper()
	d := gen.DatasetSpec{Name: "lb-small", Kind: gen.LinkBench, TargetBytes: 1 << 20, AvgDegree: 5, NumEdgeTypes: 5, ZipfS: 1.5, Seed: 1}.Generate()
	s := datasetStore(b, d, Config{NumShards: 2, SamplingRate: 32, LogStoreThreshold: 1 << 30})
	ops := workloads.GenerateOps(d, workloads.MixConfig{Mix: workloads.LinkBenchMix, AccessSkew: 1.4, Seed: 1}, 6000)
	var reads []graphapi.AssocRangeReq
	var writes []layout.Edge
	for _, o := range ops {
		switch o.Kind {
		case workloads.OpAssocRange:
			reads = append(reads, graphapi.AssocRangeReq{ID: o.ID, Type: o.AType, Idx: o.Idx, Limit: o.Limit})
		case workloads.OpAssocAdd:
			writes = append(writes, o.Edge)
		}
	}
	for g := 0; g < pieces-1; g++ {
		for _, e := range writes[g*len(writes)/(pieces-1) : (g+1)*len(writes)/(pieces-1)] {
			if err := s.AppendEdge(e); err != nil {
				b.Fatal(err)
			}
		}
		freezeLog(b, s, true)
	}
	return s, reads
}

// datasetStore builds a store over a generated dataset, the schemas taken
// from the property IDs and widest values it holds.
func datasetStore(b *testing.B, d *gen.Dataset, cfg Config) *Store {
	b.Helper()
	ids := func(props func(i int) map[string]string, n int) (out []string, widest int) {
		seen := map[string]bool{}
		for i := 0; i < n; i++ {
			for k, v := range props(i) {
				if !seen[k] {
					seen[k] = true
					out = append(out, k)
				}
				widest = max(widest, len(v))
			}
		}
		return out, widest
	}
	nodeIDs, nodeMax := ids(func(i int) map[string]string { return d.Nodes[i].Props }, len(d.Nodes))
	edgeIDs, edgeMax := ids(func(i int) map[string]string { return d.Edges[i].Props }, len(d.Edges))
	ns, err := layout.NewPropertySchema(nodeIDs, 4*nodeMax)
	if err != nil {
		b.Fatal(err)
	}
	es, err := layout.NewPropertySchema(edgeIDs, 4*edgeMax)
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(d.Nodes, d.Edges, ns, es, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkAssocRangeFragmented is LinkBench's assoc_range on records
// that lie over 1, 4 and 16 pieces.
func BenchmarkAssocRangeFragmented(b *testing.B) {
	for _, pieces := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("pieces=%d", pieces), func(b *testing.B) {
			s, reads := fragmentedLinkBench(b, pieces)
			edges := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				data, err := s.assocRangeScalar(reads[i%len(reads)])
				if err != nil {
					b.Fatal(err)
				}
				edges += len(data)
			}
			b.ReportMetric(float64(edges)/float64(b.N), "edges/op")
		})
	}
}

// BenchmarkCompactMaterialize is the compactor's read of a fragmented
// store: every live node and edge out of the primaries and four
// generations, which is what a compaction does before it builds.
func BenchmarkCompactMaterialize(b *testing.B) {
	s, _ := fragmentedLinkBench(b, 5)
	s.mu.Lock()
	s.sealLogLocked()
	snap := s.snapshotForCompactLocked()
	s.mu.Unlock()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes, edges, err := snap.materialize(s)
		if err != nil || len(nodes) == 0 || len(edges) == 0 {
			b.Fatalf("%d nodes, %d edges, %v", len(nodes), len(edges), err)
		}
	}
}
