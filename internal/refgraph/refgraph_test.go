package refgraph

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"zipg/internal/graphapi"
)

// model is the oracle's former shape: one flat edge list per source,
// filtered and sorted by (ts, seq) on every read.
type model struct {
	nodes map[graphapi.NodeID]bool
	edges map[graphapi.NodeID][]edge
	seq   int
}

func (m *model) appendEdge(e graphapi.Edge) {
	m.nodes[e.Src], m.nodes[e.Dst] = true, true
	m.seq++
	m.edges[e.Src] = append(m.edges[e.Src], edge{e.Type, e.Dst, e.Timestamp, m.seq, e.Props})
}

func (m *model) deleteEdges(src graphapi.NodeID, etype graphapi.EdgeType, dst graphapi.NodeID) int {
	es := m.edges[src]
	kept := es[:0]
	for _, e := range es {
		if e.etype != etype || e.dst != dst {
			kept = append(kept, e)
		}
	}
	m.edges[src] = kept
	return len(es) - len(kept)
}

func (m *model) live(src graphapi.NodeID, etype graphapi.EdgeType) ([]edge, bool) {
	if !m.nodes[src] {
		return nil, false
	}
	var out []edge
	for _, e := range m.edges[src] {
		if etype < 0 || e.etype == etype {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ts != out[j].ts {
			return out[i].ts < out[j].ts
		}
		return out[i].seq < out[j].seq
	})
	return out, true
}

// neighbors is GetNeighborIDs without a property filter.
func (m *model) neighbors(src graphapi.NodeID, etype graphapi.EdgeType) []graphapi.NodeID {
	es, _ := m.live(src, etype)
	var out []graphapi.NodeID
	for _, e := range es {
		if m.nodes[e.dst] && !slices.Contains(out, e.dst) {
			out = append(out, e.dst)
		}
	}
	slices.Sort(out)
	return out
}

// records is GetEdgeRecords: one record per type, ascending.
func (m *model) records(src graphapi.NodeID) [][]edge {
	es, ok := m.live(src, -1)
	if !ok {
		return nil
	}
	byType := map[graphapi.EdgeType][]edge{}
	var types []graphapi.EdgeType
	for _, e := range es {
		if byType[e.etype] == nil {
			types = append(types, e.etype)
		}
		byType[e.etype] = append(byType[e.etype], e)
	}
	slices.Sort(types)
	out := [][]edge{}
	for _, t := range types {
		out = append(out, byType[t])
	}
	return out
}

func recordData(t *testing.T, rec graphapi.EdgeRecord) string {
	t.Helper()
	var s string
	for i := 0; i < rec.Count(); i++ {
		d, err := rec.Data(i)
		if err != nil {
			t.Fatal(err)
		}
		s += fmt.Sprintf("%d@%d%v ", d.Dst, d.Timestamp, d.Props)
	}
	return s
}

func edgesData(es []edge) string {
	var s string
	for _, e := range es {
		s += fmt.Sprintf("%d@%d%v ", e.dst, e.ts, e.props)
	}
	return s
}

// TestMatchesSortOnReadModel runs random op scripts — timestamp ties,
// DeleteEdges, DeleteNode then re-append, typed and wildcard reads —
// against the sort-on-read model and requires every answer to agree,
// including the order of edges that share a timestamp.
func TestMatchesSortOnReadModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New(nil, nil)
		m := &model{nodes: map[graphapi.NodeID]bool{}, edges: map[graphapi.NodeID][]edge{}}
		const nodes, types = 12, 4
		for step := 0; step < 600; step++ {
			src := graphapi.NodeID(rng.Intn(nodes))
			etype := graphapi.EdgeType(rng.Intn(types))
			switch op := rng.Intn(10); {
			case op < 4:
				e := graphapi.Edge{Src: src, Dst: graphapi.NodeID(rng.Intn(nodes)), Type: etype,
					Timestamp: int64(rng.Intn(8)), Props: map[string]string{"k": fmt.Sprint(step)}}
				if err := g.AppendEdge(e); err != nil {
					t.Fatal(err)
				}
				m.appendEdge(e)
			case op == 4:
				dst := graphapi.NodeID(rng.Intn(nodes))
				got, _ := g.DeleteEdges(src, etype, dst)
				if want := m.deleteEdges(src, etype, dst); got != want {
					t.Fatalf("seed %d step %d: DeleteEdges(%d,%d,%d) = %d, want %d", seed, step, src, etype, dst, got, want)
				}
			case op == 5:
				g.DeleteNode(src)
				m.nodes[src] = false
			case op == 6:
				g.AppendNode(src, nil)
				m.nodes[src] = true
			case op == 7:
				if etype == 0 {
					etype = graphapi.WildcardType
				}
				if got, want := g.GetNeighborIDs(src, etype, nil), m.neighbors(src, etype); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: GetNeighborIDs(%d,%d) = %v, want %v", seed, step, src, etype, got, want)
				}
			case op == 8:
				if etype == 0 {
					etype = graphapi.WildcardType
				}
				rec, ok := g.GetEdgeRecord(src, etype)
				want, wantOK := m.live(src, etype)
				wantOK = wantOK && len(want) > 0
				if ok != wantOK || ok && recordData(t, rec) != edgesData(want) {
					t.Fatalf("seed %d step %d: GetEdgeRecord(%d,%d) mismatch", seed, step, src, etype)
				}
			default:
				recs, want := g.GetEdgeRecords(src), m.records(src)
				if len(recs) != len(want) {
					t.Fatalf("seed %d step %d: GetEdgeRecords(%d): %d records, want %d", seed, step, src, len(recs), len(want))
				}
				for i := range want {
					if got := recordData(t, recs[i]); got != edgesData(want[i]) {
						t.Fatalf("seed %d step %d: record %d = %s, want %s", seed, step, i, got, edgesData(want[i]))
					}
				}
			}
		}
	}
}

// TestRecordIsASnapshot checks that a record handed out does not move
// when later writes insert into or delete from the same record.
func TestRecordIsASnapshot(t *testing.T) {
	g := New(nil, []graphapi.Edge{{Src: 1, Dst: 2, Type: 0, Timestamp: 5}, {Src: 1, Dst: 3, Type: 0, Timestamp: 7}})
	rec, _ := g.GetEdgeRecord(1, 0)
	before := recordData(t, rec)
	g.AppendEdge(graphapi.Edge{Src: 1, Dst: 4, Type: 0, Timestamp: 1})
	g.DeleteEdges(1, 0, 3)
	if after := recordData(t, rec); after != before {
		t.Fatalf("record moved under writes: %s, was %s", after, before)
	}
}
