package temporal_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"zipg"
	"zipg/internal/graphapi"
	"zipg/internal/layout"
)

// The differential suite: every temporal answer must match a naive
// reference that replays the full mutation history against plain
// slices. The graph under test is driven through heavy fragmentation
// (tiny LogStore threshold), node and edge deletes, and — in the racing
// variant — an online compaction concurrent with the queries, across
// sampling rates α ∈ {4, 8, 32}.

// naiveModel replays mutations against uncompressed state.
type naiveModel struct {
	nodes map[int64]bool
	edges []layout.Edge // live edges, append order
}

func newNaive(nodes []layout.Node, edges []layout.Edge) *naiveModel {
	m := &naiveModel{nodes: make(map[int64]bool)}
	for _, n := range nodes {
		m.nodes[n.ID] = true
	}
	m.edges = append(m.edges, edges...)
	return m
}

func (m *naiveModel) appendNode(id int64) { m.nodes[id] = true }

// appendEdge mirrors the store's endpoint auto-creation: appending an
// edge revives deleted endpoints (re-exposing their non-individually-
// deleted edges, the documented DeleteNode revival semantics).
func (m *naiveModel) appendEdge(e layout.Edge) {
	m.nodes[e.Src] = true
	m.nodes[e.Dst] = true
	m.edges = append(m.edges, e)
}
func (m *naiveModel) deleteNode(id int64) { delete(m.nodes, id) }
func (m *naiveModel) deleteEdges(src, etype, dst int64) {
	kept := m.edges[:0]
	for _, e := range m.edges {
		if e.Src == src && e.Type == etype && e.Dst == dst {
			continue
		}
		kept = append(kept, e)
	}
	m.edges = kept
}

// window returns the live in-window edges of (src, etype), canonically
// ordered.
func (m *naiveModel) window(src, etype, tLo, tHi int64) []layout.EdgeData {
	if !m.nodes[src] {
		return nil
	}
	var out []layout.EdgeData
	for _, e := range m.edges {
		if e.Src == src && e.Type == etype && e.Timestamp >= tLo && e.Timestamp < tHi {
			out = append(out, layout.EdgeData{Dst: e.Dst, Timestamp: e.Timestamp, Props: e.Props})
		}
	}
	canonicalize(out)
	return out
}

// neighbors returns the live in-window neighbor set of src (any type).
func (m *naiveModel) neighbors(src, tLo, tHi int64) []int64 {
	if !m.nodes[src] {
		return nil
	}
	seen := map[int64]bool{}
	var out []int64
	for _, e := range m.edges {
		if e.Src == src && e.Timestamp >= tLo && e.Timestamp < tHi && m.nodes[e.Dst] && !seen[e.Dst] {
			seen[e.Dst] = true
			out = append(out, e.Dst)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// shortestHops runs plain BFS over the naive in-window adjacency;
// returns -1 when dst is unreachable within maxHops.
func (m *naiveModel) shortestHops(src, dst, tLo, tHi int64, maxHops int) int {
	if !m.nodes[src] || !m.nodes[dst] {
		return -1
	}
	if src == dst {
		return 0
	}
	visited := map[int64]bool{src: true}
	frontier := []int64{src}
	for hop := 1; hop <= maxHops && len(frontier) > 0; hop++ {
		var next []int64
		for _, f := range frontier {
			for _, n := range m.neighbors(f, tLo, tHi) {
				if visited[n] {
					continue
				}
				if n == dst {
					return hop
				}
				visited[n] = true
				next = append(next, n)
			}
		}
		frontier = next
	}
	return -1
}

// canonicalize sorts edge data by (timestamp, dst, props fingerprint) —
// the store's tie order among equal timestamps depends on fragment
// placement, which the naive model does not reproduce.
func canonicalize(es []layout.EdgeData) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Timestamp != es[j].Timestamp {
			return es[i].Timestamp < es[j].Timestamp
		}
		if es[i].Dst != es[j].Dst {
			return es[i].Dst < es[j].Dst
		}
		return propsFP(es[i].Props) < propsFP(es[j].Props)
	})
}

func propsFP(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		if m[k] != "" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += k + "=" + m[k] + ";"
	}
	return s
}

func edgesFP(es []layout.EdgeData) string {
	s := ""
	for _, e := range es {
		s += fmt.Sprintf("(%d,%d,%s)", e.Dst, e.Timestamp, propsFP(e.Props))
	}
	return s
}

// buildDifferential compresses a seed graph and drives both it and the
// naive model through an identical mutation script.
func buildDifferential(t testing.TB, alpha int, seed int64) (*zipg.Graph, *naiveModel) {
	t.Helper()
	const nNodes = 40
	rng := rand.New(rand.NewSource(seed))
	nodes := make([]layout.Node, nNodes)
	for i := range nodes {
		nodes[i] = layout.Node{ID: int64(i), Props: map[string]string{"name": fmt.Sprintf("user%d", i)}}
	}
	var edges []layout.Edge
	for i := 0; i < 150; i++ {
		edges = append(edges, layout.Edge{
			Src: int64(rng.Intn(nNodes)), Dst: int64(rng.Intn(nNodes)),
			Type: int64(rng.Intn(3)), Timestamp: int64(rng.Intn(10000)),
			Props: map[string]string{"weight": fmt.Sprint(rng.Intn(10))},
		})
	}
	g, err := zipg.Compress(zipg.GraphData{Nodes: nodes, Edges: edges},
		zipg.Options{NumShards: 3, SamplingRate: alpha, LogStoreThreshold: 2500})
	if err != nil {
		t.Fatal(err)
	}
	m := newNaive(nodes, edges)

	for op := 0; op < 400; op++ {
		switch r := rng.Intn(100); {
		case r < 60: // append edge (tiny threshold: forces many rollovers)
			e := layout.Edge{
				Src: int64(rng.Intn(nNodes)), Dst: int64(rng.Intn(nNodes)),
				Type: int64(rng.Intn(3)), Timestamp: int64(rng.Intn(10000)),
				Props: map[string]string{"weight": fmt.Sprint(rng.Intn(10))},
			}
			if err := g.AppendEdge(e); err != nil {
				t.Fatal(err)
			}
			m.appendEdge(e)
		case r < 75: // delete one live triple
			if len(m.edges) == 0 {
				continue
			}
			e := m.edges[rng.Intn(len(m.edges))]
			if _, err := g.DeleteEdges(e.Src, e.Type, e.Dst); err != nil {
				t.Fatal(err)
			}
			m.deleteEdges(e.Src, e.Type, e.Dst)
		case r < 90: // rewrite a node's props (revives if deleted)
			id := int64(rng.Intn(nNodes))
			if err := g.AppendNode(id, map[string]string{"name": fmt.Sprintf("rw%d", op)}); err != nil {
				t.Fatal(err)
			}
			m.appendNode(id)
		default: // delete a node (a later append may revive it)
			id := int64(rng.Intn(nNodes))
			if err := g.DeleteNode(id); err != nil {
				t.Fatal(err)
			}
			m.deleteNode(id)
		}
	}
	return g, m
}

// testWindows is the window sample every comparison sweeps: full,
// halves, narrow bands, an empty band, and wildcard bounds.
var testWindows = [][2]int64{
	{0, 10000}, {0, 5000}, {5000, 10000}, {2500, 2600}, {9000, 9001},
	{4000, 4000}, {zipg.WildcardTime, zipg.WildcardTime}, {8000, zipg.WildcardTime},
}

func checkDifferential(t *testing.T, g *zipg.Graph, m *naiveModel, tag string) {
	t.Helper()
	eng := g.Temporal()
	for src := int64(0); src < 40; src++ {
		for etype := int64(0); etype < 3; etype++ {
			for _, w := range testWindows {
				got := eng.AssocTimeRange(src, etype, w[0], w[1], 0)
				canonicalize(got)
				lo, hi := graphapi.TimeBounds(w[0], w[1])
				want := m.window(src, etype, lo, hi)
				if edgesFP(got) != edgesFP(want) {
					t.Fatalf("%s: AssocTimeRange(%d,%d,[%d,%d)) =\n  %s\nwant\n  %s",
						tag, src, etype, w[0], w[1], edgesFP(got), edgesFP(want))
				}
				if n := eng.AssocCountInWindow(src, etype, w[0], w[1]); n != len(want) {
					t.Fatalf("%s: AssocCountInWindow(%d,%d,[%d,%d)) = %d, want %d",
						tag, src, etype, w[0], w[1], n, len(want))
				}
				// limit bounds the read: one edge is the window's earliest
				// (ties go by fragment, so any of the earliest), a limit past
				// the window's end is the window.
				if first := eng.AssocTimeRange(src, etype, w[0], w[1], 1); len(first) != min(1, len(want)) {
					t.Fatalf("%s: AssocTimeRange(%d,%d,[%d,%d), limit 1) returned %d edges of %d",
						tag, src, etype, w[0], w[1], len(first), len(want))
				} else if len(first) == 1 {
					earliest := false
					for _, e := range want {
						earliest = earliest || e.Timestamp == want[0].Timestamp && edgesFP(first) == edgesFP([]layout.EdgeData{e})
					}
					if !earliest {
						t.Fatalf("%s: AssocTimeRange(%d,%d,[%d,%d), limit 1) = %s, not an earliest edge of %s",
							tag, src, etype, w[0], w[1], edgesFP(first), edgesFP(want))
					}
				}
				all := eng.AssocTimeRange(src, etype, w[0], w[1], len(want)+3)
				canonicalize(all)
				if edgesFP(all) != edgesFP(want) {
					t.Fatalf("%s: AssocTimeRange(%d,%d,[%d,%d), limit %d) =\n  %s\nwant\n  %s",
						tag, src, etype, w[0], w[1], len(want)+3, edgesFP(all), edgesFP(want))
				}
			}
		}
	}
}

func TestTemporalDifferential(t *testing.T) {
	for _, alpha := range []int{4, 8, 32} {
		t.Run(fmt.Sprintf("alpha=%d", alpha), func(t *testing.T) {
			g, m := buildDifferential(t, alpha, int64(alpha)*101)
			defer g.Close()
			checkDifferential(t, g, m, "fragmented")

			// Race an online compaction against the same query sweep,
			// then re-verify on the compacted store.
			done := make(chan error, 1)
			go func() { done <- g.Compact() }()
			checkDifferential(t, g, m, "racing-compaction")
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			checkDifferential(t, g, m, "compacted")
		})
	}
	// Time-ordered ingest: every frozen generation covers its own band of
	// timestamps and every source has a piece in each, so a window over
	// the last 1/32 of the range starts behind most pieces of its record
	// and must still be answered as the naive model answers it. (What the
	// read costs is TestTimeWindowCostsItsWindow's, in internal/store.)
	t.Run("time-ordered narrow window", func(t *testing.T) {
		const nNodes, perSrc = 32, 48
		nodes := make([]layout.Node, nNodes)
		for i := range nodes {
			nodes[i] = layout.Node{ID: int64(i)}
		}
		g, err := zipg.Compress(zipg.GraphData{Nodes: nodes},
			zipg.Options{NumShards: 2, SamplingRate: 32, LogStoreThreshold: 4096})
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		m := newNaive(nodes, nil)
		const tsBase, tsStep = 1_500_000_000, 1000
		for i := 0; i < nNodes*perSrc; i++ {
			e := layout.Edge{Src: int64(i % nNodes), Dst: int64((i*7 + 13) % nNodes), Type: int64(i % 2), Timestamp: int64(tsBase + i*tsStep)}
			if err := g.AppendEdge(e); err != nil {
				t.Fatal(err)
			}
			m.appendEdge(e)
		}
		tsEnd := int64(tsBase + nNodes*perSrc*tsStep)
		lo := tsEnd - (tsEnd-tsBase)/32

		eng := g.Temporal()
		for src := int64(0); src < nNodes; src++ {
			for etype := int64(0); etype < 2; etype++ {
				got := eng.AssocTimeRange(src, etype, lo, tsEnd, 0)
				canonicalize(got)
				if want := m.window(src, etype, lo, tsEnd); edgesFP(got) != edgesFP(want) {
					t.Fatalf("AssocTimeRange(%d,%d,[%d,%d)) =\n  %s\nwant\n  %s", src, etype, lo, tsEnd, edgesFP(got), edgesFP(want))
				}
			}
		}
	})
}

// TestPathInWindowDifferential: Found and minimal hop count must match
// the naive BFS, and any returned path must be walkable through live
// in-window edges.
func TestPathInWindowDifferential(t *testing.T) {
	g, m := buildDifferential(t, 8, 11)
	defer g.Close()
	eng := g.Temporal()
	windows := [][2]int64{{0, 10000}, {0, 3000}, {6000, 10000}, {4000, 4500}}
	for _, w := range windows {
		for src := int64(0); src < 40; src += 3 {
			for dst := int64(1); dst < 40; dst += 7 {
				res := eng.PathInWindow(src, dst, w[0], w[1], 4)
				wantHops := m.shortestHops(src, dst, w[0], w[1], 4)
				if res.Found != (wantHops >= 0) {
					t.Fatalf("PathInWindow(%d,%d,[%d,%d)): found=%v, naive hops=%d",
						src, dst, w[0], w[1], res.Found, wantHops)
				}
				if !res.Found {
					continue
				}
				if res.Hops != wantHops {
					t.Fatalf("PathInWindow(%d,%d,[%d,%d)): hops=%d, naive=%d",
						src, dst, w[0], w[1], res.Hops, wantHops)
				}
				if len(res.Path) != res.Hops+1 || res.Path[0] != src || res.Path[len(res.Path)-1] != dst {
					t.Fatalf("PathInWindow(%d,%d): malformed path %v", src, dst, res.Path)
				}
				for i := 0; i+1 < len(res.Path); i++ {
					if !contains(m.neighbors(res.Path[i], w[0], w[1]), res.Path[i+1]) {
						t.Fatalf("PathInWindow(%d,%d): hop %d->%d not a live in-window edge",
							src, dst, res.Path[i], res.Path[i+1])
					}
				}
			}
		}
	}
}

func contains(ids []int64, id int64) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}
