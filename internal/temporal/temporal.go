// Package temporal is ZipG's temporal query engine: windowed analytics,
// live change subscriptions and bounded temporal reachability, all
// served over the existing compressed + LogStore substrate.
//
// Every fragment keeps a record's edges timestamp-sorted with the span in
// its header, so a time window is a TimeOrder range of the store's
// EdgeRecord; the store already publishes every mutation as a
// sequence-numbered change event from inside its commit critical section.
// This package composes those pieces into three query classes:
//
//   - Windowed analytics (AssocTimeRange, AssocCountInWindow):
//     get_edge_range, then the get_edge_data loop over the range.
//   - Live subscriptions (Subscribe/Catchup): per-subscriber bounded
//     rings with drop-oldest backpressure, fed synchronously from the
//     store's commits; Catchup replays the store's event
//     tail so a lagging subscriber re-converges on the live stream.
//   - Temporal reachability (PathInWindow): bounded-hop BFS that only
//     traverses edges whose timestamps fall in the window, each hop
//     one store Expand of the frontier.
package temporal

import (
	"sort"
	"sync"

	"zipg/internal/graphapi"
	"zipg/internal/layout"
	"zipg/internal/store"
)

// Engine serves temporal queries over one store and fans its change
// events out to subscribers. Safe for concurrent use.
type Engine struct {
	st *store.Store

	mu     sync.Mutex
	subs   map[uint64]*Subscription
	nextID uint64
}

// NewEngine builds an engine over st and taps its event stream. One
// engine per store is the intended shape (the zipg.Graph accessor and
// the cluster server each hold one).
func NewEngine(st *store.Store) *Engine {
	e := &Engine{st: st, subs: make(map[uint64]*Subscription)}
	st.Observe(e.deliver)
	return e
}

// Store returns the engine's underlying store.
func (e *Engine) Store() *store.Store { return e.st }

// AssocTimeRange returns the live edges of (src, etype) with timestamps
// in [tLo, tHi), timestamp-sorted, at most limit entries (limit <= 0:
// unbounded): Algorithm 3, the store's ReadEdges. Wildcard bounds follow
// graphapi.TimeBounds. A record that cannot be read yields nil.
func (e *Engine) AssocTimeRange(src layout.NodeID, etype layout.EdgeType, tLo, tHi int64, limit int) []layout.EdgeData {
	mQueryRange.Inc()
	if limit <= 0 {
		limit = graphapi.NoLimit
	}
	out, _ := e.st.ReadEdges(src, etype, graphapi.InWindow(tLo, tHi, limit))
	return out
}

// AssocCountInWindow returns how many live edges of (src, etype) carry
// timestamps in [tLo, tHi): the width of get_edge_range. A fragment the
// window covers or misses answers from its header; no edge data is
// materialized.
func (e *Engine) AssocCountInWindow(src layout.NodeID, etype layout.EdgeType, tLo, tHi int64) int {
	mQueryCount.Inc()
	rec, ok := e.st.GetEdgeRecord(src, etype)
	if !ok {
		return 0
	}
	beg, end := rec.GetEdgeRange(graphapi.TimeBounds(tLo, tHi))
	return max(end-beg, 0)
}

// PathResult is one PathInWindow answer. When Found, Path holds the
// node sequence src..dst (Hops = len(Path)-1, minimal for the window).
type PathResult struct {
	Found bool
	Hops  int
	Path  []layout.NodeID
}

// PathInWindow searches for a path from src to dst of at most maxHops
// edges, every edge's timestamp in [tLo, tHi), traversing only live
// nodes. BFS per hop; each hop is one store Expand, whose frontier fans
// out over the shared worker pool, and the answer is deterministic
// (lowest-ID parent wins ties, so the returned path is the
// lexicographically-least among minimal-hop paths).
func (e *Engine) PathInWindow(src, dst layout.NodeID, tLo, tHi int64, maxHops int) PathResult {
	mQueryPath.Inc()
	tLo, tHi = graphapi.TimeBounds(tLo, tHi)
	if !e.st.HasNode(src) || !e.st.HasNode(dst) {
		return PathResult{}
	}
	if src == dst {
		return PathResult{Found: true, Hops: 0, Path: []layout.NodeID{src}}
	}
	hop := graphapi.InWindow(tLo, tHi, graphapi.NoLimit)
	// A hop the store cannot read leaves the path unfound, as a record
	// that cannot be read reads as no edges elsewhere in this engine.
	res, _ := BFSInWindow(src, dst, maxHops, func(frontier []layout.NodeID) ([][]layout.EdgeData, error) {
		return e.st.Expand(frontier, graphapi.WildcardType, hop, false)
	})
	return res
}

// BFSInWindow is the shared BFS skeleton: expand is handed each sorted
// frontier and returns, per frontier node, its in-window edges. A node
// deleted since an edge to it was written has no records, so it expands
// to nothing: as long as dst is live, a path never runs through one. An
// expand that fails ends the search with its error. The cluster
// aggregator reuses it with a function-shipping expand.
func BFSInWindow(src, dst layout.NodeID, maxHops int, expand func([]layout.NodeID) ([][]layout.EdgeData, error)) (PathResult, error) {
	visited := map[layout.NodeID]bool{src: true}
	parent := make(map[layout.NodeID]layout.NodeID)
	frontier := []layout.NodeID{src}
	for hop := 1; hop <= maxHops && len(frontier) > 0; hop++ {
		perNode, err := expand(frontier)
		if err != nil {
			return PathResult{}, err
		}
		var next []layout.NodeID
		for fi, edges := range perNode {
			for _, e := range edges {
				n := e.Dst
				if visited[n] {
					continue
				}
				visited[n] = true
				parent[n] = frontier[fi]
				if n == dst {
					return PathResult{Found: true, Hops: hop, Path: rebuildPath(parent, src, dst)}, nil
				}
				next = append(next, n)
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		frontier = next
	}
	return PathResult{}, nil
}

// rebuildPath walks the parent links dst -> src and reverses.
func rebuildPath(parent map[layout.NodeID]layout.NodeID, src, dst layout.NodeID) []layout.NodeID {
	path := []layout.NodeID{dst}
	for cur := dst; cur != src; {
		cur = parent[cur]
		path = append(path, cur)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}
