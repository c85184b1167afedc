// Package refgraph is a deliberately naive in-memory property graph that
// implements the shared store interface with obvious O(n) algorithms. It
// exists as the ground truth for conformance tests: ZipG and both
// baselines must agree with it on every query, which is what licenses
// the throughput comparisons between them.
package refgraph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"zipg/internal/graphapi"
)

type edge struct {
	etype graphapi.EdgeType
	dst   graphapi.NodeID
	ts    int64
	seq   int // insertion order, for stable ts ties
	props map[string]string
}

// Graph is the reference implementation. Each (src, etype) record's
// edges are kept in (ts, seq) order as they are inserted, so a read
// copies a record and sorts nothing.
type Graph struct {
	mu    sync.RWMutex
	nodes map[graphapi.NodeID]map[string]string
	edges map[graphapi.NodeID]map[graphapi.EdgeType][]edge
	seq   int
}

// Compile-time check.
var _ graphapi.Store = (*Graph)(nil)

// New builds the reference graph.
func New(nodes []graphapi.Node, edges []graphapi.Edge) *Graph {
	g := &Graph{
		nodes: make(map[graphapi.NodeID]map[string]string),
		edges: make(map[graphapi.NodeID]map[graphapi.EdgeType][]edge),
	}
	for _, n := range nodes {
		g.AppendNode(n.ID, n.Props)
	}
	for _, e := range edges {
		g.AppendEdge(e)
	}
	return g
}

// AppendNode implements graphapi.Store.
func (g *Graph) AppendNode(id graphapi.NodeID, props map[string]string) error {
	if id < 0 {
		return fmt.Errorf("refgraph: negative node ID")
	}
	cp := make(map[string]string, len(props))
	for k, v := range props {
		if v != "" { // empty values are equivalent to absent properties
			cp[k] = v
		}
	}
	g.mu.Lock()
	g.nodes[id] = cp
	g.mu.Unlock()
	return nil
}

// AppendEdge implements graphapi.Store.
func (g *Graph) AppendEdge(e graphapi.Edge) error {
	if e.Src < 0 || e.Dst < 0 || e.Type < 0 || e.Timestamp < 0 {
		return fmt.Errorf("refgraph: negative field")
	}
	cp := make(map[string]string, len(e.Props))
	for k, v := range e.Props {
		if v != "" {
			cp[k] = v
		}
	}
	if len(cp) == 0 {
		cp = nil
	}
	g.mu.Lock()
	// Endpoints are auto-created with empty property lists (the shared
	// semantics: Neo4j and Titan auto-create, and ZipG's store follows).
	for _, id := range []graphapi.NodeID{e.Src, e.Dst} {
		if _, ok := g.nodes[id]; !ok {
			g.nodes[id] = map[string]string{}
		}
	}
	g.seq++
	recs := g.edges[e.Src]
	if recs == nil {
		recs = make(map[graphapi.EdgeType][]edge)
		g.edges[e.Src] = recs
	}
	// Every edge already held has a smaller seq, so the new one goes
	// after all edges with its timestamp or an earlier one.
	es := recs[e.Type]
	i := sort.Search(len(es), func(i int) bool { return es[i].ts > e.Timestamp })
	es = slices.Insert(es, i, edge{e.Type, e.Dst, e.Timestamp, g.seq, cp})
	recs[e.Type] = es
	g.mu.Unlock()
	return nil
}

// DeleteNode implements graphapi.Store.
func (g *Graph) DeleteNode(id graphapi.NodeID) error {
	g.mu.Lock()
	delete(g.nodes, id)
	g.mu.Unlock()
	return nil
}

// DeleteEdges implements graphapi.Store.
func (g *Graph) DeleteEdges(src graphapi.NodeID, etype graphapi.EdgeType, dst graphapi.NodeID) (int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	es := g.edges[src][etype]
	kept := slices.DeleteFunc(es, func(e edge) bool { return e.dst == dst })
	if len(kept) < len(es) {
		g.edges[src][etype] = kept
	}
	return len(es) - len(kept), nil
}

// GetNodeProperty implements graphapi.Store.
func (g *Graph) GetNodeProperty(id graphapi.NodeID, propertyIDs []string) ([]string, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	props, ok := g.nodes[id]
	if !ok {
		return nil, false
	}
	if len(propertyIDs) == 0 {
		keys := make([]string, 0, len(props))
		for k := range props {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		propertyIDs = keys
	}
	out := make([]string, len(propertyIDs))
	for i, pid := range propertyIDs {
		out[i] = props[pid]
	}
	return out, true
}

// GetNodeIDs implements graphapi.Store.
func (g *Graph) GetNodeIDs(props map[string]string) []graphapi.NodeID {
	if len(props) == 0 {
		return nil
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []graphapi.NodeID
	for id, np := range g.nodes {
		match := true
		for k, v := range props {
			if np[k] != v {
				match = false
				break
			}
		}
		if match {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// liveEdges returns a copy of src's edges of etype (<0 = all) sorted by
// (ts, seq), only if src is live.
func (g *Graph) liveEdges(src graphapi.NodeID, etype graphapi.EdgeType) ([]edge, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if _, ok := g.nodes[src]; !ok {
		return nil, false
	}
	if etype >= 0 {
		return slices.Clone(g.edges[src][etype]), true
	}
	var out []edge
	for _, t := range g.types(src) {
		out = append(out, g.edges[src][t]...)
	}
	slices.SortFunc(out, func(a, b edge) int {
		if a.ts != b.ts {
			return cmp.Compare(a.ts, b.ts)
		}
		return cmp.Compare(a.seq, b.seq)
	})
	return out, true
}

// types returns src's edge types with at least one edge, ascending.
// The caller holds g.mu.
func (g *Graph) types(src graphapi.NodeID) []graphapi.EdgeType {
	var out []graphapi.EdgeType
	for t, es := range g.edges[src] {
		if len(es) > 0 {
			out = append(out, t)
		}
	}
	slices.Sort(out)
	return out
}

// GetNeighborIDs implements graphapi.Store.
func (g *Graph) GetNeighborIDs(id graphapi.NodeID, etype graphapi.EdgeType, props map[string]string) []graphapi.NodeID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if _, ok := g.nodes[id]; !ok {
		return nil
	}
	types := []graphapi.EdgeType{etype}
	if etype < 0 {
		types = g.types(id)
	}
	seen := make(map[graphapi.NodeID]bool)
	var out []graphapi.NodeID
	for _, t := range types {
		for _, e := range g.edges[id][t] {
			if seen[e.dst] {
				continue
			}
			seen[e.dst] = true
			dp, ok := g.nodes[e.dst]
			if !ok {
				continue
			}
			match := true
			for k, v := range props {
				if dp[k] != v {
					match = false
					break
				}
			}
			if match {
				out = append(out, e.dst)
			}
		}
	}
	slices.Sort(out)
	return out
}

type record struct{ edges []edge }

func (r *record) Count() int { return len(r.edges) }

func (r *record) Range(tLo, tHi int64) (int, int) {
	tLo, tHi = graphapi.TimeBounds(tLo, tHi)
	beg := sort.Search(len(r.edges), func(i int) bool { return r.edges[i].ts >= tLo })
	end := sort.Search(len(r.edges), func(i int) bool { return r.edges[i].ts >= tHi })
	return beg, end
}

func (r *record) Data(i int) (graphapi.EdgeData, error) {
	if i < 0 || i >= len(r.edges) {
		return graphapi.EdgeData{}, fmt.Errorf("refgraph: time order %d out of range", i)
	}
	e := r.edges[i]
	return graphapi.EdgeData{Dst: e.dst, Timestamp: e.ts, Props: e.props}, nil
}

func (r *record) Destinations() []graphapi.NodeID {
	out := make([]graphapi.NodeID, len(r.edges))
	for i, e := range r.edges {
		out[i] = e.dst
	}
	return out
}

// GetEdgeRecord implements graphapi.Store.
func (g *Graph) GetEdgeRecord(id graphapi.NodeID, etype graphapi.EdgeType) (graphapi.EdgeRecord, bool) {
	es, ok := g.liveEdges(id, etype)
	if !ok || len(es) == 0 {
		return nil, false
	}
	return &record{es}, true
}

// GetEdgeRecords implements graphapi.Store.
func (g *Graph) GetEdgeRecords(id graphapi.NodeID) []graphapi.EdgeRecord {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if _, ok := g.nodes[id]; !ok {
		return nil
	}
	types := g.types(id)
	out := make([]graphapi.EdgeRecord, 0, len(types))
	for _, t := range types {
		out = append(out, &record{slices.Clone(g.edges[id][t])})
	}
	return out
}
