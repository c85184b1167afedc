// Package workloads implements the paper's evaluation workloads — the
// Facebook TAO and LinkBench query sets (Table 2, Algorithms 1–3) and
// the Graph Search queries (Table 3) — on top of the shared store
// interface, exactly as §4.2 implements them on ZipG's API. Because the
// drivers are interface-generic, the same workload runs unchanged over
// ZipG, the Neo4j-like baseline and the Titan-like baseline.
package workloads

import (
	"fmt"

	"zipg/internal/graphapi"
)

// TAO executes TAO/LinkBench operations over any graph store. Nodes and
// edges correspond to TAO's objects and associations (footnote 6).
type TAO struct {
	S graphapi.Store
}

// AssocRange is Algorithm 1: at most limit edges with source id and type
// atype, ordered by timestamp, starting at TimeOrder idx. Here and in
// Algorithms 2 and 3 the record is read by one graphapi.ReadEdges: one
// round trip through the cluster, the get_edge_data loop on stores
// that do not ship the query.
func (t TAO) AssocRange(id graphapi.NodeID, atype graphapi.EdgeType, idx, limit int) ([]graphapi.EdgeData, error) {
	results, err := graphapi.ReadEdges(t.S, id, atype, graphapi.ByOrder(idx, limit))
	if err != nil {
		return nil, fmt.Errorf("assoc_range(%d,%d): %w", id, atype, err)
	}
	return results, nil
}

// AssocGet is Algorithm 2: all edges with source id1, type atype,
// timestamp in [lo, hi), and destination in id2set. The set is applied
// here, not shipped: it is a few IDs that almost always empty the
// window's answer.
func (t TAO) AssocGet(id1 graphapi.NodeID, atype graphapi.EdgeType, id2set map[graphapi.NodeID]bool, lo, hi int64) ([]graphapi.EdgeData, error) {
	edges, err := graphapi.ReadEdges(t.S, id1, atype, graphapi.InWindow(lo, hi, graphapi.NoLimit))
	if err != nil {
		return nil, fmt.Errorf("assoc_get(%d,%d): %w", id1, atype, err)
	}
	var results []graphapi.EdgeData
	for _, e := range edges {
		if id2set[e.Dst] {
			results = append(results, e)
		}
	}
	return results, nil
}

// AssocCount returns the number of edges with source id and type atype —
// in ZipG a pure metadata read (EdgeCount, §4.2).
func (t TAO) AssocCount(id graphapi.NodeID, atype graphapi.EdgeType) int {
	rec, ok := t.S.GetEdgeRecord(id, atype)
	if !ok {
		return 0
	}
	return rec.Count()
}

// AssocTimeRange is Algorithm 3: at most limit edges with source id,
// type atype and timestamps in [lo, hi).
func (t TAO) AssocTimeRange(id graphapi.NodeID, atype graphapi.EdgeType, lo, hi int64, limit int) ([]graphapi.EdgeData, error) {
	results, err := graphapi.ReadEdges(t.S, id, atype, graphapi.InWindow(lo, hi, limit))
	if err != nil {
		return nil, fmt.Errorf("assoc_time_range(%d,%d): %w", id, atype, err)
	}
	return results, nil
}

// ObjGet returns all properties of an object (get_node_property(id, *)).
func (t TAO) ObjGet(id graphapi.NodeID) ([]string, bool) {
	return t.S.GetNodeProperty(id, nil)
}

// ObjAdd creates an object.
func (t TAO) ObjAdd(id graphapi.NodeID, props map[string]string) error {
	return t.S.AppendNode(id, props)
}

// ObjUpdate replaces an object's properties (delete followed by append,
// Table 2).
func (t TAO) ObjUpdate(id graphapi.NodeID, props map[string]string) error {
	return t.S.AppendNode(id, props)
}

// ObjDel deletes an object.
func (t TAO) ObjDel(id graphapi.NodeID) error {
	return t.S.DeleteNode(id)
}

// AssocAdd creates an association.
func (t TAO) AssocAdd(e graphapi.Edge) error {
	return t.S.AppendEdge(e)
}

// AssocDel deletes an association.
func (t TAO) AssocDel(src graphapi.NodeID, atype graphapi.EdgeType, dst graphapi.NodeID) error {
	_, err := t.S.DeleteEdges(src, atype, dst)
	return err
}

// AssocUpdate replaces an association (delete followed by append).
func (t TAO) AssocUpdate(e graphapi.Edge) error {
	if _, err := t.S.DeleteEdges(e.Src, e.Type, e.Dst); err != nil {
		return err
	}
	return t.S.AppendEdge(e)
}
