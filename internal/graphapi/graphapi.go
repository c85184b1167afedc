// Package graphapi defines the graph-store interface shared by every
// system in this repository: ZipG itself (single-machine and
// distributed) and the two baselines (the Neo4j-like pointer store and
// the Titan-like KV store). The workload drivers (TAO, LinkBench, Graph
// Search, path queries, traversals) are written once against this
// interface, which is how the paper's apples-to-apples throughput
// comparisons are realized.
//
// The interface is ZipG's API (Table 1); the baselines implement the
// same operations with their own storage architectures, exactly as
// Neo4j/Titan had to serve the same queries in the paper's evaluation.
package graphapi

import "zipg/internal/layout"

// NodeID, EdgeType, Node, Edge and EdgeData are the shared data-model
// types (§2.1).
type (
	NodeID   = layout.NodeID
	EdgeType = layout.EdgeType
	Node     = layout.Node
	Edge     = layout.Edge
	EdgeData = layout.EdgeData
)

// WildcardType selects every EdgeType (§2.2: wildcard arguments).
const WildcardType EdgeType = -1

// WildcardTime makes a time bound unbounded in get_edge_range.
const WildcardTime int64 = -1

// EdgeRecord is a handle to all live edges of one EdgeType incident on a
// node, ordered by timestamp (§2.2). Implementations may be lazy.
type EdgeRecord interface {
	// Count returns the number of live edges.
	Count() int
	// Range returns the TimeOrder interval [beg, end) of edges with
	// timestamps in [tLo, tHi); WildcardTime bounds are open.
	Range(tLo, tHi int64) (int, int)
	// Data returns the (destination, timestamp, properties) of the edge
	// at the given TimeOrder.
	Data(timeOrder int) (EdgeData, error)
	// Destinations returns the destination IDs in TimeOrder.
	Destinations() []NodeID
}

// RangeDataRecord is the optional batched extension of EdgeRecord: the
// get_edge_data loop of Algorithms 1–3 as one call. A record whose Data
// is a round trip implements it to fetch a range in one; DataRange
// falls back to the Data loop for every other record.
type RangeDataRecord interface {
	// DataRange returns Data(i) for every TimeOrder i in [beg, end), in
	// order; an empty interval is nil. It fails if Data(i) would.
	DataRange(beg, end int) ([]EdgeData, error)
}

// DataRange returns rec's edge data at TimeOrders [beg, end) through
// RangeDataRecord when rec implements it, and by the equivalent Data
// loop otherwise.
func DataRange(rec EdgeRecord, beg, end int) ([]EdgeData, error) {
	if rr, ok := rec.(RangeDataRecord); ok {
		return rr.DataRange(beg, end)
	}
	var out []EdgeData
	for i := beg; i < end; i++ {
		e, err := rec.Data(i)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// Store is the Table 1 API.
type Store interface {
	// GetNodeProperty returns property values for a node; nil/empty
	// propertyIDs is the wildcard (all properties in schema order).
	GetNodeProperty(id NodeID, propertyIDs []string) ([]string, bool)
	// GetNodeIDs returns nodes whose properties match every pair.
	GetNodeIDs(props map[string]string) []NodeID
	// GetNeighborIDs returns neighbors of id along etype (WildcardType
	// for all) whose properties match props (nil for no filter).
	GetNeighborIDs(id NodeID, etype EdgeType, props map[string]string) []NodeID
	// GetEdgeRecord returns the edge record for (id, etype).
	GetEdgeRecord(id NodeID, etype EdgeType) (EdgeRecord, bool)
	// GetEdgeRecords returns the records of all edge types on id.
	GetEdgeRecords(id NodeID) []EdgeRecord

	// AppendNode inserts or replaces a node.
	AppendNode(id NodeID, props map[string]string) error
	// AppendEdge appends an edge.
	AppendEdge(e Edge) error
	// DeleteNode lazily deletes a node.
	DeleteNode(id NodeID) error
	// DeleteEdges deletes all (src, etype, dst) edges, returning how many.
	DeleteEdges(src NodeID, etype EdgeType, dst NodeID) (int, error)
}

// AssocRangeReq names one assoc_range read of a batch: up to Limit edges
// of (ID, Type) in time order starting at TimeOrder Idx.
type AssocRangeReq struct {
	ID    NodeID
	Type  EdgeType
	Idx   int
	Limit int
}

// TimeBounds normalizes wildcard time bounds to a concrete interval.
func TimeBounds(tLo, tHi int64) (int64, int64) {
	if tLo == WildcardTime {
		tLo = 0
	}
	if tHi == WildcardTime {
		tHi = int64(^uint64(0) >> 1) // MaxInt64
	}
	return tLo, tHi
}
