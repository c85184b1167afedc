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

import (
	"fmt"

	"zipg/internal/layout"
)

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

// EdgeQuery selects what Algorithms 1–3 read of one edge record: the
// TimeOrders [Lo, Hi) clamped to [0, Count), or with ByTime the edges
// with timestamps in [Lo, Hi) as Range takes them, wildcards included;
// either way at most Limit edges from the interval's start.
type EdgeQuery struct {
	ByTime bool
	Lo, Hi int64
	Limit  int
}

// NoLimit leaves an EdgeQuery uncapped.
const NoLimit = int(^uint(0) >> 1) // MaxInt

// ByOrder is Algorithm 1's query: at most limit edges from TimeOrder idx.
func ByOrder(idx, limit int) EdgeQuery {
	return EdgeQuery{Lo: int64(idx), Hi: int64(idx) + int64(limit), Limit: limit}
}

// InWindow is the query of Algorithms 2 and 3: the edges with
// timestamps in [lo, hi), at most limit of them.
func InWindow(lo, hi int64, limit int) EdgeQuery {
	return EdgeQuery{ByTime: true, Lo: lo, Hi: hi, Limit: limit}
}

// Interval is the TimeOrders [beg, end) q reads (none if end <= beg) of
// a record of count edges whose Range, wildcards resolved, is timeRange.
func (q EdgeQuery) Interval(count int, timeRange func(tLo, tHi int64) (int, int)) (beg, end int) {
	if q.ByTime {
		beg, end = timeRange(TimeBounds(q.Lo, q.Hi))
	} else {
		beg, end = int(max(q.Lo, 0)), int(min(q.Hi, int64(count)))
	}
	if q.Limit < end-beg {
		end = beg + q.Limit
	}
	return beg, end
}

// EdgeReader is the optional query-level extension of Store: a store
// answers an EdgeQuery where the record lives, in one call.
type EdgeReader interface {
	// ReadEdges returns the edges q selects of (id, etype)'s record in
	// TimeOrder; an absent record or an empty interval is nil.
	ReadEdges(id NodeID, etype EdgeType, q EdgeQuery) ([]EdgeData, error)
}

// ReadEdges answers q through EdgeReader when s implements it, else by
// GetEdgeRecord, Range and the Data loop over the interval.
func ReadEdges(s Store, id NodeID, etype EdgeType, q EdgeQuery) ([]EdgeData, error) {
	if r, ok := s.(EdgeReader); ok {
		return r.ReadEdges(id, etype, q)
	}
	rec, ok := s.GetEdgeRecord(id, etype)
	if !ok {
		return nil, nil
	}
	return readRecord(rec, q, true)
}

// Expander is the optional hop-level extension of Store: a store answers
// one hop of a traversal, a whole frontier's reads, in one call.
type Expander interface {
	// Expand returns, in frontier order, the edges q selects of each
	// node's record of etype — of every record, in ascending type order,
	// when etype is WildcardType — each record's in TimeOrder. Without
	// withData only Dst is read. Destination liveness is the caller's.
	Expand(frontier []NodeID, etype EdgeType, q EdgeQuery, withData bool) ([][]EdgeData, error)
}

// Expand answers one hop through Expander when s implements it, else
// node by node: GetEdgeRecords or GetEdgeRecord, and each record read
// over q's interval by the Data loop, or without withData from
// Destinations.
func Expand(s Store, frontier []NodeID, etype EdgeType, q EdgeQuery, withData bool) ([][]EdgeData, error) {
	if x, ok := s.(Expander); ok {
		return x.Expand(frontier, etype, q, withData)
	}
	out := make([][]EdgeData, len(frontier))
	for i, id := range frontier {
		var recs []EdgeRecord
		if etype == WildcardType {
			recs = s.GetEdgeRecords(id)
		} else if rec, ok := s.GetEdgeRecord(id, etype); ok {
			recs = []EdgeRecord{rec}
		}
		for _, rec := range recs {
			edges, err := readRecord(rec, q, withData)
			if err != nil {
				return nil, err
			}
			out[i] = append(out[i], edges...)
		}
	}
	return out, nil
}

// readRecord is q's interval of rec: the Data loop, or without withData
// that interval of Destinations, Dst alone.
func readRecord(rec EdgeRecord, q EdgeQuery, withData bool) ([]EdgeData, error) {
	beg, end := q.Interval(rec.Count(), rec.Range)
	if beg >= end {
		return nil, nil
	}
	out := make([]EdgeData, end-beg)
	if !withData {
		dsts := rec.Destinations()
		if len(dsts) < end {
			return nil, fmt.Errorf("graphapi: %d destinations, want %d", len(dsts), end)
		}
		for i := range out {
			out[i].Dst = dsts[beg+i]
		}
		return out, nil
	}
	for i := range out {
		var err error
		if out[i], err = rec.Data(beg + i); err != nil {
			return nil, err
		}
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
