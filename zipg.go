// Package zipg is a memory-efficient graph store for interactive
// queries — a Go implementation of "ZipG: A Memory-efficient Graph Store
// for Interactive Queries" (SIGMOD 2017).
//
// ZipG stores a property graph (nodes, edges, and their property lists)
// in a compressed representation built on Succinct-style compressed
// suffix arrays, and executes a functionally rich query API (Table 1 of
// the paper) directly on that representation: random access to node and
// edge properties, substring-indexed node search, per-type edge records
// with timestamp binary search, and a log-structured write path with
// fanned updates.
//
// Quick start:
//
//	g, err := zipg.Compress(zipg.GraphData{Nodes: nodes, Edges: edges}, zipg.Options{})
//	age, _ := g.GetNodeProperty(alice, []string{"age"})
//	friends := g.GetNeighborIDs(alice, friendType, map[string]string{"location": "Ithaca"})
//
// See the examples/ directory for runnable programs; the distributed
// deployment lives in internal/cluster and is served by cmd/zipg-server.
package zipg

import (
	"fmt"
	"io"
	"sync"

	"zipg/internal/graphapi"
	"zipg/internal/layout"
	"zipg/internal/memsim"
	"zipg/internal/store"
	"zipg/internal/temporal"
)

// Data-model types (§2.1 of the paper).
type (
	// NodeID identifies a node.
	NodeID = graphapi.NodeID
	// EdgeType identifies an edge's kind.
	EdgeType = graphapi.EdgeType
	// Node is a node with its property list.
	Node = graphapi.Node
	// Edge is a directed, typed, optionally timestamped edge with its
	// property list.
	Edge = graphapi.Edge
	// EdgeData is the (destination, timestamp, properties) triplet stored
	// per edge.
	EdgeData = graphapi.EdgeData
	// EdgeRecord references all edges of one EdgeType incident on a node.
	EdgeRecord = graphapi.EdgeRecord
	// EdgeQuery selects an interval of one EdgeRecord, by TimeOrder or
	// by timestamp, capped at a number of edges.
	EdgeQuery = graphapi.EdgeQuery
)

// WildcardType selects every EdgeType in queries accepting a type.
const WildcardType = graphapi.WildcardType

// WildcardTime leaves a time bound open in GetEdgeRange.
const WildcardTime = graphapi.WildcardTime

// GraphData is the input to Compress: the full property graph.
type GraphData struct {
	Nodes []Node
	Edges []Edge
}

// Options configures Compress: the store's shard count, Succinct's α
// (§3.1), the LogStore threshold and fanned updates (§3.5), the
// background compaction worker and the simulated medium. Each setting
// is declared, with its default, on store.Config; cluster.ServerConfig
// holds the same settings for one cluster server.
type Options = store.Config

// Graph is a single-machine ZipG store. It is safe for concurrent use;
// reads on compressed data are lock-free.
type Graph struct {
	s *store.Store

	// temporal engine, built lazily by Temporal() (see temporal.go).
	tempOnce sync.Once
	temp     *temporal.Engine
}

// Compress builds the memory-efficient representation of a graph
// (Table 1's compress(graph)). Property schemas are derived from the
// data: every property ID appearing on any node (resp. edge) becomes part
// of the global node (resp. edge) schema.
func Compress(data GraphData, opts Options) (*Graph, error) {
	nodeSchema, edgeSchema, err := DeriveSchemas(data)
	if err != nil {
		return nil, err
	}
	return CompressWithSchemas(data, nodeSchema, edgeSchema, opts)
}

// DeriveSchemas scans the graph and constructs the node and edge
// property schemas. Exposed so that callers who will append new
// properties later can extend the ID sets up front.
func DeriveSchemas(data GraphData) (nodeSchema, edgeSchema *layout.PropertySchema, err error) {
	nodeIDs := make(map[string]bool)
	maxNodeVal := 1
	for _, n := range data.Nodes {
		for k, v := range n.Props {
			nodeIDs[k] = true
			if len(v) > maxNodeVal {
				maxNodeVal = len(v)
			}
		}
	}
	edgeIDs := make(map[string]bool)
	maxEdgeVal := 1
	for _, e := range data.Edges {
		for k, v := range e.Props {
			edgeIDs[k] = true
			if len(v) > maxEdgeVal {
				maxEdgeVal = len(v)
			}
		}
	}
	// Leave headroom for longer values appended after compression.
	if nodeSchema, err = layout.NewPropertySchema(keys(nodeIDs), maxNodeVal*4); err != nil {
		return nil, nil, fmt.Errorf("zipg: node schema: %w", err)
	}
	if edgeSchema, err = layout.NewPropertySchema(keys(edgeIDs), maxEdgeVal*4); err != nil {
		return nil, nil, fmt.Errorf("zipg: edge schema: %w", err)
	}
	return nodeSchema, edgeSchema, nil
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// CompressWithSchemas is Compress with caller-supplied schemas (needed
// when several stores — e.g. cluster servers — must agree on delimiters,
// or when properties not present in the initial data will be appended).
func CompressWithSchemas(data GraphData, nodeSchema, edgeSchema *layout.PropertySchema, opts Options) (*Graph, error) {
	s, err := store.New(data.Nodes, data.Edges, nodeSchema, edgeSchema, opts)
	if err != nil {
		return nil, err
	}
	return &Graph{s: s}, nil
}

// GetNodeProperty returns property values for a node; nil propertyIDs is
// the wildcard: the values of every property the node has, in
// lexicographic property-ID order. The second result reports whether the
// node exists. Empty values and absent properties are equivalent (the
// layout encodes both as length zero).
func (g *Graph) GetNodeProperty(id NodeID, propertyIDs []string) ([]string, bool) {
	if len(propertyIDs) == 0 {
		vals, ok := g.s.GetNodeProps(id, nil)
		if !ok {
			return nil, false
		}
		// Drop absent properties; schema IDs are already sorted.
		out := make([]string, 0, len(vals))
		for _, v := range vals {
			if v != "" {
				out = append(out, v)
			}
		}
		return out, true
	}
	return g.s.GetNodeProps(id, propertyIDs)
}

// ObjGetBatch answers GetNodeProperty(id, nil) for every id: the scalar
// read of each, fanned out over the cores that are idle. Results are
// positional and identical to a scalar loop: absent or deleted nodes
// yield (nil, false).
func (g *Graph) ObjGetBatch(ids []NodeID) ([][]string, []bool) {
	vals, oks := g.s.ObjGetBatch(ids)
	for i, ok := range oks {
		if !ok {
			vals[i] = nil
			continue
		}
		// Same wildcard filtering as GetNodeProperty: drop absent
		// properties (encoded as empty values).
		out := make([]string, 0, len(vals[i]))
		for _, v := range vals[i] {
			if v != "" {
				out = append(out, v)
			}
		}
		vals[i] = out
	}
	return vals, oks
}

// AssocRangeBatch answers, per request, the edges of (ID, Type) at
// TimeOrder [Idx, min(Idx+Limit, count)); missing records yield nil.
// Identical to a scalar GetEdgeRecord + Data loop over the same requests,
// which it fans out over the cores that are idle.
func (g *Graph) AssocRangeBatch(reqs []graphapi.AssocRangeReq) ([][]EdgeData, error) {
	return g.s.AssocRangeBatch(reqs)
}

// GetNodeProperties returns the node's full property map.
func (g *Graph) GetNodeProperties(id NodeID) (map[string]string, bool) {
	return g.s.GetAllNodeProps(id)
}

// GetNodeIDs returns every live node whose properties exactly match all
// pairs in props (Table 1's get_node_ids).
func (g *Graph) GetNodeIDs(props map[string]string) []NodeID {
	return g.s.FindNodes(props)
}

// GetNeighborIDs returns neighbors of id along etype (WildcardType for
// any) whose properties match props (nil = no filter). Per the paper it
// avoids a join: neighbors are enumerated and each is checked.
func (g *Graph) GetNeighborIDs(id NodeID, etype EdgeType, props map[string]string) []NodeID {
	return g.s.NeighborIDs(id, etype, props)
}

// GetEdgeRecord returns the edge record for (id, etype) — Table 1's
// get_edge_record. Use GetEdgeRecords for the wildcard form.
func (g *Graph) GetEdgeRecord(id NodeID, etype EdgeType) (EdgeRecord, bool) {
	r, ok := g.s.GetEdgeRecord(id, etype)
	if !ok {
		return nil, false
	}
	return recordAdapter{r}, true
}

// GetEdgeRecords returns the edge records of every type incident on id.
func (g *Graph) GetEdgeRecords(id NodeID) []EdgeRecord {
	rs := g.s.GetEdgeRecords(id)
	out := make([]EdgeRecord, len(rs))
	for i, r := range rs {
		out[i] = recordAdapter{r}
	}
	return out
}

// ReadEdges returns the edges q selects of (id, etype)'s record, in
// TimeOrder: the read of the TAO algorithms, with the record located
// once (graphapi.EdgeReader).
func (g *Graph) ReadEdges(id NodeID, etype EdgeType, q EdgeQuery) ([]EdgeData, error) {
	return g.s.ReadEdges(id, etype, q)
}

// recordAdapter lifts the store's EdgeRecord to the shared interface.
type recordAdapter struct{ r *store.EdgeRecord }

func (a recordAdapter) Count() int { return a.r.Count() }

func (a recordAdapter) Range(tLo, tHi int64) (int, int) {
	tLo, tHi = graphapi.TimeBounds(tLo, tHi)
	return a.r.GetEdgeRange(tLo, tHi)
}

func (a recordAdapter) Data(timeOrder int) (EdgeData, error) { return a.r.GetEdgeData(timeOrder) }

func (a recordAdapter) Destinations() []NodeID { return a.r.Destinations() }

// AppendNode inserts a new node or replaces an existing one (Table 1's
// append(nodeID, PropertyList)).
func (g *Graph) AppendNode(id NodeID, props map[string]string) error {
	return g.s.AppendNode(id, props)
}

// AppendEdge appends one edge (Table 1's append(nodeID, edgeType,
// edgeRecord)).
func (g *Graph) AppendEdge(e Edge) error { return g.s.AppendEdge(e) }

// DeleteNode lazily deletes a node (Table 1's delete(nodeID)).
func (g *Graph) DeleteNode(id NodeID) error {
	g.s.DeleteNode(id)
	return nil
}

// DeleteEdges deletes all (src, etype, dst) edges (Table 1's
// delete(nodeID, edgeType, destinationID)), returning how many edges
// were removed.
func (g *Graph) DeleteEdges(src NodeID, etype EdgeType, dst NodeID) (int, error) {
	return g.s.DeleteEdges(src, etype, dst), nil
}

// CompressedFootprint returns the store's total compressed size in
// bytes, including the live write log.
func (g *Graph) CompressedFootprint() int64 { return g.s.CompressedFootprint() }

// RawSize returns the uncompressed flat-file size of the initial graph.
func (g *Graph) RawSize() int64 { return g.s.RawSize() }

// FragmentsOf returns how many storage fragments currently hold data for
// a node (1 + its update-pointer count); see §3.5 and Appendix A.
func (g *Graph) FragmentsOf(id NodeID) int { return g.s.FragmentsOf(id) }

// Save serializes the whole store — compressed shards, the live write
// log, update pointers and deletion state — to w (§4.1's persistence as
// serialized flat files).
func (g *Graph) Save(w io.Writer) error { return g.s.Save(w) }

// Load reconstructs a graph serialized by Save, placing it on med (nil
// for an unlimited medium).
func Load(r io.Reader, med *memsim.Medium) (*Graph, error) {
	s, err := store.Load(r, med)
	if err != nil {
		return nil, err
	}
	return &Graph{s: s}, nil
}

// FindEdges returns every live edge whose property list exactly matches
// all pairs in props — edge-property search, the extension §3.3 of the
// paper sketches ("can be trivially extended ... using ideas similar to
// NodeFile"). Like GetNodeIDs it must consult every fragment.
func (g *Graph) FindEdges(props map[string]string) []Edge {
	return g.s.FindEdges(props)
}

// Compact runs the store's garbage collection (§4.1): every fragment —
// primary shards, frozen write-log generations and the live log — is
// merged into fresh compressed shards, lazily-deleted data is dropped
// physically, and all update pointers reset. Afterwards every node's
// data is whole again (FragmentsOf == 1). Compaction is online: the
// rebuild runs against an immutable snapshot while reads and writes
// proceed, with only two brief pauses to seal the log and swap in the
// fresh shards.
func (g *Graph) Compact() error { return g.s.Compact() }

// Close stops the background compaction worker, if one is running, and
// waits for any in-flight build to finish. The graph remains readable
// after Close; further compaction only happens via explicit Compact
// calls. Safe to call multiple times.
func (g *Graph) Close() { g.s.Close() }

// Store exposes the underlying store for advanced integrations (the
// benchmark harness and the cluster server build on it).
func (g *Graph) Store() *store.Store { return g.s }

// Compile-time check: Graph implements the shared store interface used
// by all workload drivers.
var _ graphapi.Store = (*Graph)(nil)
