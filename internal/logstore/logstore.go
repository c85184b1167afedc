// Package logstore implements ZipG's write path (§3.5): a single
// query-optimized (rather than memory-optimized) LogStore that absorbs
// all writes. When its size crosses a threshold, the store freezes it
// into a compressed shard and starts a new one — the previously
// compressed data is never touched, which is what keeps writes from
// interfering with reads on compressed shards.
//
// "Query-optimized" here means native hash maps and slices with direct
// lookups; the price is the memory overhead factor below, which is
// exactly the trade the paper makes by dedicating one server to the
// LogStore.
package logstore

import (
	"fmt"
	"sort"
	"sync"

	"zipg/internal/layout"
	"zipg/internal/memsim"
	"zipg/internal/telemetry"
)

// Telemetry series for the write path: append volume and the
// hit/miss split of reads that consult the LogStore (the numerator of
// the LogStore hit rate the bench harness reports).
var (
	mAppendNodes = telemetry.NewCounterL("zipg_logstore_appends_total", `kind="node"`,
		"LogStore appends, by record kind.")
	mAppendEdges = telemetry.NewCounterL("zipg_logstore_appends_total", `kind="edge"`,
		"LogStore appends, by record kind.")
	mAppendBytes = telemetry.NewCounter("zipg_logstore_bytes_total",
		"Serialized-equivalent bytes absorbed by LogStore appends.")
	mReadHits = telemetry.NewCounterL("zipg_logstore_reads_total", `result="hit"`,
		"Reads that consulted the LogStore, by hit/miss.")
	mReadMisses = telemetry.NewCounterL("zipg_logstore_reads_total", `result="miss"`,
		"Reads that consulted the LogStore, by hit/miss.")
)

// recordRead counts one LogStore read against the hit-rate series.
func recordRead(hit bool) {
	if hit {
		mReadHits.Inc()
	} else {
		mReadMisses.Inc()
	}
}

// QueryOptimizedOverhead approximates the space blow-up of the pointer-
// rich in-memory representation relative to the serialized layout
// (Figure 1's, length header included). It is charged to the medium so
// footprint comparisons stay honest.
const QueryOptimizedOverhead = 2

type edgeKey struct {
	Src  layout.NodeID
	Type layout.EdgeType
}

// LogStore is a mutable, uncompressed graph fragment. It is safe for
// concurrent use.
type LogStore struct {
	nodeSchema *layout.PropertySchema
	edgeSchema *layout.PropertySchema
	med        *memsim.Medium // nil outside budgeted experiments: no accounting

	mu    sync.RWMutex
	nodes map[layout.NodeID]map[string]string
	edges map[edgeKey][]layout.Edge
	size  int64 // serialized-equivalent bytes absorbed so far
}

// New creates an empty LogStore. Growth is charged to med; nil means
// plain memory, with no accounting at all. A trailing argument is
// ignored: it was a generation number, which only the store can keep
// (its merges renumber generations), and the benchmark's ladder still
// passes one.
func New(nodeSchema, edgeSchema *layout.PropertySchema, med *memsim.Medium, _ ...int) *LogStore {
	return &LogStore{
		nodeSchema: nodeSchema,
		edgeSchema: edgeSchema,
		med:        med,
		nodes:      make(map[layout.NodeID]map[string]string),
		edges:      make(map[edgeKey][]layout.Edge),
	}
}

// chargeGrowth adds n absorbed bytes to the medium's footprint.
func (l *LogStore) chargeGrowth(n int64) {
	if l.med != nil {
		l.med.Grow(n)
	}
}

// Size returns the serialized-equivalent bytes absorbed so far (what the
// rollover threshold is compared against).
func (l *LogStore) Size() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.size
}

// Put is one prepared (validated, schema-checked, size-accounted)
// mutation, ready to be applied to a LogStore without any further
// fallible work. Exactly one of NodeID/Edge is meaningful; NodeProps
// is an already-copied map the LogStore may own. Prepared puts are what
// the store's commit publishes: all validation and serialization-size
// work happens outside any lock, and ApplyPuts publishes a commit's
// puts in one critical section.
type Put struct {
	IsNode    bool
	NodeID    layout.NodeID
	NodeProps map[string]string
	Edge      layout.Edge
	grow      int64
}

// PrepareNodePut validates a node append against the schema and
// returns a prepared put. No locks are taken.
func PrepareNodePut(schema *layout.PropertySchema, id layout.NodeID, props map[string]string) (Put, error) {
	if id < 0 {
		return Put{}, fmt.Errorf("logstore: negative node ID %d", id)
	}
	if _, err := schema.SerializeProps(nil, props); err != nil {
		return Put{}, err
	}
	cp := make(map[string]string, len(props))
	for k, v := range props {
		cp[k] = v
	}
	grow := int64(schema.Figure1Header()+schema.PropsEncodedSize(props)) * QueryOptimizedOverhead
	return Put{IsNode: true, NodeID: id, NodeProps: cp, grow: grow}, nil
}

// PrepareEdgePut validates an edge append against the schema and
// returns a prepared put. No locks are taken.
func PrepareEdgePut(schema *layout.PropertySchema, e layout.Edge) (Put, error) {
	if e.Src < 0 || e.Dst < 0 || e.Type < 0 || e.Timestamp < 0 {
		return Put{}, fmt.Errorf("logstore: negative field in edge %+v", e)
	}
	blob, err := schema.SerializeProps(nil, e.Props)
	if err != nil {
		return Put{}, err
	}
	grow := int64(schema.Figure1Header()+len(blob)+24) * QueryOptimizedOverhead
	return Put{Edge: e, grow: grow}, nil
}

// ApplyPuts publishes a batch of prepared puts under one acquisition
// of the LogStore lock, in order. It cannot fail: every fallible step
// ran in Prepare*Put.
func (l *LogStore) ApplyPuts(puts []Put) {
	if len(puts) == 0 {
		return
	}
	var grow int64
	var nNodes, nEdges int64
	l.mu.Lock()
	for i := range puts {
		p := &puts[i]
		if p.IsNode {
			l.nodes[p.NodeID] = p.NodeProps
			nNodes++
		} else {
			k := edgeKey{p.Edge.Src, p.Edge.Type}
			l.edges[k] = append(l.edges[k], p.Edge)
			nEdges++
		}
		l.size += p.grow
		grow += p.grow
	}
	l.mu.Unlock()
	l.chargeGrowth(grow)
	mAppendNodes.Add(nNodes)
	mAppendEdges.Add(nEdges)
	mAppendBytes.Add(grow)
}

// AddNode inserts or replaces the node's property list.
func (l *LogStore) AddNode(id layout.NodeID, props map[string]string) error {
	put, err := PrepareNodePut(l.nodeSchema, id, props)
	if err != nil {
		return err
	}
	l.mu.Lock()
	l.nodes[id] = put.NodeProps
	l.size += put.grow
	l.mu.Unlock()
	l.chargeGrowth(put.grow)
	mAppendNodes.Inc()
	mAppendBytes.Add(put.grow)
	return nil
}

// AddEdge appends one edge.
func (l *LogStore) AddEdge(e layout.Edge) error {
	put, err := PrepareEdgePut(l.edgeSchema, e)
	if err != nil {
		return err
	}
	k := edgeKey{e.Src, e.Type}
	l.mu.Lock()
	l.edges[k] = append(l.edges[k], e)
	l.size += put.grow
	l.mu.Unlock()
	l.chargeGrowth(put.grow)
	mAppendEdges.Inc()
	mAppendBytes.Add(put.grow)
	return nil
}

// RemoveNode drops a node's properties from this fragment (used when the
// node is deleted while its latest version still lives here).
func (l *LogStore) RemoveNode(id layout.NodeID) {
	l.mu.Lock()
	delete(l.nodes, id)
	l.mu.Unlock()
}

// RemoveEdges drops all (src, etype, dst) edges from this fragment and
// reports how many were removed. The surviving entries go into a fresh
// slice (never compacted in place): snapshot readers may still hold the
// old backing array outside the lock.
func (l *LogStore) RemoveEdges(src layout.NodeID, etype layout.EdgeType, dst layout.NodeID) int {
	k := edgeKey{src, etype}
	l.mu.Lock()
	defer l.mu.Unlock()
	es := l.edges[k]
	removed := 0
	for _, e := range es {
		if e.Dst == dst {
			removed++
		}
	}
	if removed == 0 {
		return 0
	}
	if removed == len(es) {
		delete(l.edges, k)
		return removed
	}
	kept := make([]layout.Edge, 0, len(es)-removed)
	for _, e := range es {
		if e.Dst != dst {
			kept = append(kept, e)
		}
	}
	l.edges[k] = kept
	return removed
}

// HasNode reports whether this fragment holds a property record for id.
func (l *LogStore) HasNode(id layout.NodeID) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	_, ok := l.nodes[id]
	return ok
}

// NodeProps returns a copy of the node's properties.
func (l *LogStore) NodeProps(id layout.NodeID) (map[string]string, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	props, ok := l.nodes[id]
	recordRead(ok)
	if !ok {
		return nil, false
	}
	cp := make(map[string]string, len(props))
	for k, v := range props {
		cp[k] = v
	}
	return cp, true
}

// snapshotNodes returns a shallow copy of the node table taken under
// the read lock. The inner property maps are safe to read outside the
// lock: AddNode replaces a node's entry with a freshly built map and
// never mutates the old one.
func (l *LogStore) snapshotNodes() map[layout.NodeID]map[string]string {
	l.mu.RLock()
	cp := make(map[layout.NodeID]map[string]string, len(l.nodes))
	for id, props := range l.nodes {
		cp[id] = props
	}
	l.mu.RUnlock()
	return cp
}

// snapshotEdges returns a shallow copy of the edge table taken under
// the read lock. The entry slices are safe to read outside the lock:
// AddEdge appends beyond the snapshotted length and RemoveEdges
// replaces the slice with a fresh one, so the elements a snapshot can
// see are never rewritten.
func (l *LogStore) snapshotEdges() map[edgeKey][]layout.Edge {
	l.mu.RLock()
	cp := make(map[edgeKey][]layout.Edge, len(l.edges))
	for k, es := range l.edges {
		cp[k] = es
	}
	l.mu.RUnlock()
	return cp
}

// FindNodes returns IDs of nodes in this fragment matching all property
// pairs exactly, ascending. The LogStore lock is held only for a
// shallow table snapshot; the scan itself runs outside it, so a long
// search (or compaction's materialize pass) never stalls appends.
func (l *LogStore) FindNodes(props map[string]string) []layout.NodeID {
	if len(props) == 0 {
		return nil
	}
	var out []layout.NodeID
	for id, np := range l.snapshotNodes() {
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

// EdgeEntries returns the fragment's (src, etype) edges sorted by
// timestamp.
func (l *LogStore) EdgeEntries(src layout.NodeID, etype layout.EdgeType) []layout.Edge {
	l.mu.RLock()
	es := l.edges[edgeKey{src, etype}]
	cp := append([]layout.Edge(nil), es...)
	l.mu.RUnlock()
	recordRead(len(cp) > 0)
	sort.SliceStable(cp, func(i, j int) bool { return cp[i].Timestamp < cp[j].Timestamp })
	return cp
}

// EdgeTypes returns the distinct edge types with entries for src.
func (l *LogStore) EdgeTypes(src layout.NodeID) []layout.EdgeType {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out []layout.EdgeType
	for k, es := range l.edges {
		if k.Src == src && len(es) > 0 {
			out = append(out, k.Type)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Contents snapshots everything in the fragment for freezing into a
// compressed shard. The LogStore lock is held only for the shallow
// table snapshots; the deep copy runs outside it, so freezing a large
// fragment does not stall concurrent appends. Output is deterministic:
// nodes ascend by ID and edges are grouped by (src, type) ascending,
// preserving append order within a group.
func (l *LogStore) Contents() ([]layout.Node, []layout.Edge) {
	nodeTab := l.snapshotNodes()
	edgeTab := l.snapshotEdges()

	nodes := make([]layout.Node, 0, len(nodeTab))
	for id, props := range nodeTab {
		cp := make(map[string]string, len(props))
		for k, v := range props {
			cp[k] = v
		}
		nodes = append(nodes, layout.Node{ID: id, Props: cp})
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })

	keys := make([]edgeKey, 0, len(edgeTab))
	for k := range edgeTab {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Src != keys[j].Src {
			return keys[i].Src < keys[j].Src
		}
		return keys[i].Type < keys[j].Type
	})
	var edges []layout.Edge
	for _, k := range keys {
		edges = append(edges, edgeTab[k]...)
	}
	return nodes, edges
}

// FindEdges returns this fragment's edges whose property lists match all
// pairs exactly (the edge-search extension; §3.3). Like FindNodes, the
// scan runs against a shallow snapshot outside the LogStore lock.
func (l *LogStore) FindEdges(props map[string]string) []layout.Edge {
	if len(props) == 0 {
		return nil
	}
	var out []layout.Edge
	for _, es := range l.snapshotEdges() {
		for _, e := range es {
			match := true
			for k, v := range props {
				if e.Props[k] != v {
					match = false
					break
				}
			}
			if match {
				out = append(out, e)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		if out[i].Type != out[j].Type {
			return out[i].Type < out[j].Type
		}
		return out[i].Timestamp < out[j].Timestamp
	})
	return out
}
