package kvstore

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"

	"zipg/internal/graphapi"
	"zipg/internal/memsim"
)

// Config parameterizes the Titan-like store.
type Config struct {
	// Medium simulates the storage (nil = unlimited).
	Medium *memsim.Medium
	// Compress enables gzip block compression (Titan-Compressed).
	Compress bool
	// MemtableBytes is the flush threshold (0 = 1 MiB).
	MemtableBytes int64
}

// Store is the KV-backed baseline graph store. Rows:
//
//	n<id>          -> the node's whole property list (opaque blob)
//	e<id>          -> the node's whole adjacency (opaque blob; appends
//	                  are merge operands, deletions are marker operands)
//	i<key>\x00<val> -> node-ID postings for the global property index
type Store struct {
	lsm *lsm
}

// Compile-time check: the KV store serves the shared workload API.
var _ graphapi.Store = (*Store)(nil)

// New builds the store from an initial graph.
func New(nodes []graphapi.Node, edges []graphapi.Edge, cfg Config) (*Store, error) {
	s := &Store{
		lsm: newLSM(lsmConfig{
			med:           cfg.Medium,
			compress:      cfg.Compress,
			memtableBytes: cfg.MemtableBytes,
		}),
	}
	// Endpoints are checked against the input's node set: a lookup in
	// the LSM would read (and, compressed, gunzip) a block per edge.
	known := make(map[graphapi.NodeID]bool, len(nodes))
	for _, n := range nodes {
		if err := s.AppendNode(n.ID, n.Props); err != nil {
			return nil, err
		}
		known[n.ID] = true
	}
	for _, e := range edges {
		if err := s.appendEdge(e, func(id graphapi.NodeID) bool {
			ok := known[id]
			known[id] = true
			return ok
		}); err != nil {
			return nil, err
		}
	}
	// Settle the load into SSTables so reads hit the steady-state path.
	s.lsm.flush()
	return s, nil
}

func nodeKey(id graphapi.NodeID) string { return "n" + strconv.FormatInt(id, 10) }
func adjKey(id graphapi.NodeID) string  { return "e" + strconv.FormatInt(id, 10) }
func idxKey(k, v string) string         { return "i" + k + "\x00" + v }

// --- blob encodings ---

// encodeProps serializes a property map (sorted keys). Empty values are
// dropped: they are equivalent to absent properties in every system.
func encodeProps(props map[string]string) []byte {
	keys := make([]string, 0, len(props))
	for k, v := range props {
		if v != "" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
		buf = binary.AppendUvarint(buf, uint64(len(props[k])))
		buf = append(buf, props[k]...)
	}
	return buf
}

func decodeProps(raw []byte) (map[string]string, []byte) {
	n, k := binary.Uvarint(raw)
	raw = raw[k:]
	props := make(map[string]string, n)
	for i := uint64(0); i < n; i++ {
		kl, k := binary.Uvarint(raw)
		raw = raw[k:]
		key := string(raw[:kl])
		raw = raw[kl:]
		vl, k := binary.Uvarint(raw)
		raw = raw[k:]
		props[key] = string(raw[:vl])
		raw = raw[vl:]
	}
	return props, raw
}

// Adjacency operand kinds. Titan stores every edge twice — an out-edge
// on the source's row and an in-edge on the destination's row — which is
// a large share of its storage footprint; in-edge operands are written
// for size fidelity and skipped by (out-edge) reads.
const (
	adjAdd byte = iota
	adjDel
	adjAddIn
)

// encodeEdgeOp serializes one adjacency merge operand.
func encodeEdgeOp(kind byte, etype graphapi.EdgeType, dst graphapi.NodeID, ts int64, props map[string]string) []byte {
	buf := []byte{kind}
	buf = binary.AppendVarint(buf, etype)
	buf = binary.AppendVarint(buf, dst)
	buf = binary.AppendVarint(buf, ts)
	if kind == adjAdd || kind == adjAddIn {
		// Properties are stored on both edge copies, as Titan does.
		buf = append(buf, encodeProps(props)...)
	}
	return buf
}

type adjEntry struct {
	etype graphapi.EdgeType
	dst   graphapi.NodeID
	ts    int64
	props map[string]string
}

// foldAdjacency replays a row's op history into the live edge set.
func foldAdjacency(ops []op) []adjEntry {
	var out []adjEntry
	for _, o := range ops {
		if o.kind == opDelete {
			out = out[:0]
			continue
		}
		raw := o.data
		kind := raw[0]
		raw = raw[1:]
		etype, k := binary.Varint(raw)
		raw = raw[k:]
		dst, k := binary.Varint(raw)
		raw = raw[k:]
		ts, k := binary.Varint(raw)
		raw = raw[k:]
		switch kind {
		case adjAdd:
			props, _ := decodeProps(raw)
			if len(props) == 0 {
				props = nil
			}
			out = append(out, adjEntry{etype, dst, ts, props})
		case adjAddIn:
			// In-edges are stored but not served by out-edge queries.
		case adjDel:
			kept := out[:0]
			for _, e := range out {
				if e.etype == etype && e.dst == dst {
					continue
				}
				kept = append(kept, e)
			}
			out = kept
			_ = ts
		}
	}
	return out
}

// adjacency fetches and scans the node's entire adjacency row — the
// opaque-object read the paper contrasts with ZipG's per-type records —
// filtered to etype (<0 = all), sorted by timestamp.
func (s *Store) adjacency(id graphapi.NodeID, etype graphapi.EdgeType) []adjEntry {
	all := foldAdjacency(s.lsm.get(adjKey(id)))
	kept := all[:0]
	for _, e := range all {
		if etype >= 0 && e.etype != etype {
			continue
		}
		kept = append(kept, e)
	}
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].ts < kept[j].ts })
	return kept
}

// nodeExists reports whether the node row is live.
func (s *Store) nodeExists(id graphapi.NodeID) bool {
	return s.lsm.get(nodeKey(id)) != nil
}

// nodeProps folds the node row into its property map.
func (s *Store) nodeProps(id graphapi.NodeID) (map[string]string, bool) {
	ops := s.lsm.get(nodeKey(id))
	if ops == nil {
		return nil, false
	}
	var props map[string]string
	for _, o := range ops {
		if o.kind == opDelete {
			props = nil
			continue
		}
		props, _ = decodeProps(o.data)
	}
	return props, true
}

// --- graphapi.Store implementation ---

// GetNodeProperty implements graphapi.Store. The whole node row is
// fetched and scanned even for a single property (the KV abstraction's
// opaque-value limitation, §3.3).
func (s *Store) GetNodeProperty(id graphapi.NodeID, propertyIDs []string) ([]string, bool) {
	props, ok := s.nodeProps(id)
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

// GetNodeIDs implements graphapi.Store via global index rows.
func (s *Store) GetNodeIDs(props map[string]string) []graphapi.NodeID {
	if len(props) == 0 {
		return nil
	}
	var result map[graphapi.NodeID]bool
	for k, v := range props {
		ids := make(map[graphapi.NodeID]bool)
		for _, o := range s.lsm.get(idxKey(k, v)) {
			if o.kind == opDelete {
				ids = make(map[graphapi.NodeID]bool)
				continue
			}
			raw := o.data
			for len(raw) > 0 {
				id, n := binary.Varint(raw)
				raw = raw[n:]
				ids[id] = true
			}
		}
		// Verify against the live row (index postings are additive and may
		// be stale after updates).
		for id := range ids {
			cur, ok := s.nodeProps(id)
			if !ok || cur[k] != v {
				delete(ids, id)
			}
		}
		if result == nil {
			result = ids
		} else {
			for id := range result {
				if !ids[id] {
					delete(result, id)
				}
			}
		}
		if len(result) == 0 {
			return nil
		}
	}
	out := make([]graphapi.NodeID, 0, len(result))
	for id := range result {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// GetNeighborIDs implements graphapi.Store.
func (s *Store) GetNeighborIDs(id graphapi.NodeID, etype graphapi.EdgeType, props map[string]string) []graphapi.NodeID {
	if !s.nodeExists(id) {
		return nil
	}
	seen := make(map[graphapi.NodeID]bool)
	var out []graphapi.NodeID
	for _, e := range s.adjacency(id, etype) {
		if seen[e.dst] {
			continue
		}
		seen[e.dst] = true
		if !s.nodeExists(e.dst) {
			continue
		}
		if len(props) > 0 {
			dp, ok := s.nodeProps(e.dst)
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
			if !match {
				continue
			}
		}
		out = append(out, e.dst)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// record is the KV store's EdgeRecord: the scanned row, materialized.
type record struct {
	edges []adjEntry
}

func (r *record) Count() int { return len(r.edges) }

func (r *record) Range(tLo, tHi int64) (int, int) {
	tLo, tHi = graphapi.TimeBounds(tLo, tHi)
	beg := sort.Search(len(r.edges), func(i int) bool { return r.edges[i].ts >= tLo })
	end := sort.Search(len(r.edges), func(i int) bool { return r.edges[i].ts >= tHi })
	return beg, end
}

func (r *record) Data(timeOrder int) (graphapi.EdgeData, error) {
	if timeOrder < 0 || timeOrder >= len(r.edges) {
		return graphapi.EdgeData{}, fmt.Errorf("kvstore: time order %d out of range [0,%d)", timeOrder, len(r.edges))
	}
	e := r.edges[timeOrder]
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
func (s *Store) GetEdgeRecord(id graphapi.NodeID, etype graphapi.EdgeType) (graphapi.EdgeRecord, bool) {
	if !s.nodeExists(id) {
		return nil, false
	}
	edges := s.adjacency(id, etype)
	if len(edges) == 0 {
		return nil, false
	}
	return &record{edges}, true
}

// GetEdgeRecords implements graphapi.Store.
func (s *Store) GetEdgeRecords(id graphapi.NodeID) []graphapi.EdgeRecord {
	if !s.nodeExists(id) {
		return nil
	}
	all := s.adjacency(id, -1)
	byType := make(map[graphapi.EdgeType][]adjEntry)
	for _, e := range all {
		byType[e.etype] = append(byType[e.etype], e)
	}
	types := make([]graphapi.EdgeType, 0, len(byType))
	for t := range byType {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	out := make([]graphapi.EdgeRecord, 0, len(types))
	for _, t := range types {
		out = append(out, &record{byType[t]})
	}
	return out
}

// AppendNode implements graphapi.Store.
func (s *Store) AppendNode(id graphapi.NodeID, props map[string]string) error {
	if id < 0 {
		return fmt.Errorf("kvstore: negative node ID %d", id)
	}
	s.lsm.put(nodeKey(id), encodeProps(props))
	var ibuf []byte
	for k, v := range props {
		s.lsm.merge(idxKey(k, v), binary.AppendVarint(ibuf[:0], id))
	}
	return nil
}

// AppendEdge implements graphapi.Store. Endpoints whose rows are missing
// or tombstoned are auto-created, like Titan.
func (s *Store) AppendEdge(e graphapi.Edge) error { return s.appendEdge(e, s.nodeExists) }

func (s *Store) appendEdge(e graphapi.Edge, exists func(graphapi.NodeID) bool) error {
	if e.Src < 0 || e.Dst < 0 || e.Type < 0 || e.Timestamp < 0 {
		return fmt.Errorf("kvstore: negative field in edge %+v", e)
	}
	for _, id := range []graphapi.NodeID{e.Src, e.Dst} {
		if !exists(id) {
			if err := s.AppendNode(id, nil); err != nil {
				return err
			}
		}
	}
	s.lsm.merge(adjKey(e.Src), encodeEdgeOp(adjAdd, e.Type, e.Dst, e.Timestamp, e.Props))
	// Mirror in-edge on the destination's row (Titan's bidirectional
	// storage).
	s.lsm.merge(adjKey(e.Dst), encodeEdgeOp(adjAddIn, e.Type, e.Src, e.Timestamp, e.Props))
	return nil
}

// DeleteNode implements graphapi.Store.
func (s *Store) DeleteNode(id graphapi.NodeID) error {
	s.lsm.del(nodeKey(id))
	return nil
}

// DeleteEdges implements graphapi.Store. The LSM records a deletion
// marker; the removed count requires reading the row first (as Titan
// must).
func (s *Store) DeleteEdges(src graphapi.NodeID, etype graphapi.EdgeType, dst graphapi.NodeID) (int, error) {
	n := 0
	for _, e := range s.adjacency(src, etype) {
		if e.dst == dst {
			n++
		}
	}
	if n > 0 {
		s.lsm.merge(adjKey(src), encodeEdgeOp(adjDel, etype, dst, 0, nil))
	}
	return n, nil
}

// Footprint returns the store's total bytes.
func (s *Store) Footprint() int64 { return s.lsm.cfg.med.Footprint() }
