package pointerstore

import (
	"fmt"
	"sort"

	"zipg/internal/graphapi"
)

// Compile-time check: the pointer store serves the shared workload API.
var _ graphapi.Store = (*Store)(nil)

// GetNodeProperty implements graphapi.Store. Each property is found by
// walking the node's property chain (pointer chasing).
func (s *Store) GetNodeProperty(id graphapi.NodeID, propertyIDs []string) ([]string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ni, ok := s.nodeIdx[id]
	if !ok || !s.nodes[ni].inUse {
		return nil, false
	}
	props := s.nodeProps(ni)
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

// GetNodeIDs implements graphapi.Store via the global property index —
// the design the paper credits for Neo4j's strong in-memory Graph Search
// numbers.
func (s *Store) GetNodeIDs(props map[string]string) []graphapi.NodeID {
	if len(props) == 0 {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var result map[graphapi.NodeID]bool
	for k, v := range props {
		entries := s.index[indexKey(k, v)]
		// Index lookup cost: one access into the index region.
		s.med.Access(s.regIndex, int64(len(entries)), 16+int64(len(entries))*8)
		ids := make(map[graphapi.NodeID]bool, len(entries))
		for _, ni := range entries {
			n := s.readNode(ni)
			if !n.inUse {
				continue
			}
			// The index may hold stale entries after updates; verify.
			if cur := s.nodeProps(ni); cur[k] == v {
				ids[n.id] = true
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

// collectEdges walks a node's full relationship chain and filters by
// type (etype < 0 = all), returning live edges sorted by timestamp.
// This is the whole-chain scan the paper contrasts with ZipG's direct
// per-type records.
func (s *Store) collectEdges(ni int32, etype graphapi.EdgeType) []relWithIdx {
	var out []relWithIdx
	n := s.readNode(ni)
	for ri := n.firstRel; ri >= 0; {
		r := s.readRel(ri)
		if r.inUse && (etype < 0 || r.etype == etype) {
			out = append(out, relWithIdx{r, ri})
		}
		ri = r.srcNext
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].rel.ts < out[j].rel.ts })
	return out
}

type relWithIdx struct {
	rel relRec
	idx int32
}

// GetNeighborIDs implements graphapi.Store.
func (s *Store) GetNeighborIDs(id graphapi.NodeID, etype graphapi.EdgeType, props map[string]string) []graphapi.NodeID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ni, ok := s.nodeIdx[id]
	if !ok || !s.nodes[ni].inUse {
		return nil
	}
	seen := make(map[graphapi.NodeID]bool)
	var out []graphapi.NodeID
	for _, rw := range s.collectEdges(ni, etype) {
		dst := rw.rel.dst
		if seen[dst] {
			continue
		}
		seen[dst] = true
		di, ok := s.nodeIdx[dst]
		if !ok || !s.nodes[di].inUse {
			continue
		}
		if len(props) > 0 {
			dp := s.nodeProps(di)
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
		out = append(out, dst)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// record is the pointer store's EdgeRecord: the scan's result,
// materialized (Neo4j has no per-type record; the scan already paid for
// everything, so the handle carries it).
type record struct {
	s     *Store
	edges []relWithIdx
}

func (r *record) Count() int { return len(r.edges) }

func (r *record) Range(tLo, tHi int64) (int, int) {
	tLo, tHi = graphapi.TimeBounds(tLo, tHi)
	beg := sort.Search(len(r.edges), func(i int) bool { return r.edges[i].rel.ts >= tLo })
	end := sort.Search(len(r.edges), func(i int) bool { return r.edges[i].rel.ts >= tHi })
	return beg, end
}

func (r *record) Data(timeOrder int) (graphapi.EdgeData, error) {
	if timeOrder < 0 || timeOrder >= len(r.edges) {
		return graphapi.EdgeData{}, fmt.Errorf("pointerstore: time order %d out of range [0,%d)", timeOrder, len(r.edges))
	}
	rw := r.edges[timeOrder]
	r.s.mu.RLock()
	defer r.s.mu.RUnlock()
	var props map[string]string
	if rw.rel.firstProp >= 0 {
		props = r.s.materializeProps(rw.rel.firstProp)
	}
	return graphapi.EdgeData{Dst: rw.rel.dst, Timestamp: rw.rel.ts, Props: props}, nil
}

func (r *record) Destinations() []graphapi.NodeID {
	out := make([]graphapi.NodeID, len(r.edges))
	for i, rw := range r.edges {
		out[i] = rw.rel.dst
	}
	return out
}

// GetEdgeRecord implements graphapi.Store.
func (s *Store) GetEdgeRecord(id graphapi.NodeID, etype graphapi.EdgeType) (graphapi.EdgeRecord, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ni, ok := s.nodeIdx[id]
	if !ok || !s.nodes[ni].inUse {
		return nil, false
	}
	edges := s.collectEdges(ni, etype)
	if len(edges) == 0 {
		return nil, false
	}
	return &record{s: s, edges: edges}, true
}

// GetEdgeRecords implements graphapi.Store.
func (s *Store) GetEdgeRecords(id graphapi.NodeID) []graphapi.EdgeRecord {
	s.mu.RLock()
	ni, ok := s.nodeIdx[id]
	if !ok || !s.nodes[ni].inUse {
		s.mu.RUnlock()
		return nil
	}
	all := s.collectEdges(ni, -1)
	s.mu.RUnlock()
	byType := make(map[graphapi.EdgeType][]relWithIdx)
	for _, rw := range all {
		byType[rw.rel.etype] = append(byType[rw.rel.etype], rw)
	}
	types := make([]graphapi.EdgeType, 0, len(byType))
	for t := range byType {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	out := make([]graphapi.EdgeRecord, 0, len(types))
	for _, t := range types {
		out = append(out, &record{s: s, edges: byType[t]})
	}
	return out
}

// AppendNode implements graphapi.Store.
func (s *Store) AppendNode(id graphapi.NodeID, props map[string]string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.addNodeLocked(id, props)
	return err
}

// AppendEdge implements graphapi.Store.
func (s *Store) AppendEdge(e graphapi.Edge) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addEdgeLocked(e)
}

// DeleteNode implements graphapi.Store.
func (s *Store) DeleteNode(id graphapi.NodeID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ni, ok := s.nodeIdx[id]; ok {
		s.nodes[ni].inUse = false
		s.writeNode(ni)
		s.invalidateCache(ni)
	}
	return nil
}

// DeleteEdges implements graphapi.Store.
func (s *Store) DeleteEdges(src graphapi.NodeID, etype graphapi.EdgeType, dst graphapi.NodeID) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// A deleted node's edges are deleted too, as in every other store:
	// they would come back with the node.
	ni, ok := s.nodeIdx[src]
	if !ok {
		return 0, nil
	}
	removed := 0
	n := s.readNode(ni)
	for ri := n.firstRel; ri >= 0; {
		r := s.readRel(ri)
		if r.inUse && r.etype == etype && r.dst == dst {
			s.rels[ri].inUse = false
			s.writeRel(ri)
			removed++
		}
		ri = r.srcNext
	}
	return removed, nil
}

// Footprint returns the store's total bytes (records, id map, index).
func (s *Store) Footprint() int64 { return s.med.Footprint() }
