package store

import (
	"fmt"
	"sort"

	"zipg/internal/core"
	"zipg/internal/layout"
	"zipg/internal/logstore"
	"zipg/internal/telemetry"
)

// EdgeRecord is the store-level realization of §2.2's EdgeRecord: a
// handle to all live edges of one EdgeType incident on a node, possibly
// fragmented across the primary shard, frozen generations and the live
// LogStore. TimeOrder indexes the live edges across all fragments in
// global timestamp order.
type EdgeRecord struct {
	Src  layout.NodeID
	Type layout.EdgeType

	pieces []recordPiece
	count  int
	merged []mergedEntry // built lazily; nil until needed
}

// recordPiece is one fragment's contribution to an EdgeRecord.
type recordPiece struct {
	shard   *core.Shard          // nil for a LogStore piece
	ref     layout.EdgeRecordRef // valid when shard != nil
	deleted map[int]bool         // physical deletion marks (snapshot)
	edges   []layout.Edge        // LogStore entries, ts-sorted
}

func (p *recordPiece) liveCount() int {
	if p.shard == nil {
		return len(p.edges)
	}
	return p.ref.Count - len(p.deleted)
}

type mergedEntry struct {
	piece int
	idx   int // physical index within the piece
	ts    int64
}

// Count returns the number of live edges (TAO's assoc_count). For the
// common unfragmented, no-deletion case this is a pure metadata read.
func (r *EdgeRecord) Count() int { return r.count }

// GetEdgeRecord returns the merged EdgeRecord for (src, etype), or false
// if the node is deleted or has no such edges. Fanned updates: only the
// fragments named by src's update pointers are consulted.
func (s *Store) GetEdgeRecord(src layout.NodeID, etype layout.EdgeType) (*EdgeRecord, bool) {
	mOpGetEdgeRecord.Inc()
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.getEdgeRecordLocked(src, etype)
}

func (s *Store) getEdgeRecordLocked(src layout.NodeID, etype layout.EdgeType) (*EdgeRecord, bool) {
	if s.deletedNodes[src] {
		return nil, false
	}
	r := &EdgeRecord{Src: src, Type: etype}
	for _, f := range s.fragmentsOfLocked(src) {
		if f.raw != nil {
			if es := s.rawEdgeEntriesLocked(f.raw, src, etype); len(es) > 0 {
				r.pieces = append(r.pieces, recordPiece{edges: es})
			}
			continue
		}
		sh := f.shard
		if ref, ok := sh.Edges().GetEdgeRecord(src, etype); ok {
			r.pieces = append(r.pieces, recordPiece{
				shard:   sh,
				ref:     ref,
				deleted: copyDeleted(s.deletedPhys[shardEdgeRef{sh, src, etype}]),
			})
		}
	}
	if s.hasLogPtrLocked(src) {
		if es := s.log.EdgeEntries(src, etype); len(es) > 0 {
			r.pieces = append(r.pieces, recordPiece{edges: es})
		}
	}
	for i := range r.pieces {
		r.count += r.pieces[i].liveCount()
	}
	if r.count == 0 {
		return nil, false
	}
	return r, true
}

// GetEdgeRecords returns the merged EdgeRecords of every EdgeType
// incident on src (wildcard EdgeType), in ascending type order.
func (s *Store) GetEdgeRecords(src layout.NodeID) []*EdgeRecord {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.deletedNodes[src] {
		return nil
	}
	types := make(map[layout.EdgeType]bool)
	for _, f := range s.fragmentsOfLocked(src) {
		if f.raw != nil {
			for _, t := range f.raw.EdgeTypes(src) {
				types[t] = true
			}
			continue
		}
		for _, ref := range f.shard.Edges().GetEdgeRecords(src) {
			types[ref.Type] = true
		}
	}
	if s.hasLogPtrLocked(src) {
		for _, t := range s.log.EdgeTypes(src) {
			types[t] = true
		}
	}
	sorted := make([]layout.EdgeType, 0, len(types))
	for t := range types {
		sorted = append(sorted, t)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var out []*EdgeRecord
	for _, t := range sorted {
		if r, ok := s.getEdgeRecordLocked(src, t); ok {
			out = append(out, r)
		}
	}
	return out
}

// rawEdgeEntriesLocked returns one sealed raw generation's (src, etype)
// edges with tombstoned triples filtered out, timestamp-sorted. Callers
// hold s.mu.
func (s *Store) rawEdgeEntriesLocked(raw *logstore.LogStore, src layout.NodeID, etype layout.EdgeType) []layout.Edge {
	es := raw.EdgeEntries(src, etype)
	dels := s.rawDels[raw]
	if len(dels) == 0 {
		return es
	}
	kept := es[:0]
	for _, e := range es {
		if !dels[edgeTriple{e.Src, e.Type, e.Dst}] {
			kept = append(kept, e)
		}
	}
	return kept
}

// hasLogPtrLocked reports whether src has an update pointer into the
// live LogStore. Callers hold s.mu.
func (s *Store) hasLogPtrLocked(src layout.NodeID) bool {
	if s.cfg.DisableFannedUpdates {
		return true
	}
	cur := s.curGenLocked()
	for _, g := range s.ptrs[src] {
		if g == cur {
			return true
		}
	}
	return false
}

func copyDeleted(m map[int]bool) map[int]bool {
	if len(m) == 0 {
		return nil
	}
	cp := make(map[int]bool, len(m))
	for k := range m {
		cp[k] = true
	}
	return cp
}

// ensureMerged builds the global TimeOrder index across pieces.
func (r *EdgeRecord) ensureMerged() {
	if r.merged != nil {
		return
	}
	merged := make([]mergedEntry, 0, r.count)
	for pi := range r.pieces {
		p := &r.pieces[pi]
		if p.shard == nil {
			for i, e := range p.edges {
				merged = append(merged, mergedEntry{pi, i, e.Timestamp})
			}
			continue
		}
		// One extract of the whole timestamp array instead of one per edge.
		ts := p.shard.Edges().Timestamps(&p.ref)
		for i := 0; i < p.ref.Count; i++ {
			if p.deleted[i] {
				continue
			}
			merged = append(merged, mergedEntry{pi, i, ts[i]})
		}
	}
	sort.SliceStable(merged, func(a, b int) bool { return merged[a].ts < merged[b].ts })
	r.merged = merged
}

// singleCleanPiece reports whether the record is a single compressed
// fragment with no deletions — the fast path where physical order is
// TimeOrder.
func (r *EdgeRecord) singleCleanPiece() (*recordPiece, bool) {
	if len(r.pieces) != 1 {
		return nil, false
	}
	p := &r.pieces[0]
	if p.shard != nil && len(p.deleted) == 0 {
		return p, true
	}
	return nil, false
}

// GetEdgeData returns the (destination, timestamp, property list) of the
// edge at the given TimeOrder (§2.2's get_edge_data).
func (r *EdgeRecord) GetEdgeData(timeOrder int) (layout.EdgeData, error) {
	if timeOrder < 0 || timeOrder >= r.count {
		return layout.EdgeData{}, fmt.Errorf("store: time order %d out of range [0,%d)", timeOrder, r.count)
	}
	if p, ok := r.singleCleanPiece(); ok {
		d, err := p.shard.Edges().GetEdgeData(&p.ref, timeOrder)
		recordSuccinctEdgeData(d, err)
		return d, err
	}
	r.ensureMerged()
	m := r.merged[timeOrder]
	p := &r.pieces[m.piece]
	if p.shard == nil {
		e := p.edges[m.idx]
		props := make(map[string]string, len(e.Props))
		for k, v := range e.Props {
			props[k] = v
		}
		if len(props) == 0 {
			props = nil
		}
		return layout.EdgeData{Dst: e.Dst, Timestamp: e.Timestamp, Props: props}, nil
	}
	d, err := p.shard.Edges().GetEdgeData(&p.ref, m.idx)
	recordSuccinctEdgeData(d, err)
	return d, err
}

// GetEdgeDataRange returns GetEdgeData(i) for every TimeOrder i in
// [beg, end), in order — the get_edge_data loop of Algorithms 1–3 as one
// call. An empty interval is nil; it fails where GetEdgeData(i) would. A
// single clean compressed piece is read in one record walk; a fragmented
// record goes edge by edge through the merged index.
func (r *EdgeRecord) GetEdgeDataRange(beg, end int) ([]layout.EdgeData, error) {
	if beg >= end {
		return nil, nil
	}
	if beg < 0 || end > r.count {
		return nil, fmt.Errorf("store: time orders [%d,%d) out of range [0,%d)", beg, end, r.count)
	}
	if p, ok := r.singleCleanPiece(); ok {
		out, err := p.shard.Edges().GetEdgeDataRange(&p.ref, beg, end)
		for _, d := range out {
			recordSuccinctEdgeData(d, nil)
		}
		return out, err
	}
	out := make([]layout.EdgeData, 0, end-beg)
	for i := beg; i < end; i++ {
		d, err := r.GetEdgeData(i)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// recordSuccinctEdgeData accounts the bytes of one edge's data
// extracted from a compressed EdgeFile (destination + timestamp words
// plus the property payload).
func recordSuccinctEdgeData(d layout.EdgeData, err error) {
	if err != nil || !telemetry.Enabled() {
		return
	}
	n := int64(16) // dst + timestamp
	for k, v := range d.Props {
		n += int64(len(k) + len(v))
	}
	mSuccinctBytes.Add(n)
}

// GetEdgeRange returns the TimeOrder range [beg, end) of live edges with
// timestamps in [tLo, tHi) (§2.2's get_edge_range). Wildcard bounds are
// expressed as tLo=0, tHi=math.MaxInt64 by callers.
func (r *EdgeRecord) GetEdgeRange(tLo, tHi int64) (int, int) {
	if p, ok := r.singleCleanPiece(); ok {
		return p.shard.Edges().TimeRange(&p.ref, tLo, tHi)
	}
	// Fragmented records: when every piece carries a timestamp span
	// (hot-header for compressed pieces, first/last entry for log
	// pieces), a window that misses or covers the whole record is
	// answered from metadata — no timestamp arrays are decoded and no
	// merge index is built. The spans are conservative over deletions
	// (live entries are a subset), so the three answers stay exact.
	if r.merged == nil {
		if lo, hi, ok := r.span(); ok {
			switch {
			case tHi <= lo:
				return 0, 0
			case tLo > hi:
				return r.count, r.count
			case tLo <= lo && tHi > hi:
				return 0, r.count
			}
		}
	}
	r.ensureMerged()
	beg := sort.Search(len(r.merged), func(i int) bool { return r.merged[i].ts >= tLo })
	end := sort.Search(len(r.merged), func(i int) bool { return r.merged[i].ts >= tHi })
	return beg, end
}

// span returns the record's overall [min, max] timestamp bounds when
// every piece can report one cheaply: compressed pieces via the
// hot-field header, log pieces via their (timestamp-sorted) first and
// last entries. ok is false if any piece lacks a span (legacy-format
// shards), in which case callers fall back to the merged index.
func (r *EdgeRecord) span() (lo, hi int64, ok bool) {
	first := true
	for pi := range r.pieces {
		p := &r.pieces[pi]
		var plo, phi int64
		if p.shard == nil {
			if len(p.edges) == 0 {
				continue
			}
			plo = p.edges[0].Timestamp
			phi = p.edges[len(p.edges)-1].Timestamp
		} else {
			var hot bool
			if plo, phi, hot = p.ref.HotSpan(); !hot {
				return 0, 0, false
			}
		}
		if first || plo < lo {
			lo = plo
		}
		if first || phi > hi {
			hi = phi
		}
		first = false
	}
	return lo, hi, !first
}

// Destinations returns the destination IDs of all live edges in
// TimeOrder.
func (r *EdgeRecord) Destinations() []layout.NodeID {
	if p, ok := r.singleCleanPiece(); ok {
		return p.shard.Edges().Destinations(&p.ref)
	}
	r.ensureMerged()
	out := make([]layout.NodeID, 0, len(r.merged))
	for _, m := range r.merged {
		p := &r.pieces[m.piece]
		if p.shard == nil {
			out = append(out, p.edges[m.idx].Dst)
		} else {
			out = append(out, p.shard.Edges().Destination(&p.ref, m.idx))
		}
	}
	return out
}

// NeighborIDs returns the IDs of live neighbors of src along etype
// (wildcard: etype < 0) whose current properties match propFilter
// (Table 1's get_neighbor_ids). Per §2.2 it avoids a join: it walks the
// destination list and checks each neighbor's properties.
func (s *Store) NeighborIDs(src layout.NodeID, etype layout.EdgeType, propFilter map[string]string) []layout.NodeID {
	if telemetry.Enabled() {
		mOpNeighborIDs.Inc()
		// Timed only on span-sampled queries (see GetNodeProps).
		if sp := telemetry.StartSpan("store.get_neighbor_ids"); sp != nil {
			sp.MarkEdgeFile()
			tm := telemetry.StartTimer()
			defer func() {
				tm.ObserveInto(mLatNeighborIDs)
				sp.End()
			}()
		}
	}
	var records []*EdgeRecord
	if etype < 0 {
		records = s.GetEdgeRecords(src)
	} else if r, ok := s.GetEdgeRecord(src, etype); ok {
		records = []*EdgeRecord{r}
	}
	seen := make(map[layout.NodeID]bool)
	var out []layout.NodeID
	for _, r := range records {
		for _, dst := range r.Destinations() {
			if seen[dst] {
				continue
			}
			seen[dst] = true
			s.mu.RLock()
			deleted := s.deletedNodes[dst]
			s.mu.RUnlock()
			if deleted {
				continue
			}
			if len(propFilter) > 0 && !s.NodeMatches(dst, propFilter) {
				continue
			}
			out = append(out, dst)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
