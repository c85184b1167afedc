package store

import (
	"fmt"
	"sort"

	"zipg/internal/core"
	"zipg/internal/graphapi"
	"zipg/internal/layout"
	"zipg/internal/telemetry"
)

// EdgeRecord is the store-level realization of §2.2's EdgeRecord: a
// handle to all live edges of one EdgeType incident on a node, possibly
// fragmented across the primary shard, frozen generations and the live
// LogStore. TimeOrder indexes the live edges across all fragments in
// global timestamp order, ties going to the earlier fragment.
type EdgeRecord struct {
	Src  layout.NodeID
	Type layout.EdgeType

	pieces []recordPiece
	count  int
	// merged places TimeOrders [base, base+len(merged)). mergeTo extends
	// it upward; GetEdgeRange moves base to the window it found, so a read
	// of that window merges nothing below it.
	merged []mergedEntry
	base   int
}

// recordPiece is one fragment's contribution to an EdgeRecord.
type recordPiece struct {
	shard   *core.Shard          // nil for a LogStore piece
	ref     layout.EdgeRecordRef // valid when shard != nil
	deleted map[int]bool         // physical deletion marks (never mutated)
	edges   []layout.Edge        // LogStore entries, ts-sorted
	next    int                  // physical index of the first entry not merged yet
}

func (p *recordPiece) liveCount() int {
	if p.shard == nil {
		return len(p.edges)
	}
	return p.ref.Count - len(p.deleted)
}

// head returns the timestamp of the piece's first live entry not merged
// yet, moving next to it; ok is false once the piece is spent. A
// compressed piece's timestamps are a column, so a piece that gives a
// read nothing costs it no compressed read.
func (p *recordPiece) head() (ts int64, ok bool) {
	for p.deleted[p.next] {
		p.next++
	}
	if p.shard == nil {
		if p.next >= len(p.edges) {
			return 0, false
		}
		return p.edges[p.next].Timestamp, true
	}
	if p.next >= p.ref.Count {
		return 0, false
	}
	return p.shard.Edges().Timestamp(&p.ref, p.next), true
}

// mergedEntry places one TimeOrder: a piece and the physical index in it.
type mergedEntry struct {
	piece int
	idx   int
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
		if f.log != nil {
			if es := f.log.EdgeEntries(src, etype); len(es) > 0 {
				r.pieces = append(r.pieces, recordPiece{edges: es})
			}
			continue
		}
		sh := f.shard
		if ref, ok := sh.Edges().GetEdgeRecord(src, etype); ok {
			r.pieces = append(r.pieces, recordPiece{
				shard:   sh,
				ref:     ref,
				deleted: s.deletedPhys[shardEdgeRef{sh, src, etype}],
			})
		}
	}
	for i := range r.pieces {
		r.count += r.pieces[i].liveCount()
	}
	if r.count == 0 {
		return nil, false
	}
	if telemetry.Enabled() {
		mFragmentsPerRead.Observe(int64(len(r.pieces)))
	}
	return r, true
}

// ReadEdges is the record read of Algorithms 1–3: (src, etype)'s record
// is located once and q's interval of it read by one GetEdgeDataRange.
// An absent record reads as nil.
func (s *Store) ReadEdges(src layout.NodeID, etype layout.EdgeType, q graphapi.EdgeQuery) ([]layout.EdgeData, error) {
	rec, ok := s.GetEdgeRecord(src, etype)
	if !ok {
		return nil, nil
	}
	return rec.read(q, true)
}

// Expand is one hop of a traversal (graphapi.Expander): for every
// frontier node, the edges q selects of its record of etype — of every
// record, in ascending type order, for graphapi.WildcardType — each
// record read as ReadEdges reads it, or without withData from its
// Destinations, Dst alone. The nodes fan out on the shared pool; results
// are positional. Destination liveness is the caller's concern.
func (s *Store) Expand(frontier []layout.NodeID, etype layout.EdgeType, q graphapi.EdgeQuery, withData bool) ([][]layout.EdgeData, error) {
	return fanReads("store.expand", len(frontier), func(i int) ([]layout.EdgeData, error) {
		var out []layout.EdgeData
		for _, rec := range s.edgeRecords(frontier[i], etype) {
			edges, err := rec.read(q, withData)
			if err != nil {
				return nil, err
			}
			out = append(out, edges...)
		}
		return out, nil
	})
}

// edgeRecords is src's record of etype, or all of src's records for a
// negative (wildcard) etype.
func (s *Store) edgeRecords(src layout.NodeID, etype layout.EdgeType) []*EdgeRecord {
	if etype < 0 {
		return s.GetEdgeRecords(src)
	}
	if r, ok := s.GetEdgeRecord(src, etype); ok {
		return []*EdgeRecord{r}
	}
	return nil
}

// read is q's interval of the record: GetEdgeDataRange, or without
// withData that interval of Destinations, Dst alone.
func (r *EdgeRecord) read(q graphapi.EdgeQuery, withData bool) ([]layout.EdgeData, error) {
	beg, end := q.Interval(r.count, r.GetEdgeRange)
	if withData || beg >= end {
		return r.GetEdgeDataRange(beg, end)
	}
	dsts := r.Destinations()
	if len(dsts) < end {
		return nil, fmt.Errorf("store: record (%d,%d) read %d of %d destinations", r.Src, r.Type, len(dsts), end)
	}
	out := make([]layout.EdgeData, end-beg)
	for i := range out {
		out[i].Dst = dsts[beg+i]
	}
	return out, nil
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
		if f.log != nil {
			for _, t := range f.log.EdgeTypes(src) {
				types[t] = true
			}
			continue
		}
		for _, ref := range f.shard.Edges().GetEdgeRecords(src) {
			types[ref.Type] = true
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

// mergeTo makes the global TimeOrder index cover [beg, end), end <= count:
// a k-way merge over the pieces' timestamp-sorted heads from base up, so
// what it reads of a piece is what the piece gives to [base, end) and one
// entry more. A read below base starts the merge over from TimeOrder 0.
// Equal timestamps go to the earlier piece, then the lower physical index
// — the order a stable sort of the pieces laid end to end gives, of which
// any merge is a run.
func (r *EdgeRecord) mergeTo(beg, end int) error {
	if beg < r.base {
		r.seed(0, make([]int, len(r.pieces)))
	}
	end -= r.base
	if len(r.merged) >= end {
		return nil
	}
	type pieceHead struct {
		ts    int64
		ok    bool
		fresh bool // ts, ok describe the piece's current next
	}
	heads := make([]pieceHead, len(r.pieces))
	for len(r.merged) < end {
		best := -1
		for pi := range heads {
			h := &heads[pi]
			if !h.fresh {
				h.ts, h.ok = r.pieces[pi].head()
				h.fresh = true
			}
			if h.ok && (best < 0 || h.ts < heads[best].ts) {
				best = pi
			}
		}
		if best < 0 {
			return fmt.Errorf("store: edge record (%d,%d) holds %d live edges, not %d", r.Src, r.Type, r.base+len(r.merged), r.count)
		}
		r.merged = append(r.merged, mergedEntry{best, r.pieces[best].next})
		r.pieces[best].next++
		heads[best].fresh = false
	}
	return nil
}

// seed drops what is merged and places the merge at TimeOrder base, piece
// i resuming at physical index next[i]. Exactly base live edges must sort
// before those indices.
func (r *EdgeRecord) seed(base int, next []int) {
	r.base, r.merged = base, r.merged[:0]
	for pi := range r.pieces {
		r.pieces[pi].next = next[pi]
	}
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
// edge at the given TimeOrder (§2.2's get_edge_data): the one-edge case
// of GetEdgeDataRange.
func (r *EdgeRecord) GetEdgeData(timeOrder int) (layout.EdgeData, error) {
	if timeOrder < 0 || timeOrder >= r.count {
		return layout.EdgeData{}, fmt.Errorf("store: time order %d out of range [0,%d)", timeOrder, r.count)
	}
	out, err := r.GetEdgeDataRange(timeOrder, timeOrder+1)
	if err != nil {
		return layout.EdgeData{}, err
	}
	return out[0], nil
}

// GetEdgeDataRange returns GetEdgeData(i) for every TimeOrder i in
// [beg, end), in order — the get_edge_data loop of Algorithms 1–3 as one
// call. An empty interval is nil; it fails where GetEdgeData(i) would. A
// single clean compressed piece is read in one record walk. A fragmented
// record is merged up to end — from TimeOrder 0, or from where
// GetEdgeRange placed the merge when beg is not below that — and what
// [beg, end) takes from a compressed piece, consecutive live entries of
// it, is read in one record walk over that physical run.
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
	if err := r.mergeTo(beg, end); err != nil {
		return nil, err
	}
	window := r.merged[beg-r.base : end-r.base]
	type run struct {
		lo, hi int // physical indices [lo, hi) of the piece; hi is 0 if it gives nothing
		data   []layout.EdgeData
	}
	runs := make([]run, len(r.pieces))
	for _, m := range window {
		rn := &runs[m.piece]
		if rn.hi == 0 {
			rn.lo = m.idx
		}
		rn.hi = m.idx + 1
	}
	for pi := range runs {
		rn, p := &runs[pi], &r.pieces[pi]
		if p.shard == nil || rn.hi == 0 {
			continue
		}
		var err error
		if rn.data, err = p.shard.Edges().GetEdgeDataRange(&p.ref, rn.lo, rn.hi); err != nil {
			return nil, err
		}
	}
	out := make([]layout.EdgeData, 0, end-beg)
	for _, m := range window {
		if p := &r.pieces[m.piece]; p.shard == nil {
			e := p.edges[m.idx]
			out = append(out, layout.EdgeData{Dst: e.Dst, Timestamp: e.Timestamp, Props: copyProps(e.Props)})
		} else {
			d := runs[m.piece].data[m.idx-runs[m.piece].lo]
			recordSuccinctEdgeData(d, nil)
			out = append(out, d)
		}
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
// expressed as tLo=0, tHi=math.MaxInt64 by callers. The TimeOrder of the
// first edge at or after a bound is the number of live edges before the
// bound, piece by piece, so nothing is merged: a compressed piece answers
// from a binary search of its timestamp column, less its deletion marks.
//
// Each piece's count below tLo is also where the piece joins a merge that
// starts at beg, so unless what is merged already reaches beg the merge
// is placed there: GetEdgeDataRange over the window then reads of each
// piece what the window takes from it, whatever lies before.
func (r *EdgeRecord) GetEdgeRange(tLo, tHi int64) (beg, end int) {
	var buf [8]int
	lows := buf[:0] // per piece, the physical index of its first edge at or after tLo
	for pi := range r.pieces {
		p := &r.pieces[pi]
		if p.shard == nil {
			b, e := edgeSliceWindow(p.edges, tLo, tHi)
			beg, end = beg+b, end+e
			lows = append(lows, b)
			continue
		}
		b, e := p.shard.Edges().TimeRange(&p.ref, tLo, tHi)
		beg, end = beg+b, end+e
		lows = append(lows, b)
		for i := range p.deleted {
			if i < b {
				beg--
			}
			if i < e {
				end--
			}
		}
	}
	if beg < r.base || beg > r.base+len(r.merged) {
		r.seed(beg, lows)
	}
	return beg, end
}

// edgeSliceWindow binary-searches a timestamp-sorted edge slice for the
// half-open index range with timestamps in [tLo, tHi).
func edgeSliceWindow(es []layout.Edge, tLo, tHi int64) (int, int) {
	beg := sort.Search(len(es), func(i int) bool { return es[i].Timestamp >= tLo })
	end := sort.Search(len(es), func(i int) bool { return es[i].Timestamp >= tHi })
	return beg, end
}

// copyProps defensively copies an edge property map out of the live
// log's entry (compressed pieces decode fresh maps already).
func copyProps(m map[string]string) map[string]string {
	if len(m) == 0 {
		return nil
	}
	cp := make(map[string]string, len(m))
	for k, v := range m {
		cp[k] = v
	}
	return cp
}

// Destinations returns the destination IDs of all live edges in
// TimeOrder: each compressed piece's destination column, laid out by the
// full merge.
func (r *EdgeRecord) Destinations() []layout.NodeID {
	if p, ok := r.singleCleanPiece(); ok {
		return p.shard.Edges().Destinations(&p.ref)
	}
	if r.mergeTo(0, r.count) != nil {
		return nil
	}
	dsts := make([][]layout.NodeID, len(r.pieces))
	out := make([]layout.NodeID, 0, r.count)
	for _, m := range r.merged {
		p := &r.pieces[m.piece]
		if p.shard == nil {
			out = append(out, p.edges[m.idx].Dst)
			continue
		}
		if dsts[m.piece] == nil {
			dsts[m.piece] = p.shard.Edges().Destinations(&p.ref)
		}
		if m.idx < len(dsts[m.piece]) {
			out = append(out, dsts[m.piece][m.idx])
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
	seen := make(map[layout.NodeID]bool)
	var out []layout.NodeID
	for _, r := range s.edgeRecords(src, etype) {
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
