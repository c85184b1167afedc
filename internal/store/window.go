package store

import (
	"sort"

	"zipg/internal/layout"
	"zipg/internal/telemetry"
)

// Windowed edge scans.
//
// A temporal query asks for the edges of (src, etype) with timestamps
// in [tLo, tHi). A node's record may be fragmented across the primary
// shard, frozen generations and the live LogStore; each compressed
// piece carries the hot-field header's [TsMin, TsMax] span (PR 5), so
// a window that misses a piece entirely skips it without touching the
// compressed timestamp array at all — the pruning the temporal bench
// measures. Pieces the window overlaps are binary-searched (compressed
// pieces and sealed/live log entries are both timestamp-sorted), and
// only the in-window entries are materialized, minus lazy deletion
// marks and tombstones. The merged output is globally timestamp-sorted
// with fragment order (generation order) breaking ties, matching the
// EdgeRecord TimeOrder semantics.

// Temporal scan counters. Consulted counts every fragment piece a
// windowed scan considered; pruned counts the subset skipped whole via
// the hot-header span; scanned counts edge entries examined inside
// non-pruned pieces.
var (
	mTemporalPieces = telemetry.NewCounter("zipg_temporal_pieces_total",
		"Fragment pieces consulted by windowed scans (incl. pruned).")
	mTemporalShardsPruned = telemetry.NewCounter("zipg_temporal_shards_pruned_total",
		"Fragment pieces skipped whole by the hot-header timestamp span.")
	mTemporalEdgesScanned = telemetry.NewCounter("zipg_temporal_edges_scanned_total",
		"Edge entries examined by windowed scans after pruning.")
)

// WindowStats reports how one windowed scan spent its work.
type WindowStats struct {
	// Pieces is the number of fragment pieces holding (src, etype) data.
	Pieces int
	// Pruned is how many of them the hot-header span skipped whole.
	Pruned int
	// Scanned is the edge entries examined in the remaining pieces.
	Scanned int
}

func (w *WindowStats) add(o WindowStats) {
	w.Pieces += o.Pieces
	w.Pruned += o.Pruned
	w.Scanned += o.Scanned
}

// record publishes the scan's work onto the temporal counters.
func (w WindowStats) record() {
	if !telemetry.Enabled() {
		return
	}
	mTemporalPieces.Add(int64(w.Pieces))
	mTemporalShardsPruned.Add(int64(w.Pruned))
	mTemporalEdgesScanned.Add(int64(w.Scanned))
}

// EdgesInWindow returns the live edges of (src, etype) with timestamps
// in [tLo, tHi), globally timestamp-sorted (fragment order breaks
// ties), plus the scan's pruning stats. Deleted nodes yield nil.
func (s *Store) EdgesInWindow(src layout.NodeID, etype layout.EdgeType, tLo, tHi int64) ([]layout.EdgeData, WindowStats) {
	var stats WindowStats
	s.mu.RLock()
	rec, ok := s.getEdgeRecordLocked(src, etype)
	s.mu.RUnlock()
	if !ok || tLo >= tHi {
		stats.record()
		return nil, stats
	}
	var out []layout.EdgeData
	for pi := range rec.pieces {
		p := &rec.pieces[pi]
		stats.Pieces++
		if p.shard == nil {
			beg, end := edgeSliceWindow(p.edges, tLo, tHi)
			stats.Scanned += end - beg
			for _, e := range p.edges[beg:end] {
				out = append(out, layout.EdgeData{Dst: e.Dst, Timestamp: e.Timestamp, Props: copyProps(e.Props)})
			}
			continue
		}
		if lo, hi, ok := p.ref.HotSpan(); ok && (tHi <= lo || tLo > hi) {
			stats.Pruned++
			continue
		}
		beg, end, err := p.shard.Edges().TimeRange(&p.ref, tLo, tHi)
		if err != nil {
			continue
		}
		stats.Scanned += end - beg
		// One record walk over the piece's in-window run; a piece that
		// cannot be read gives the scan nothing.
		data, _ := p.shard.Edges().GetEdgeDataRange(&p.ref, beg, end)
		for i, d := range data {
			if p.deleted[beg+i] {
				continue
			}
			recordSuccinctEdgeData(d, nil)
			out = append(out, d)
		}
	}
	// Pieces were walked in fragment (generation) order and each is
	// timestamp-sorted internally, so a stable sort by timestamp yields
	// the EdgeRecord TimeOrder.
	sort.SliceStable(out, func(i, j int) bool { return out[i].Timestamp < out[j].Timestamp })
	stats.record()
	return out, stats
}

// CountInWindow returns how many live edges of (src, etype) carry
// timestamps in [tLo, tHi). Pieces the span prunes — and clean pieces
// the window fully covers — are answered from metadata without
// materializing any edge data.
func (s *Store) CountInWindow(src layout.NodeID, etype layout.EdgeType, tLo, tHi int64) (int, WindowStats) {
	var stats WindowStats
	s.mu.RLock()
	rec, ok := s.getEdgeRecordLocked(src, etype)
	s.mu.RUnlock()
	if !ok || tLo >= tHi {
		stats.record()
		return 0, stats
	}
	count := 0
	for pi := range rec.pieces {
		p := &rec.pieces[pi]
		stats.Pieces++
		if p.shard == nil {
			beg, end := edgeSliceWindow(p.edges, tLo, tHi)
			count += end - beg
			continue
		}
		if lo, hi, ok := p.ref.HotSpan(); ok && (tHi <= lo || tLo > hi) {
			stats.Pruned++
			continue
		}
		beg, end, err := p.shard.Edges().TimeRange(&p.ref, tLo, tHi)
		if err != nil {
			continue
		}
		n := end - beg
		for i := range p.deleted {
			if i >= beg && i < end {
				n--
			}
		}
		count += n
	}
	stats.record()
	return count, stats
}

// WindowTypes returns every EdgeType with at least one live in-window
// edge incident on src, ascending — the wildcard-type entry point for
// temporal traversals.
func (s *Store) WindowTypes(src layout.NodeID) []layout.EdgeType {
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
	out := make([]layout.EdgeType, 0, len(types))
	for t := range types {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NeighborsInWindow returns the live neighbors reachable from src along
// any edge type through edges with timestamps in [tLo, tHi), sorted by
// ID. Deleted destinations are excluded (the NeighborIDs semantics);
// destination liveness it cannot resolve locally — remote nodes in a
// cluster — is the caller's concern.
func (s *Store) NeighborsInWindow(src layout.NodeID, tLo, tHi int64) ([]layout.NodeID, WindowStats) {
	var stats WindowStats
	seen := make(map[layout.NodeID]bool)
	var out []layout.NodeID
	for _, t := range s.WindowTypes(src) {
		edges, st := s.EdgesInWindow(src, t, tLo, tHi)
		stats.add(st)
		for _, d := range edges {
			if !seen[d.Dst] {
				seen[d.Dst] = true
				out = append(out, d.Dst)
			}
		}
	}
	if len(out) == 0 {
		return nil, stats
	}
	s.mu.RLock()
	kept := out[:0]
	for _, id := range out {
		if !s.deletedNodes[id] {
			kept = append(kept, id)
		}
	}
	s.mu.RUnlock()
	sort.Slice(kept, func(i, j int) bool { return kept[i] < kept[j] })
	return kept, stats
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
