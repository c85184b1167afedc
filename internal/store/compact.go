package store

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sort"

	"zipg/internal/core"
	"zipg/internal/layout"
	"zipg/internal/parallel"
	"zipg/internal/telemetry"
)

// Compact is the periodic garbage collection of §4.1: it merges every
// fragment — the primary shards, all frozen generations and the live
// LogStore — into fresh primary shards, physically dropping deleted
// edges and deleted nodes' records and resetting every update pointer,
// so each node's data is whole again (FragmentsOf returns 1). A deleted
// node's edges stay, shadowed by deletedNodes, for a re-append to
// find. The worker runs it only once writes and deletes have paid for
// it (fullCompactionDue); tier merges (mergeTier) bound the pieces
// until then.
//
// Compaction is online: under a brief lock, seal the live log, snapshot
// the fragments and deletion state and start the delete replay; with no
// lock, materialize the live graph and build fresh primaries on the
// shared pool; then swapReplayed. Appends never need replay — they land
// in the live log, newer than everything consumed. buildMu serializes
// every build, so the one replay log belongs to exactly one swap.
func (s *Store) Compact() error {
	s.buildMu.Lock()
	defer s.buildMu.Unlock()
	tm := telemetry.StartTimer()
	defer func() {
		mCompactions.Inc()
		tm.ObserveInto(mCompactionNs)
	}()

	pause := telemetry.StartTimer()
	s.mu.Lock()
	s.sealLogLocked() // not a rollover: bookkeeping internal to this compaction
	snap := s.snapshotForCompactLocked()
	s.startReplayLocked()
	s.mu.Unlock()
	pause.ObserveInto(mCompactionPauseNs)

	fresh, nEdges, shadowed, err := snap.build(s)
	if err != nil {
		s.abortReplay()
		return err
	}
	s.swapReplayed(func(src layout.NodeID) *core.Shard { return fresh[s.partitionOf(src)] }, func(nodeDels map[layout.NodeID]bool) {
		s.primaries, s.primaryEdges = fresh, nEdges
		s.spliceGensLocked(0, len(snap.gens), nil)
		// A node deleted in the snapshot has no record left, only the
		// edges it shadows; one deleted since may still have its record.
		maps.DeleteFunc(s.deletedNodes, func(id layout.NodeID, _ bool) bool {
			return !shadowed[id] && !nodeDels[id]
		})
	})
	return nil
}

// mergeTier is the size-tiered minor compaction: it merges the oldest
// run of CompactAfterRollovers adjacent compressed generations of one
// tier (a compressed rollover is tier 0) into one generation of the
// next tier, in the run's place — adjacent, so piece order and the lazy
// merge's tie rule hold. The primaries are not read: a written byte is
// rewritten about log_F(rollovers) times. materialize takes the newest
// record per node and every unmarked edge, deleted nodes' too:
// deletedNodes, left alone, still shadows them, and a re-append must
// find them as they were. False when no run is due or the build failed.
func (s *Store) mergeTier() bool {
	fanIn := s.cfg.CompactAfterRollovers
	if fanIn <= 0 {
		return false
	}
	s.buildMu.Lock()
	defer s.buildMu.Unlock()
	tm := telemetry.StartTimer()
	pause := telemetry.StartTimer()
	s.mu.Lock()
	g := s.tierRunLocked(fanIn)
	if g < 0 {
		s.mu.Unlock()
		return false
	}
	snap := &compactSnapshot{gens: s.gens[g : g+fanIn], deletedPhys: maps.Clone(s.deletedPhys)}
	s.startReplayLocked()
	s.mu.Unlock()
	pause.ObserveInto(mCompactionPauseNs)

	nodes, edges, err := snap.materialize(s)
	var sh *core.Shard
	if err == nil {
		sh, err = s.buildShard(nodes, edges)
	}
	if err != nil {
		s.abortReplay()
		return false
	}
	merged := fragment{shard: sh, tier: snap.gens[0].tier + 1}
	s.swapReplayed(func(layout.NodeID) *core.Shard { return sh }, func(map[layout.NodeID]bool) {
		// g still starts the run: only rollovers ran meanwhile, appending.
		s.spliceGensLocked(g, fanIn, []fragment{merged})
	})
	mCompactions.Inc()
	tm.ObserveInto(mCompactionNs)
	return true
}

// tierRunLocked returns where the oldest run of fanIn adjacent
// compressed generations of one tier starts, or -1. Merging the oldest
// keeps tiers non-increasing from old to new, so once nothing is due no
// tier holds fanIn generations. Callers hold s.mu.
func (s *Store) tierRunLocked(fanIn int) int {
	for g := 0; fanIn > 0 && g+fanIn <= len(s.gens); g++ {
		run := s.gens[g : g+fanIn]
		if !slices.ContainsFunc(run, func(f fragment) bool { return f.shard == nil || f.tier != run[0].tier }) {
			return g
		}
	}
	return -1
}

// fullCompactionDue reports whether a full rebuild has been paid for:
// the generations' raw bytes as a share of the primaries', plus the
// share of the primaries' nodes and edges deleted (the deleted nodes
// whose record a primary holds, and the position marks only a rebuild
// clears), reach one. A rebuild rewrites no more than was written or
// deleted since the last, and the marks every delete copies and every
// read filters stay a bounded share.
func (s *Store) fullCompactionDue() bool {
	if s.cfg.CompactAfterRollovers <= 0 {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	gens, prim, entries := 0, 0, s.primaryEdges
	for _, f := range s.gens {
		if f.shard != nil {
			gens += f.shard.RawSize()
		}
	}
	for _, sh := range s.primaries {
		prim += sh.RawSize()
		entries += sh.NumNodes()
	}
	dead := 0
	for id := range s.deletedNodes {
		if s.primaries[s.partitionOf(id)].Nodes().Contains(id) {
			dead++
		}
	}
	for key, set := range s.deletedPhys {
		if slices.Contains(s.primaries, key.shard) {
			dead += len(set)
		}
	}
	return gens+dead > 0 && float64(gens)*float64(entries)+float64(dead)*float64(prim) >= float64(prim)*float64(entries)
}

// startReplayLocked starts recording the deletes that land while a
// build reads its input off the store lock. Callers hold s.mu and
// buildMu.
func (s *Store) startReplayLocked() {
	s.replaying = true
	s.replayEdgeDels = nil
	s.replayNodeDels = make(map[layout.NodeID]bool)
}

// stopReplayLocked stops the recording and returns what it recorded.
// Callers hold s.mu and buildMu.
func (s *Store) stopReplayLocked() ([]edgeTriple, map[layout.NodeID]bool) {
	edges, nodes := s.replayEdgeDels, s.replayNodeDels
	s.replaying, s.replayEdgeDels, s.replayNodeDels = false, nil, nil
	return edges, nodes
}

// abortReplay stops the recording of a build that failed.
func (s *Store) abortReplay() {
	s.mu.Lock()
	s.stopReplayLocked()
	s.mu.Unlock()
}

// swapReplayed ends a build. Its fresh shards are unpublished, so it
// marks the edge deletes recorded since the snapshot on them (shardOf
// names a source's) with the lock released; under the lock it marks
// those recorded meanwhile, calls swap and installs the marks.
func (s *Store) swapReplayed(shardOf func(layout.NodeID) *core.Shard, swap func(nodeDels map[layout.NodeID]bool)) {
	marks := make(map[shardEdgeRef]map[int]bool)
	mark := func(dels []edgeTriple) {
		for _, t := range dels {
			markShardEdges(marks, shardOf(t.src), t)
		}
	}
	s.mu.Lock()
	dels := s.replayEdgeDels
	s.replayEdgeDels = nil
	s.mu.Unlock()
	mark(dels)

	pause := telemetry.StartTimer()
	s.mu.Lock()
	dels, nodeDels := s.stopReplayLocked()
	mark(dels)
	swap(nodeDels)
	maps.Copy(s.deletedPhys, marks)
	s.mu.Unlock()
	pause.ObserveInto(mCompactionPauseNs)
}

// spliceGensLocked replaces the n generations from g with merged (none,
// or the one they were merged into): pointers into the run name it or
// go, later ones move down (lists ascend, so one wholly below g stays),
// and the marks of shards that left go. Callers hold s.mu.
func (s *Store) spliceGensLocked(g, n int, merged []fragment) {
	gens := make([]fragment, 0, len(s.gens)-n+len(merged))
	s.gens = append(append(append(gens, s.gens[:g]...), merged...), s.gens[g+n:]...)
	for id, ptrs := range s.ptrs {
		if len(ptrs) > 0 && ptrs[len(ptrs)-1] < g {
			continue
		}
		np := ptrs[:0] // read only under s.mu, so rewritten in place
		for _, x := range ptrs {
			switch {
			case x >= g+n:
				x -= n - len(merged)
			case x < g:
			case len(merged) == 0:
				continue
			default:
				x = g
			}
			if len(np) == 0 || np[len(np)-1] != x {
				np = append(np, x)
			}
		}
		if len(np) == 0 {
			delete(s.ptrs, id)
		} else {
			s.ptrs[id] = np
		}
	}
	live := make(map[*core.Shard]bool, len(s.primaries)+len(s.gens))
	for _, sh := range s.primaries {
		live[sh] = true
	}
	for _, f := range s.gens {
		live[f.shard] = true
	}
	for key := range s.deletedPhys {
		if !live[key.shard] {
			delete(s.deletedPhys, key)
		}
	}
}

// compactSnapshot is the fragment-epoch a rebuild runs against: the
// fragment set as of the seal (a tier merge's run alone, with no
// primaries), with the deletion state copied so concurrent deletes
// can't leak into the materialized graph mid-pass.
type compactSnapshot struct {
	primaries    []*core.Shard
	gens         []fragment // the generations the rebuild consumes
	deletedNodes map[layout.NodeID]bool
	deletedPhys  map[shardEdgeRef]map[int]bool
}

// snapshotForCompactLocked captures a full rebuild's input epoch: every
// generation but the live log. The shard and fragment slices and each
// mark set are copy-on-write (safe to hold as-is); the deletion maps
// themselves are copied. Callers hold s.mu.
func (s *Store) snapshotForCompactLocked() *compactSnapshot {
	return &compactSnapshot{
		primaries:    s.primaries,
		gens:         s.gens[:s.curGenLocked()],
		deletedNodes: maps.Clone(s.deletedNodes),
		deletedPhys:  maps.Clone(s.deletedPhys),
	}
}

// build materializes the snapshot's live graph and compresses it into
// fresh primary shards on the shared pool. It says how many edges they
// hold, and which deleted nodes' edges are among them. No store lock is
// held.
func (c *compactSnapshot) build(s *Store) ([]*core.Shard, int, map[layout.NodeID]bool, error) {
	nodes, edges, err := c.materialize(s)
	if err != nil {
		return nil, 0, nil, err
	}
	partNodes := make([][]layout.Node, s.cfg.NumShards)
	partEdges := make([][]layout.Edge, s.cfg.NumShards)
	for _, n := range nodes {
		p := s.partitionOf(n.ID)
		partNodes[p] = append(partNodes[p], n)
	}
	shadowed := make(map[layout.NodeID]bool)
	for _, e := range edges {
		p := s.partitionOf(e.Src)
		partEdges[p] = append(partEdges[p], e)
		if c.deletedNodes[e.Src] {
			shadowed[e.Src] = true
		}
	}
	fresh, err := parallel.MapErr("store.compact_shards", s.cfg.NumShards, func(p int) (*core.Shard, error) {
		sh, err := s.buildShard(partNodes[p], partEdges[p])
		if err != nil {
			return nil, fmt.Errorf("store: compact shard %d: %w", p, err)
		}
		return sh, nil
	})
	return fresh, len(edges), shadowed, err
}

// markShardEdges lazily deletes, in marks, every (src, etype, dst) edge
// one compressed shard holds and returns how many it newly marked: a
// scan of the record's destination column, no compressed read. The mark
// set is replaced, not added to — readers and a running build may hold
// the old one. Callers hold s.mu when marks is s.deletedPhys.
func markShardEdges(marks map[shardEdgeRef]map[int]bool, sh *core.Shard, t edgeTriple) int {
	ref, ok := sh.Edges().GetEdgeRecord(t.src, t.etype)
	if !ok {
		return 0
	}
	key := shardEdgeRef{sh, t.src, t.etype}
	old := marks[key]
	var set map[int]bool
	for i, d := range sh.Edges().Destinations(&ref) {
		if d != t.dst || old[i] {
			continue
		}
		if set == nil {
			set = make(map[int]bool, len(old)+1)
			maps.Copy(set, old)
		}
		set[i] = true
	}
	if set == nil {
		return 0
	}
	marks[key] = set
	return len(set) - len(old)
}

// materialize reconstructs the snapshot's logical graph off the store
// lock: every live node's current property list, and every edge not
// deleted by position — a deleted node's too, as deletedNodes hides
// them only until the node is appended again. Its output is
// deterministic: nodes ascend by ID, and edges are collected oldest
// piece first in physical order and sorted stably by (src, type,
// timestamp), so equal timestamps keep the lazy merge's order (the
// earlier piece, then the lower index).
func (c *compactSnapshot) materialize(s *Store) ([]layout.Node, []layout.Edge, error) {
	ids := make(map[layout.NodeID]bool)
	for _, sh := range c.primaries {
		for _, id := range sh.Nodes().IDs() {
			ids[id] = true
		}
	}
	for _, f := range c.gens {
		if f.log != nil {
			logNodes, _ := f.log.Contents()
			for _, n := range logNodes {
				ids[n.ID] = true
			}
			continue
		}
		for _, id := range f.shard.Nodes().IDs() {
			ids[id] = true
		}
	}
	sorted := make([]layout.NodeID, 0, len(ids))
	for id := range ids {
		if !c.deletedNodes[id] {
			sorted = append(sorted, id)
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var nodes []layout.Node
	for i, id := range sorted {
		// The rebuild is a CPU-bound background pass racing foreground
		// queries; yield regularly so their latency stays bounded by the
		// gap between yields, not the scheduler's preemption quantum.
		if i&63 == 63 {
			runtime.Gosched()
		}
		props, ok := c.resolveNode(s, id)
		if !ok {
			continue
		}
		nodes = append(nodes, layout.Node{ID: id, Props: props})
	}

	// Edges: every (src, etype) record of every fragment, read whole and
	// less its deletion marks (a sealed log holds only live edges). A
	// shard's records go in file order, a batch at a time, the text of a
	// batch in one read.
	var edges []layout.Edge
	appendFromShard := func(sh *core.Shard) error {
		const batch = 64
		for lo, n := 0, sh.Edges().NumRecords(); lo < n; lo += batch {
			runtime.Gosched() // see the node loop above
			refs, data, err := sh.Edges().ReadRecords(lo, min(lo+batch, n))
			if err != nil {
				return fmt.Errorf("store: compact: %w", err)
			}
			for k, ref := range refs {
				deleted := c.deletedPhys[shardEdgeRef{sh, ref.Src, ref.Type}]
				for i, d := range data[k] {
					if !deleted[i] {
						edges = append(edges, layout.Edge{
							Src: ref.Src, Dst: d.Dst, Type: ref.Type,
							Timestamp: d.Timestamp, Props: d.Props,
						})
					}
				}
			}
		}
		return nil
	}
	for _, sh := range c.primaries {
		if err := appendFromShard(sh); err != nil {
			return nil, nil, err
		}
	}
	for _, f := range c.gens {
		if f.log != nil {
			_, logEdges := f.log.Contents()
			edges = append(edges, logEdges...)
			continue
		}
		if err := appendFromShard(f.shard); err != nil {
			return nil, nil, err
		}
	}
	sort.SliceStable(edges, func(i, j int) bool {
		if edges[i].Src != edges[j].Src {
			return edges[i].Src < edges[j].Src
		}
		if edges[i].Type != edges[j].Type {
			return edges[i].Type < edges[j].Type
		}
		return edges[i].Timestamp < edges[j].Timestamp
	})
	return nodes, edges, nil
}

// resolveNode returns the newest live property map for id within the
// snapshot: generations newest first, then the primary (if any).
func (c *compactSnapshot) resolveNode(s *Store, id layout.NodeID) (map[string]string, bool) {
	for g := len(c.gens) - 1; g >= 0; g-- {
		if log := c.gens[g].log; log != nil {
			if props, ok := log.NodeProps(id); ok {
				return props, true
			}
			continue
		}
		if props, ok := c.gens[g].shard.Nodes().GetAllProps(id); ok {
			return props, true
		}
	}
	if c.primaries == nil {
		return nil, false
	}
	return c.primaries[s.partitionOf(id)].Nodes().GetAllProps(id)
}
