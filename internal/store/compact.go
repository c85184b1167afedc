package store

import (
	"fmt"
	"maps"
	"math"
	"runtime"
	"sort"

	"zipg/internal/core"
	"zipg/internal/layout"
	"zipg/internal/parallel"
	"zipg/internal/telemetry"
)

// Compact is the periodic garbage collection of §4.1: it merges every
// fragment — the primary shards, all frozen generations and the live
// LogStore — into fresh primary shards, physically dropping
// lazily-deleted nodes and edges and resetting every update pointer.
// After compaction each node's data is whole again (FragmentsOf returns
// 1 for every node) and reads touch exactly one shard.
//
// Compaction is online: the store's write lock is held only for two
// brief windows (both observed into zipg_compaction_pause_ns) —
//
//	Phase 1 (seal + snapshot): seal the live LogStore, snapshot the
//	  fragment set and the deletion state, and start delete-replay
//	  recording.
//	Phase 2 (rebuild, NO store lock): materialize the live graph from
//	  the snapshot and build fresh primary shards on the
//	  shared worker pool. Queries and writes proceed concurrently; the
//	  paper runs GC "in the background on dedicated capacity" — this is
//	  that, minus the dedicated capacity.
//	Phase 3 (swap): install the fresh primaries, drop the consumed
//	  generations, renumber the survivors (generations sealed during
//	  the rebuild), remap update pointers, and replay the deletes that
//	  arrived during the rebuild onto the fresh shards so nothing
//	  deleted is resurrected.
//
// Appends never need replay: an append lands in the live LogStore,
// which is by construction newer than every generation the rebuild
// consumed. Deletes do — a delete during the rebuild targets data the
// rebuild is busy baking into the fresh primaries — so they are
// recorded and re-applied at swap as lazy deletion marks.
//
// buildMu serializes Compact with the compression of sealed
// generations (compressOnePending): at most one build is in flight,
// which is what lets the one replay log attribute its entries to
// exactly one pending swap.
func (s *Store) Compact() error {
	s.buildMu.Lock()
	defer s.buildMu.Unlock()
	tm := telemetry.StartTimer()
	defer func() {
		mCompactions.Inc()
		tm.ObserveInto(mCompactionNs)
	}()

	// Phase 1: seal + snapshot under a brief write lock.
	pause := telemetry.StartTimer()
	s.mu.Lock()
	s.sealLogLocked() // not a rollover: bookkeeping internal to this compaction
	snap := s.snapshotForCompactLocked()
	s.startReplayLocked()
	s.mu.Unlock()
	pause.ObserveInto(mCompactionPauseNs)

	// Phase 2: rebuild outside the store lock.
	fresh, err := snap.build(s)
	if err != nil {
		s.mu.Lock()
		s.stopReplayLocked()
		s.mu.Unlock()
		return err
	}

	// Phase 3: swap under a brief write lock.
	pause = telemetry.StartTimer()
	s.mu.Lock()
	s.swapCompactedLocked(snap, fresh)
	s.mu.Unlock()
	pause.ObserveInto(mCompactionPauseNs)
	return nil
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

// compactSnapshot is the fragment-epoch a rebuild runs against: the
// fragment set as of the seal, with the deletion state copied so
// concurrent deletes can't leak into the materialized graph mid-pass.
// (Deletes that reach a sealed log of it mid-pass are replayed.)
type compactSnapshot struct {
	primaries    []*core.Shard
	gens         []fragment // the generations the rebuild consumes
	deletedNodes map[layout.NodeID]bool
	deletedPhys  map[shardEdgeRef]map[int]bool
}

// snapshotForCompactLocked captures the rebuild's input epoch: every
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
// fresh primary shards on the shared pool. No store lock is held.
func (c *compactSnapshot) build(s *Store) ([]*core.Shard, error) {
	nodes, edges, err := c.materialize(s)
	if err != nil {
		return nil, err
	}
	partNodes := make([][]layout.Node, s.cfg.NumShards)
	partEdges := make([][]layout.Edge, s.cfg.NumShards)
	for _, n := range nodes {
		p := s.partitionOf(n.ID)
		partNodes[p] = append(partNodes[p], n)
	}
	for _, e := range edges {
		p := s.partitionOf(e.Src)
		partEdges[p] = append(partEdges[p], e)
	}
	fresh, err := parallel.MapErr("store.compact_shards", s.cfg.NumShards, func(p int) (*core.Shard, error) {
		sh, err := core.Build(partNodes[p], partEdges[p], s.nodeSchema, s.edgeSchema,
			core.Options{SamplingRate: s.cfg.SamplingRate, Medium: s.cfg.Medium})
		if err != nil {
			return nil, fmt.Errorf("store: compact shard %d: %w", p, err)
		}
		return sh, nil
	})
	if err != nil {
		return nil, err
	}
	return fresh, nil
}

// swapCompactedLocked installs the rebuilt primaries: drop the
// consumed generations, renumber the survivors, remap update pointers
// and replay the deletes recorded during the rebuild. Callers hold
// s.mu.
func (s *Store) swapCompactedLocked(snap *compactSnapshot, fresh []*core.Shard) {
	cut := len(snap.gens)
	s.primaries = fresh
	// Generations sealed during the rebuild survive, renumbered down by
	// cut, and so does the live log.
	s.gens = append([]fragment(nil), s.gens[cut:]...)
	for id, gens := range s.ptrs {
		var ng []int
		for _, g := range gens {
			if g >= cut {
				ng = append(ng, g-cut)
			}
		}
		if len(ng) == 0 {
			delete(s.ptrs, id)
		} else {
			s.ptrs[id] = ng
		}
	}
	// Deletion state: everything the rebuild consumed was filtered
	// during materialize, so only marks shadowing *post-snapshot* data
	// survive — node deletes recorded during the rebuild (if still in
	// force) and physical marks on shards still referenced.
	edgeDels, nodeDels := s.stopReplayLocked()
	deletedNodes := make(map[layout.NodeID]bool)
	for id := range nodeDels {
		if s.deletedNodes[id] {
			deletedNodes[id] = true
		}
	}
	s.deletedNodes = deletedNodes
	liveShards := make(map[*core.Shard]bool, len(fresh)+len(s.gens))
	for _, sh := range fresh {
		liveShards[sh] = true
	}
	for _, f := range s.gens {
		liveShards[f.shard] = true
	}
	for key := range s.deletedPhys {
		if !liveShards[key.shard] {
			delete(s.deletedPhys, key)
		}
	}
	// Replay: deletes that arrived during the rebuild targeted data the
	// rebuild was baking into the fresh primaries; re-apply them there
	// as lazy marks. (Data appended after the seal lives in newer
	// fragments, which the delete already handled directly — replay
	// touches only the fresh shard of the source's partition, so it
	// cannot kill a re-append.)
	for _, t := range edgeDels {
		s.markShardEdgesLocked(fresh[s.partitionOf(t.src)], t)
	}
	s.rolloversSinceCompact = 0
}

// markShardEdgesLocked lazily deletes every (src, etype, dst) edge
// held by one compressed shard and returns how many it newly marked.
// The record is located in the shard's build index, so what runs under
// the lock is a header parse and one extract of the destinations. The
// record's mark set is replaced, not added to: readers and a running
// build may hold the old one. Callers hold s.mu.
func (s *Store) markShardEdgesLocked(sh *core.Shard, t edgeTriple) int {
	ref, ok := sh.EdgeRecord(t.src, t.etype)
	if !ok {
		return 0
	}
	key := shardEdgeRef{sh, t.src, t.etype}
	old := s.deletedPhys[key]
	var marks map[int]bool
	for i, d := range sh.Edges().Destinations(&ref) {
		if d != t.dst || old[i] {
			continue
		}
		if marks == nil {
			marks = make(map[int]bool, len(old)+1)
			maps.Copy(marks, old)
		}
		marks[i] = true
	}
	if marks == nil {
		return 0
	}
	s.deletedPhys[key] = marks
	return len(marks) - len(old)
}

// materialize reconstructs the snapshot's live logical graph: every
// live node's current property list and every live edge. It runs
// against the immutable snapshot only — no store lock is held — and
// its output is deterministic: nodes ascend by ID, edges are sorted by
// (src, type, timestamp, dst) with collection order breaking ties, so
// two rebuilds of the same snapshot produce byte-identical shards.
func (c *compactSnapshot) materialize(s *Store) ([]layout.Node, []layout.Edge, error) {
	// Collect candidate node IDs from every fragment.
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
	// A node with edges but no property record anywhere still exists
	// (implicit endpoints); its edges are discovered below and need no
	// node record entry here beyond what resolution finds.

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

	// Edges: every (src, etype) record of every fragment, each read whole
	// in one record walk, honoring physical deletion marks (a sealed log
	// holds only live edges). A shard's records go in file order, a
	// batch at a time through one walk that steps on from each to the next.
	var edges []layout.Edge
	appendFromShard := func(sh *core.Shard) error {
		index := sh.EdgeIndex()
		const batch = 64
		reqs := make([]layout.EdgeRangeReq, 0, batch)
		for len(index) > 0 {
			runtime.Gosched() // see the node loop above
			n := min(batch, len(index))
			reqs = reqs[:0]
			for _, rec := range index[:n] {
				if !c.deletedNodes[rec.Src] {
					reqs = append(reqs, layout.EdgeRangeReq{Src: rec.Src, Type: rec.Type, Offset: rec.Offset, Limit: math.MaxInt32})
				}
			}
			index = index[n:]
			data, err := sh.Edges().GetEdgeRangeBatch(reqs)
			if err != nil {
				return fmt.Errorf("store: compact: %w", err)
			}
			for k, req := range reqs {
				deleted := c.deletedPhys[shardEdgeRef{sh, req.Src, req.Type}]
				for i, d := range data[k] {
					if !deleted[i] {
						edges = append(edges, layout.Edge{
							Src: req.Src, Dst: d.Dst, Type: req.Type,
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
			for _, e := range logEdges {
				if !c.deletedNodes[e.Src] {
					edges = append(edges, e)
				}
			}
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
		if edges[i].Timestamp != edges[j].Timestamp {
			return edges[i].Timestamp < edges[j].Timestamp
		}
		return edges[i].Dst < edges[j].Dst
	})
	return nodes, edges, nil
}

// resolveNode returns the newest live property map for id within the
// snapshot. Update pointers are not needed: generations are walked
// newest-first (every generation is newer than the primaries), so the
// first record found is the current version.
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
	return c.primaries[s.partitionOf(id)].Nodes().GetAllProps(id)
}
