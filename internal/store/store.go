// Package store implements the single-machine ZipG store: hash-
// partitioned compressed shards (§4.1), a single rolling LogStore for
// writes, fanned update pointers that route queries to exactly the
// fragments holding a node's data (§3.5), and lazy deletes.
//
// Mutable state (update pointers, deletion marks, the generations list)
// is guarded by one RWMutex; compressed shards are immutable and read
// lock-free — matching the paper's concurrency-control design (§4.1).
package store

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"zipg/internal/core"
	"zipg/internal/layout"
	"zipg/internal/logstore"
	"zipg/internal/memsim"
	"zipg/internal/parallel"
	"zipg/internal/telemetry"
)

// DefaultLogStoreThreshold is the LogStore size that triggers a freeze
// into a compressed shard. The paper used 8 GB on its clusters; the
// default here is scaled to this repository's MB-scale datasets.
const DefaultLogStoreThreshold = 4 << 20

// Config parameterizes a Store. It is the one declaration of ZipG's
// settings: zipg.Options is this type, and cluster.ServerConfig
// carries the same fields for one cluster server. The zero value is
// the default of every field.
type Config struct {
	// NumShards is the number of initial hash partitions (the paper's
	// default is one per core). 0 means 1.
	NumShards int
	// SamplingRate is Succinct's α for compressed shards' NodeFiles of
	// more than one property: larger is smaller but slower (0 =
	// succinct.DefaultSamplingRate, 32). α moves nothing else: an
	// EdgeFile is sampled at its property lists' starts, and a
	// one-property NodeFile at its records' delimiters.
	SamplingRate int
	// Medium places the store on a simulated storage hierarchy, which
	// the paper figures (internal/bench) use to model memory pressure
	// (nil = plain memory, no access accounting).
	Medium *memsim.Medium
	// LogStoreThreshold is the write-log size that seals the log for
	// compression into a new immutable shard (0 =
	// DefaultLogStoreThreshold, 4 MiB).
	LogStoreThreshold int64
	// DisableFannedUpdates makes reads consult every fragment instead of
	// following update pointers — the strawman §3.5 argues against.
	// Exists only for the ablation figure.
	DisableFannedUpdates bool
	// BackgroundCompaction chooses who compresses a sealed LogStore
	// generation. Sealing is always O(1); the shard is then built, with
	// no store lock held, by a background worker (true) or by the
	// writer whose append crossed the threshold (false). Implied by
	// CompactAfterRollovers.
	BackgroundCompaction bool
	// CompactAfterRollovers, when positive, is the tier fan-in of the
	// background worker's merges: once that many compressed generations
	// of one tier stand next to each other they become one generation
	// of the next tier (1 counts as 2), so a node's data lies in a
	// logarithmic number of pieces. The primaries are rebuilt (Compact)
	// only once the generations' bytes and the deletes on the primaries
	// add up to them (fullCompactionDue).
	CompactAfterRollovers int
}

type shardEdgeRef struct {
	shard *core.Shard
	src   layout.NodeID
	etype layout.EdgeType
}

// edgeTriple names one logical delete target: every (src, etype, dst)
// edge. It keys the replay log a build applies at swap.
type edgeTriple struct {
	src   layout.NodeID
	etype layout.EdgeType
	dst   layout.NodeID
}

// fragment is one piece of the store: a compressed shard or a LogStore
// — the live one, or a sealed one awaiting compression. Exactly one
// field is non-nil. A shard never changes; a LogStore takes deletes in
// place under its own lock, and the live one appends too. Every change
// to s.gens replaces the whole slice (copy-on-write), so readers may
// snapshot the slice header under RLock and keep using it lock-free.
// A compressed generation has a tier: 0 for a compressed rollover, t+1
// for the merge of a run of tier-t generations (mergeTier).
type fragment struct {
	shard *core.Shard
	log   *logstore.LogStore
	tier  int
}

// Store is a complete single-machine ZipG instance.
type Store struct {
	cfg        Config
	nodeSchema *layout.PropertySchema
	edgeSchema *layout.PropertySchema

	// buildMu serializes heavyweight rebuilds: compression of sealed
	// generations, tier merges and online compactions. At most one build
	// is in flight, which is what lets the delete-replay log attribute
	// its entries to exactly one pending swap.
	buildMu sync.Mutex

	mu sync.RWMutex
	// primaries are the current hash partitions. The slice is replaced
	// wholesale (never mutated in place) so read paths may snapshot it
	// under RLock and use it lock-free.
	primaries []*core.Shard
	// gens are the generations in order, COW: rolled-over LogStores
	// (sealed, or since compressed into shards), the live LogStore last.
	gens         []fragment
	ptrs         map[layout.NodeID][]int // update pointers: node -> generations
	deletedNodes map[layout.NodeID]bool
	// deletedPhys holds lazily deleted edge positions in shards. A mark
	// set is replaced, never added to, so readers may hold one lock-free.
	deletedPhys map[shardEdgeRef]map[int]bool

	// Delete-replay state for the single in-flight build (see buildMu),
	// set and cleared only by startReplayLocked/stopReplayLocked:
	// deletes that land while a build reads an older snapshot are
	// recorded here and re-applied to the freshly built shards at swap,
	// so a build never resurrects deleted data.
	replaying      bool
	replayEdgeDels []edgeTriple
	replayNodeDels map[layout.NodeID]bool

	rollovers int
	// primaryEdges is how many edges the primaries were built with: the
	// full-rebuild trigger's measure of them (fullCompactionDue). Not
	// saved; a loaded store runs no worker.
	primaryEdges int

	// events is the change-event state: per-partition sequence counters,
	// bounded tail rings and observers (see events.go). Mutated under
	// s.mu so event order matches mutation visibility order.
	events eventLog

	// bg is the background compaction worker (nil unless enabled).
	bg        *backgroundCompactor
	closeOnce sync.Once
}

// New builds a store over the initial graph, hash-partitioning nodes (and
// their incident edges) across cfg.NumShards compressed shards.
func New(nodes []layout.Node, edges []layout.Edge, nodeSchema, edgeSchema *layout.PropertySchema, cfg Config) (*Store, error) {
	if cfg.NumShards <= 0 {
		cfg.NumShards = 1
	}
	if cfg.LogStoreThreshold <= 0 {
		cfg.LogStoreThreshold = DefaultLogStoreThreshold
	}
	if cfg.CompactAfterRollovers == 1 {
		cfg.CompactAfterRollovers = 2 // a run of one generation would merge into itself
	}
	s := &Store{
		cfg:          cfg,
		nodeSchema:   nodeSchema,
		edgeSchema:   edgeSchema,
		ptrs:         make(map[layout.NodeID][]int),
		deletedNodes: make(map[layout.NodeID]bool),
		deletedPhys:  make(map[shardEdgeRef]map[int]bool),
	}
	s.events.init(cfg.NumShards)

	// Count, then fill: a partition is allocated once, at its size.
	nodeCount, edgeCount := make([]int, cfg.NumShards), make([]int, cfg.NumShards)
	for _, n := range nodes {
		nodeCount[s.partitionOf(n.ID)]++
	}
	for _, e := range edges {
		edgeCount[s.partitionOf(e.Src)]++
	}
	partNodes := make([][]layout.Node, cfg.NumShards)
	partEdges := make([][]layout.Edge, cfg.NumShards)
	for p := range partNodes {
		partNodes[p] = make([]layout.Node, 0, nodeCount[p])
		partEdges[p] = make([]layout.Edge, 0, edgeCount[p])
	}
	for _, n := range nodes {
		p := s.partitionOf(n.ID)
		partNodes[p] = append(partNodes[p], n)
	}
	for _, e := range edges {
		// All edge data for a node is co-located with the node (§4.1).
		p := s.partitionOf(e.Src)
		partEdges[p] = append(partEdges[p], e)
	}
	// Independent shards compress concurrently (each suffix-array build
	// stays sequential internally); the paper builds one shard per core.
	shards, err := parallel.MapErr("store.build_shards", cfg.NumShards, func(p int) (*core.Shard, error) {
		sh, err := s.buildShard(partNodes[p], partEdges[p])
		if err != nil {
			return nil, fmt.Errorf("store: shard %d: %w", p, err)
		}
		return sh, nil
	})
	if err != nil {
		return nil, err
	}
	s.primaries, s.primaryEdges = shards, len(edges)
	s.gens = []fragment{{log: logstore.New(nodeSchema, edgeSchema, cfg.Medium)}}
	if cfg.BackgroundCompaction || cfg.CompactAfterRollovers > 0 {
		s.bg = startBackground(s)
	}
	return s, nil
}

// Close stops the background compaction worker (if any) and waits for
// an in-flight rebuild to finish. Safe to call multiple times; a store
// without background compaction needs no Close.
func (s *Store) Close() {
	s.closeOnce.Do(func() {
		if s.bg != nil {
			s.bg.stop()
		}
		// Wait out any rebuild still holding the build lock.
		s.buildMu.Lock()
		s.buildMu.Unlock() //nolint:staticcheck // barrier, not a critical section
	})
}

// partitionOf returns the primary shard index for a node ID. The
// inlined FNV-1a (layout.IDHash) is bit-identical to the hash/fnv
// hasher this used to allocate per call.
func (s *Store) partitionOf(id layout.NodeID) int {
	return int(layout.IDHash(id) % uint32(s.cfg.NumShards))
}

// buildShard compresses nodes and edges into one shard at the store's α.
func (s *Store) buildShard(nodes []layout.Node, edges []layout.Edge) (*core.Shard, error) {
	return core.Build(nodes, edges, s.nodeSchema, s.edgeSchema,
		core.Options{SamplingRate: s.cfg.SamplingRate, Medium: s.cfg.Medium})
}

// NodeSchema returns the node property schema.
func (s *Store) NodeSchema() *layout.PropertySchema { return s.nodeSchema }

// EdgeSchema returns the edge property schema.
func (s *Store) EdgeSchema() *layout.PropertySchema { return s.edgeSchema }

// curGenLocked returns the live LogStore's generation. Callers hold s.mu.
func (s *Store) curGenLocked() int { return len(s.gens) - 1 }

// addPtrLocked records that gen holds data for node id.
func (s *Store) addPtrLocked(id layout.NodeID, gen int) {
	gens := s.ptrs[id]
	for _, g := range gens {
		if g == gen {
			return
		}
	}
	s.ptrs[id] = append(gens, gen)
}

// AppendNode inserts a new node or replaces an existing node's property
// list (Table 1's append(nodeID, PropertyList); updates are
// delete-followed-by-append per §3.5, which this implements atomically).
// Validation and serialization-size accounting run outside any lock.
func (s *Store) AppendNode(id layout.NodeID, props map[string]string) error {
	mOpAppendNode.Inc()
	put, err := logstore.PrepareNodePut(s.nodeSchema, id, props)
	if err != nil {
		return err
	}
	s.commit([]logstore.Put{put}, 0)
	return nil
}

// AppendEdge appends one edge (Table 1's append(nodeID, edgeType,
// edgeRecord)). Endpoints that have no node record yet get an empty one
// — the shared semantics across every system in this repository (Neo4j
// and Titan both auto-create endpoints) — published ahead of the edge
// in the same commit. The lookup here runs without the store lock; an
// endpoint it finds absent is looked up again under it (commit).
func (s *Store) AppendEdge(e layout.Edge) error {
	mOpAppendEdge.Inc()
	edge, err := logstore.PrepareEdgePut(s.edgeSchema, e)
	if err != nil {
		return err
	}
	ends := []layout.NodeID{e.Src, e.Dst}
	if e.Dst == e.Src {
		ends = ends[:1]
	}
	puts := make([]logstore.Put, 0, 3)
	for _, id := range ends {
		if s.HasNode(id) {
			continue
		}
		node, err := logstore.PrepareNodePut(s.nodeSchema, id, nil)
		if err != nil {
			return err
		}
		puts = append(puts, node)
	}
	s.commit(append(puts, edge), len(puts))
	return nil
}

// commit publishes prepared puts in order under one acquisition of the
// store lock. The LogStore append and the update-pointer write must
// share it: a rollover sneaking between them would freeze the data into
// generation g while the pointer records g+1, losing the write. It
// cannot fail — every fallible step ran in logstore.Prepare*Put.
//
// The first ends puts are the empty endpoint records AppendEdge
// prepared for nodes it found absent without the lock. Each is dropped
// if its node has a record by now: a node appended in between keeps its
// properties, as if it had been appended before the edge.
func (s *Store) commit(puts []logstore.Put, ends int) {
	stall := telemetry.StartTimer()
	s.mu.Lock()
	for i := ends - 1; i >= 0; i-- {
		if s.hasNodeLocked(puts[i].NodeID) {
			puts = slices.Delete(puts, i, i+1)
		}
	}
	gen := s.curGenLocked()
	live := s.gens[gen].log
	live.ApplyPuts(puts)
	for i := range puts {
		p := &puts[i]
		if p.IsNode {
			delete(s.deletedNodes, p.NodeID)
			s.addPtrLocked(p.NodeID, gen)
		} else {
			s.addPtrLocked(p.Edge.Src, gen)
		}
	}
	// One event per record, inside the critical section that made the
	// records visible: subscribers see them contiguously and in order.
	s.emitLocked(s.eventsForPuts(puts))
	sealed := live.Size() >= s.cfg.LogStoreThreshold
	if sealed {
		s.sealLogLocked()
		s.rollovers++
		mRollovers.Inc()
	}
	s.mu.Unlock()
	stall.ObserveInto(mWriteStallNs)
	mCommits.Inc()
	mCommitRecords.Add(int64(len(puts)))
	if !sealed {
		return
	}
	// The rollover's build runs with the store lock released — on the
	// worker if there is one, else here: this writer pays for the shard
	// its append completed and nobody else waits for it.
	if s.bg != nil {
		s.bg.kick()
		return
	}
	for s.compressOnePending() {
	}
}

// DeleteNode lazily deletes a node: reads of its properties and edges
// miss from now on. Re-appending the node restores it (and any edges
// that were not individually deleted).
func (s *Store) DeleteNode(id layout.NodeID) {
	mOpDeleteNode.Inc()
	s.mu.Lock()
	s.deletedNodes[id] = true
	for _, f := range s.fragmentsOfLocked(id) {
		if f.log != nil {
			f.log.RemoveNode(id)
		}
	}
	if s.replaying {
		s.replayNodeDels[id] = true
	}
	// Tombstone event under the same lock that made the delete visible:
	// subscribers (and Catchup replay) observe deletes in exactly the
	// order readers started missing the node.
	s.emitLocked([]Event{{Part: s.partitionOf(id), Kind: EvNodeDel, Node: id}})
	s.mu.Unlock()
}

// DeleteEdges deletes all (src, etype, dst) edges (Table 1's
// delete(nodeID, edgeType, destinationID)): LogStore entries, sealed or
// live, are removed in place; compressed fragments get lazy per-position
// deletion marks.
func (s *Store) DeleteEdges(src layout.NodeID, etype layout.EdgeType, dst layout.NodeID) int {
	mOpDeleteEdges.Inc()
	t := edgeTriple{src, etype, dst}
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	for _, f := range s.fragmentsOfLocked(src) {
		if f.log != nil {
			removed += f.log.RemoveEdges(src, etype, dst)
		} else {
			removed += markShardEdges(s.deletedPhys, f.shard, t)
		}
	}
	if s.replaying {
		// A build is reading an older snapshot; record the delete so the
		// swap re-applies it to the fresh shards.
		s.replayEdgeDels = append(s.replayEdgeDels, t)
	}
	s.emitLocked([]Event{{
		Part: s.partitionOf(src), Kind: EvEdgeDel, Node: src,
		Edge: layout.Edge{Src: src, Type: etype, Dst: dst},
	}})
	return removed
}

// fragmentsOfLocked returns the fragments that may hold data for a
// node, oldest first: its primary shard, then every generation its
// update pointers name (or, with fanned updates disabled, every
// generation), the live log last. Callers hold s.mu.
func (s *Store) fragmentsOfLocked(id layout.NodeID) []fragment {
	primary := fragment{shard: s.primaries[s.partitionOf(id)]}
	if s.cfg.DisableFannedUpdates {
		return append([]fragment{primary}, s.gens...)
	}
	out := append(make([]fragment, 0, 1+len(s.ptrs[id])), primary)
	for _, g := range s.ptrs[id] {
		out = append(out, s.gens[g])
	}
	return out
}

// allFragmentsLocked returns every fragment in piece order: the
// primaries, then the generations, the live log last. Callers hold s.mu.
func (s *Store) allFragmentsLocked() []fragment {
	out := make([]fragment, 0, len(s.primaries)+len(s.gens))
	for _, sh := range s.primaries {
		out = append(out, fragment{shard: sh})
	}
	return append(out, s.gens...)
}

// sealLogLocked seals the live LogStore where it stands, O(1), and
// appends a fresh live log: the sealed log keeps its generation number,
// so update pointers stay valid. compressOnePending or a compaction
// turns it into a compressed shard later, with the store lock released;
// until then it takes no appends, only deletes. Callers hold s.mu.
func (s *Store) sealLogLocked() {
	gens := make([]fragment, len(s.gens), len(s.gens)+1)
	copy(gens, s.gens)
	s.gens = append(gens, fragment{log: logstore.New(s.nodeSchema, s.edgeSchema, s.cfg.Medium)})
}

// Rollovers returns how many LogStore freezes have happened.
func (s *Store) Rollovers() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rollovers
}

// NumFragments returns the total number of fragments (primary shards +
// generations, the live LogStore among them).
func (s *Store) NumFragments() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.primaries) + len(s.gens)
}

// FragmentsOf returns how many fragments hold data for node id (1 for
// the primary + one per update-pointer generation). This is the quantity
// Figures 10 and 11 plot.
func (s *Store) FragmentsOf(id layout.NodeID) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return 1 + len(s.ptrs[id])
}

// CompressedFootprint returns the total compressed bytes across all
// shards plus the LogStores' accounted sizes.
func (s *Store) CompressedFootprint() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var total int64
	for _, f := range s.allFragmentsLocked() {
		if f.log != nil {
			total += f.log.Size()
		} else {
			total += int64(f.shard.CompressedSize())
		}
	}
	return total
}

// RawSize returns the uncompressed flat-file bytes of the initial shards
// (the denominator of Figure 5's footprint ratio).
func (s *Store) RawSize() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var total int64
	for _, sh := range s.primaries {
		total += int64(sh.RawSize())
	}
	return total
}

// GetNodeProps returns the values of the given properties for node id
// (nil propertyIDs = wildcard: every schema property). The lookup
// consults only the fragments the node's update pointers name — the
// fanned-updates read path.
func (s *Store) GetNodeProps(id layout.NodeID, propertyIDs []string) ([]string, bool) {
	return s.GetNodePropsCtx(context.Background(), id, propertyIDs)
}

// GetNodePropsCtx is GetNodeProps under a trace context: when ctx
// carries an active span (a cluster serve span, say), the read becomes
// a child span in that trace with its time attributed to the logstore
// and succinct_walk phases; otherwise it behaves exactly like
// GetNodeProps (local sampling decision).
func (s *Store) GetNodePropsCtx(ctx context.Context, id layout.NodeID, propertyIDs []string) ([]string, bool) {
	// The disabled path stays free of timers, spans and counter loads —
	// one atomic flag read is the whole overhead.
	if !telemetry.Enabled() {
		return s.getNodeProps(id, propertyIDs, nil)
	}
	// Latency is timed only on span-sampled queries: two time.Now calls
	// per op would dominate the instrumentation budget on a ~µs read,
	// and sampled observations give the same p50/p95/p99. Counters and
	// the fragments histogram still see every operation.
	sp, _ := telemetry.StartSpanCtx(ctx, "store.get_node_props")
	var tm telemetry.Timer
	if sp != nil {
		tm = telemetry.StartTimer()
	}
	vals, ok := s.getNodeProps(id, propertyIDs, sp)
	mOpGetNodeProps.Inc()
	if sp != nil {
		tm.ObserveInto(mLatGetNodeProps)
		sp.End()
	}
	return vals, ok
}

// getNodeProps walks the node's fragments newest first and answers from
// the first that holds its record. A span lists the primary's partition
// among its shards when the primary answers.
func (s *Store) getNodeProps(id layout.NodeID, propertyIDs []string, sp *telemetry.Span) ([]string, bool) {
	s.mu.RLock()
	if s.deletedNodes[id] {
		s.mu.RUnlock()
		return nil, false
	}
	frags := s.fragmentsOfLocked(id)
	s.mu.RUnlock()

	for i := len(frags) - 1; ; i-- { // frags[0], the primary, always returns
		var vals []string
		var ok bool
		if log := frags[i].log; log != nil {
			endLog := sp.Phase("logstore")
			var props map[string]string
			props, ok = log.NodeProps(id)
			endLog()
			if ok {
				sp.MarkLogStore()
				vals = propsToValues(props, propertyIDs, s.nodeSchema)
			}
		} else {
			endWalk := sp.Phase("succinct_walk")
			vals, ok = frags[i].shard.Nodes().GetProperties(id, propertyIDs)
			endWalk()
			if ok {
				sp.MarkNodeFile()
				if i == 0 {
					sp.AddShard(s.partitionOf(id))
				}
				recordSuccinctRead(sp, vals)
			}
		}
		if ok || i == 0 {
			observeFragments(sp, len(frags)-i)
			return vals, ok
		}
	}
}

// observeFragments records the fragments-per-read distribution on
// span-sampled queries only (the same sampling as latency — see
// GetNodeProps); the distribution's shape and mean are what matters,
// and sampling keeps the per-read cost to one nil check.
func observeFragments(sp *telemetry.Span, consulted int) {
	if sp != nil {
		mFragmentsPerRead.Observe(int64(consulted))
	}
}

// recordSuccinctRead accounts bytes materialized out of a compressed
// shard, on both the global counter and the query's span.
func recordSuccinctRead(sp *telemetry.Span, vals []string) {
	if !telemetry.Enabled() {
		return
	}
	var n int64
	for _, v := range vals {
		n += int64(len(v))
	}
	mSuccinctBytes.Add(n)
	sp.AddBytes(n)
}

// GetAllNodeProps returns the node's full property map.
func (s *Store) GetAllNodeProps(id layout.NodeID) (map[string]string, bool) {
	vals, ok := s.GetNodeProps(id, nil)
	if !ok {
		return nil, false
	}
	props := make(map[string]string)
	for i, pid := range s.nodeSchema.IDs() {
		if vals[i] != "" {
			props[pid] = vals[i]
		}
	}
	return props, true
}

// propsToValues projects a property map onto the requested IDs (nil =
// all schema IDs in order).
func propsToValues(props map[string]string, propertyIDs []string, schema *layout.PropertySchema) []string {
	if len(propertyIDs) == 0 {
		propertyIDs = schema.IDs()
	}
	out := make([]string, len(propertyIDs))
	for i, pid := range propertyIDs {
		out[i] = props[pid]
	}
	return out
}

// pidScratch pools the property-ID slices NodeMatches builds; the
// FindNodes verification step and neighbor property filters call it once
// per candidate node, so the slice churn is worth recycling.
var pidScratch = sync.Pool{New: func() any { return new([]string) }}

// NodeMatches reports whether node id currently has every given
// property value (resolving the newest version of the node).
func (s *Store) NodeMatches(id layout.NodeID, props map[string]string) bool {
	return s.NodeMatchesCtx(context.Background(), id, props)
}

// NodeMatchesCtx is NodeMatches under a trace context (see
// GetNodePropsCtx).
func (s *Store) NodeMatchesCtx(ctx context.Context, id layout.NodeID, props map[string]string) bool {
	if len(props) == 0 {
		return true
	}
	sp := pidScratch.Get().(*[]string)
	pids := (*sp)[:0]
	for pid := range props {
		pids = append(pids, pid)
	}
	*sp = pids
	defer pidScratch.Put(sp)
	vals, ok := s.GetNodePropsCtx(ctx, id, pids)
	if !ok {
		return false
	}
	for i, pid := range pids {
		if vals[i] != props[pid] {
			return false
		}
	}
	return true
}

// FindNodes returns the IDs of all live nodes whose current properties
// match every pair (Table 1's get_node_ids). Per §4.1, this is the one
// query that must touch all fragments — so the per-fragment compressed
// searches fan out over the shared worker pool, as does the stale-match
// re-verification, with nothing but the fragment-set snapshot and the
// final merge running under the store lock. Results are deterministic
// across pool sizes: per-fragment hit lists come back in fragment order
// and the output is sorted by ID.
func (s *Store) FindNodes(props map[string]string) []layout.NodeID {
	if len(props) == 0 {
		return nil
	}
	mOpFindNodes.Inc()
	tm := telemetry.StartTimer()
	defer tm.ObserveInto(mLatFindNodes)
	s.mu.RLock()
	frags := s.allFragmentsLocked()
	s.mu.RUnlock()

	// One task per fragment; each collects hits into its own local
	// slice so the dedup below is a single merge pass.
	perFrag := parallel.Map("store.find_nodes", len(frags), func(i int) []layout.NodeID {
		if log := frags[i].log; log != nil {
			return log.FindNodes(props)
		}
		return frags[i].shard.Nodes().FindNodes(props)
	})
	seen := make(map[layout.NodeID]bool)
	var cands []layout.NodeID
	for _, ids := range perFrag {
		for _, id := range ids {
			if !seen[id] {
				seen[id] = true
				cands = append(cands, id)
			}
		}
	}
	// Verify each candidate against the node's current version outside
	// any lock: a match in an old fragment may be stale. Each check is
	// an independent fanned-updates read, so it fans out too.
	matched := parallel.Map("store.verify_nodes", len(cands), func(i int) bool {
		id := cands[i]
		s.mu.RLock()
		deleted := s.deletedNodes[id]
		s.mu.RUnlock()
		return !deleted && s.NodeMatches(id, props)
	})
	var out []layout.NodeID
	for i, ok := range matched {
		if ok {
			out = append(out, cands[i])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HasNode reports whether a live property record exists for id: the
// same fragments GetNodeProps would consult, asked through their
// in-memory indexes only — no record is decoded.
func (s *Store) HasNode(id layout.NodeID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.hasNodeLocked(id)
}

// hasNodeLocked is HasNode for callers that hold s.mu.
func (s *Store) hasNodeLocked(id layout.NodeID) bool {
	if s.deletedNodes[id] {
		return false
	}
	for _, f := range s.fragmentsOfLocked(id) {
		if f.log != nil && f.log.HasNode(id) || f.shard != nil && f.shard.Nodes().Contains(id) {
			return true
		}
	}
	return false
}

// edgeHit is one fragment-local edge-search match: the decoded edge
// plus, for a shard hit, the coordinates of its lazy-deletion mark.
type edgeHit struct {
	sh        *core.Shard // nil for a LogStore hit
	timeOrder int
	e         layout.Edge
}

// FindEdges returns every live edge whose property list matches all
// pairs exactly — the edge-property search §3.3 sketches as a NodeFile-
// style extension. Like FindNodes it touches every fragment, so the
// per-fragment compressed scans and edge-data decodes fan out over the
// shared pool against a snapshot of the fragment set; the store lock is
// held only for that snapshot and for one short deletion-filter pass at
// the end. (It used to be held across the entire multi-fragment scan,
// blocking every writer for the duration of a long search.)
func (s *Store) FindEdges(props map[string]string) []layout.Edge {
	if len(props) == 0 {
		return nil
	}
	mOpFindEdges.Inc()
	tm := telemetry.StartTimer()
	defer tm.ObserveInto(mLatFindEdges)
	s.mu.RLock()
	frags := s.allFragmentsLocked()
	s.mu.RUnlock()

	perFrag := parallel.Map("store.find_edges", len(frags), func(i int) []edgeHit {
		if log := frags[i].log; log != nil {
			es := log.FindEdges(props)
			hits := make([]edgeHit, 0, len(es))
			for _, e := range es {
				hits = append(hits, edgeHit{e: e})
			}
			return hits
		}
		sh := frags[i].shard
		var hits []edgeHit
		for _, m := range sh.Edges().FindEdges(props) {
			ref, ok := sh.Edges().GetEdgeRecord(m.Src, m.Type)
			if !ok {
				continue
			}
			d, err := sh.Edges().GetEdgeData(&ref, m.TimeOrder)
			if err != nil {
				continue
			}
			hits = append(hits, edgeHit{sh: sh, timeOrder: m.TimeOrder, e: layout.Edge{
				Src: m.Src, Dst: d.Dst, Type: m.Type,
				Timestamp: d.Timestamp, Props: d.Props,
			}})
		}
		return hits
	})

	s.mu.RLock()
	var out []layout.Edge
	for _, hits := range perFrag {
		for _, h := range hits {
			if s.deletedNodes[h.e.Src] {
				continue
			}
			if h.sh != nil && s.deletedPhys[shardEdgeRef{h.sh, h.e.Src, h.e.Type}][h.timeOrder] {
				continue
			}
			out = append(out, h.e)
		}
	}
	s.mu.RUnlock()
	// Stable sort on a (src, type, ts, dst) key over the fragment-ordered
	// hit lists: identical output at every pool size.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		if out[i].Type != out[j].Type {
			return out[i].Type < out[j].Type
		}
		if out[i].Timestamp != out[j].Timestamp {
			return out[i].Timestamp < out[j].Timestamp
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}
