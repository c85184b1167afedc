// Package cluster implements distributed ZipG (§4.1): graph data is
// hash-partitioned across servers; each server hosts its shards plus an
// aggregator that executes queries locally and ships subqueries to the
// servers owning remote data (function shipping, Figure 4). Queries that
// need one node's data go to its owner; neighbor queries with property
// filters ship batched property checks to the neighbors' owners;
// get_node_ids fans out to every server.
//
// Every hop of a traversal is one Expand per owner: the client splits a
// frontier by owning server, and an aggregator ships its remote share
// the same way.
//
// Servers speak the framed RPC of package rpc over TCP; the benchmark
// harness launches them in-process on loopback, which preserves the
// communication structure (round trips and fan-out counts) the paper's
// distributed experiments measure.
package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"zipg/internal/graphapi"
	"zipg/internal/layout"
	"zipg/internal/rpc"
	"zipg/internal/store"
	"zipg/internal/telemetry"
	"zipg/internal/temporal"
)

// OwnerOf returns the server owning a node's data: the same hash the
// single-machine store partitions shards by, applied at server
// granularity to the hash's high half. The store takes the whole hash
// modulo its shard count; were the owner the same hash modulo the
// server count, every node of server k in an n × n cluster would land
// in its shard k and the other shards would stay empty. Every routed
// query hashes at least one ID, so the FNV-1a mix is inlined
// (layout.IDHash) instead of allocating a hash/fnv hasher and a byte
// buffer per call.
func OwnerOf(id graphapi.NodeID, numServers int) int {
	return int((layout.IDHash(id) >> 16) % uint32(numServers))
}

// byOwner groups the indexes of ids by owning server, each group in
// ids' order.
func byOwner(ids []graphapi.NodeID, numServers int) map[int][]int {
	groups := make(map[int][]int)
	for i, id := range ids {
		o := OwnerOf(id, numServers)
		groups[o] = append(groups[o], i)
	}
	return groups
}

// pick returns ids[i] for every i of idx.
func pick(ids []graphapi.NodeID, idx []int) []graphapi.NodeID {
	out := make([]graphapi.NodeID, len(idx))
	for j, i := range idx {
		out[j] = ids[i]
	}
	return out
}

// fanOut runs call once per owner group: on a goroutine each, but the
// group of owner here (with none, any one group), which runs on the
// caller's goroutine while the others are in flight. Each call writes
// only its own indexes. It returns the first error.
func fanOut(groups map[int][]int, here int, call func(owner int, idx []int) error) error {
	if _, ok := groups[here]; !ok {
		for here = range groups {
			break
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(groups))
	for owner, idx := range groups {
		if owner == here {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := call(owner, idx); err != nil {
				errs <- err
			}
		}()
	}
	if idx, ok := groups[here]; ok {
		if err := call(here, idx); err != nil {
			errs <- err
		}
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// Telemetry series for the aggregator's function shipping (§4.1,
// Figure 4): how far neighbor queries fan out and how the per-owner
// subquery batches split between local execution and RPC shipping.
var (
	mFanout = telemetry.NewHistogram("zipg_cluster_fanout",
		"Remote servers shipped to per neighbor query (function shipping).")
	mSubqLocal = telemetry.NewCounterL("zipg_cluster_subqueries_total", `locality="local"`,
		"Per-owner subquery batches, by where they executed.")
	mSubqRemote = telemetry.NewCounterL("zipg_cluster_subqueries_total", `locality="remote"`,
		"Per-owner subquery batches, by where they executed.")
	mNeighborQueries = telemetry.NewCounter("zipg_cluster_neighbor_queries_total",
		"Neighbor queries executed at this aggregator.")
	mBatchDedup = telemetry.NewCounter("zipg_batch_dedup_total",
		"Duplicate candidate IDs eliminated before MatchBatch fan-out.")
	mBatchRequestsCluster = telemetry.NewCounterL("zipg_batch_requests_total", `layer="cluster"`,
		"Items requested through batch reads, by layer.")
)

// --- wire types ---

type nodePropsArgs struct {
	ID   graphapi.NodeID
	PIDs []string
}

type nodePropsReply struct {
	Vals []string
	OK   bool
}

type matchBatchArgs struct {
	IDs   []graphapi.NodeID
	Props map[string]string
}

// matchesReply is index-aligned with the request's IDs.
type matchesReply struct {
	Matches []bool
}

type propsArgs struct {
	Props map[string]string
}

// neighborsArgs asks for the union of a frontier's neighbors along
// EType whose properties match Props.
type neighborsArgs struct {
	IDs   []graphapi.NodeID
	EType graphapi.EdgeType
	Props map[string]string
}

// expandArgs is one hop of a traversal over the callee's share of a
// frontier (graphapi.Expander).
type expandArgs struct {
	IDs      []graphapi.NodeID
	EType    graphapi.EdgeType
	Query    graphapi.EdgeQuery
	WithData bool
}

// expandReply is index-aligned with the request's IDs.
type expandReply struct {
	Edges [][]graphapi.EdgeData
}

type recArgs struct {
	ID    graphapi.NodeID
	EType graphapi.EdgeType
}

type recMetaReply struct {
	Count int
	OK    bool
}

type recsMetaReply struct {
	Types  []graphapi.EdgeType
	Counts []int
}

// recRangeArgs names a record and a timestamp interval [Lo, Hi) of it.
type recRangeArgs struct {
	ID     graphapi.NodeID
	EType  graphapi.EdgeType
	Lo, Hi int64
}

// readEdgesArgs is one record read of Algorithms 1–3.
type readEdgesArgs struct {
	ID    graphapi.NodeID
	EType graphapi.EdgeType
	Query graphapi.EdgeQuery
}

type rangeReply struct {
	Beg, End int
}

type edgesReply struct {
	Edges []graphapi.EdgeData
}

type appendNodeArgs struct {
	ID    graphapi.NodeID
	Props map[string]string
}

// edgeArgs is layout.Edge as a type of this package, which can have a
// Wire method.
type edgeArgs layout.Edge

type deleteEdgesArgs struct {
	Src  graphapi.NodeID
	Type graphapi.EdgeType
	Dst  graphapi.NodeID
}

type idsReply struct {
	IDs []graphapi.NodeID
}

type countReply struct {
	N int
}

// ServerConfig parameterizes one cluster server: its place in the
// cluster, and the settings of its partition store, which NewServer
// copies to a store.Config (zipg.Options, where each is documented
// with its default), ShardsPerServer as the store's NumShards.
// LaunchConfig is this type.
type ServerConfig struct {
	// ID is this server's index in [0, NumServers).
	ID int
	// NumServers is the cluster size.
	NumServers int
	// ShardsPerServer is the store's shard count (paper: one per core).
	ShardsPerServer int
	// SamplingRate is Succinct's α for NodeFiles of more than one
	// property (store.Config.SamplingRate).
	SamplingRate int
	// LogStoreThreshold triggers local LogStore rollover.
	LogStoreThreshold int64
	// BackgroundCompaction has this server's background worker, not
	// the writer that crossed the threshold, compress a rolled-over
	// LogStore. Implied by CompactAfterRollovers.
	BackgroundCompaction bool
	// CompactAfterRollovers, when positive, is the tier fan-in of the
	// background worker's generation merges (see store.Config); the
	// primaries are rebuilt only once the generations and the deletes
	// on them add up to as much.
	CompactAfterRollovers int
}

// Server is one ZipG cluster server: a partition store plus the
// aggregator endpoint.
type Server struct {
	cfg   ServerConfig
	store *store.Store
	temp  *temporal.Engine
	rpc   *rpc.Server
	addr  string
	// unregisterReport withdraws this server's /debug/codecs report.
	unregisterReport func()

	peerMu sync.Mutex
	peers  []*rpc.Client // lazily dialed, indexed by server ID
	addrs  []string
}

// NewServer builds a server over its partition of the graph. nodes and
// edges must already be filtered to this server's partition (every
// node ID n with OwnerOf(n) == cfg.ID, and every edge whose Src it
// owns).
func NewServer(nodes []layout.Node, edges []layout.Edge, nodeSchema, edgeSchema *layout.PropertySchema, cfg ServerConfig) (*Server, error) {
	st, err := store.New(nodes, edges, nodeSchema, edgeSchema, store.Config{
		NumShards:             cfg.ShardsPerServer,
		SamplingRate:          cfg.SamplingRate,
		LogStoreThreshold:     cfg.LogStoreThreshold,
		BackgroundCompaction:  cfg.BackgroundCompaction,
		CompactAfterRollovers: cfg.CompactAfterRollovers,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: server %d: %w", cfg.ID, err)
	}
	s := &Server{cfg: cfg, store: st, temp: temporal.NewEngine(st), rpc: rpc.NewServer()}
	s.rpc.SetServerID(cfg.ID) // serve spans report which server they ran on
	s.registerHandlers()
	// The admin mux serves this store's region/α state at /debug/codecs
	// until the server closes (or a later server's report replaces it).
	s.unregisterReport = telemetry.RegisterAdminReport("codecs", func() string {
		return store.FormatCodecReport(st.CodecReport())
	})
	return s, nil
}

// Listen binds the server and returns its address.
func (s *Server) Listen(addr string) (string, error) {
	bound, err := s.rpc.Listen(addr)
	if err != nil {
		return "", err
	}
	s.addr = bound
	return bound, nil
}

// ConnectPeers supplies every server's address (including this one's)
// so the aggregator can ship subqueries.
func (s *Server) ConnectPeers(addrs []string) {
	s.peerMu.Lock()
	defer s.peerMu.Unlock()
	s.addrs = append([]string(nil), addrs...)
	s.peers = make([]*rpc.Client, len(addrs))
}

// peer returns a connection to server id, dialing lazily.
func (s *Server) peer(id int) (*rpc.Client, error) {
	s.peerMu.Lock()
	defer s.peerMu.Unlock()
	if s.peers[id] == nil {
		c, err := rpc.Dial(s.addrs[id])
		if err != nil {
			return nil, err
		}
		s.peers[id] = c
	}
	return s.peers[id], nil
}

// Close shuts the server down, stopping the store's background
// compaction worker (if any) after the RPC surface is gone.
func (s *Server) Close() {
	s.rpc.Close()
	s.peerMu.Lock()
	for _, p := range s.peers {
		if p != nil {
			p.Close()
		}
	}
	s.peerMu.Unlock()
	s.store.Close()
	s.unregisterReport()
}

// Store exposes the underlying partition store (for tests and stats).
func (s *Server) Store() *store.Store { return s.store }

// handle registers method: the call's args decode into a fresh A, h
// runs as the serve span's phase (none for ""), and its reply goes back
// encoded.
func handle[A any, PA interface {
	*A
	rpc.Wirer
}](s *Server, method, phase string, h func(ctx context.Context, a PA) (any, error)) {
	s.rpc.Handle(method, func(ctx context.Context, blob []byte) (any, error) {
		a := PA(new(A))
		if err := rpc.DecodeArgsCtx(ctx, blob, a); err != nil {
			return nil, err
		}
		if phase != "" {
			defer telemetry.PhaseFromContext(ctx, phase)()
		}
		return h(ctx, a)
	})
}

func (s *Server) registerHandlers() {
	// The store read becomes a child span with its own fine-grained
	// logstore/succinct_walk phase split.
	handle(s, "NodeProps", "", func(ctx context.Context, a *nodePropsArgs) (any, error) {
		vals, ok := s.store.GetNodePropsCtx(ctx, a.ID, a.PIDs)
		return &nodePropsReply{Vals: vals, OK: ok}, nil
	})
	// A shipped batch checks many independent nodes, which the store
	// fans out on the shared pool. The whole batch is one succinct_walk
	// phase on the serve span.
	handle(s, "MatchBatch", "succinct_walk", func(_ context.Context, a *matchBatchArgs) (any, error) {
		if telemetry.Enabled() {
			mBatchRequestsCluster.Add(int64(len(a.IDs)))
		}
		return &matchesReply{Matches: s.store.NodeMatchesBatch(a.IDs, a.Props)}, nil
	})
	handle(s, "FindNodes", "succinct_walk", func(_ context.Context, a *propsArgs) (any, error) {
		return &idsReply{IDs: s.store.FindNodes(a.Props)}, nil
	})
	handle(s, "Neighbors", "", func(ctx context.Context, a *neighborsArgs) (any, error) {
		ids, err := s.neighborsCtx(ctx, a.IDs, a.EType, a.Props)
		return &idsReply{IDs: ids}, err
	})
	handle(s, "RecMeta", "succinct_walk", func(_ context.Context, a *recArgs) (any, error) {
		rec, ok := s.store.GetEdgeRecord(a.ID, a.EType)
		if !ok {
			return &recMetaReply{}, nil
		}
		return &recMetaReply{Count: rec.Count(), OK: true}, nil
	})
	handle(s, "RecsMeta", "succinct_walk", func(_ context.Context, a *recArgs) (any, error) {
		reply := &recsMetaReply{}
		for _, rec := range s.store.GetEdgeRecords(a.ID) {
			reply.Types = append(reply.Types, rec.Type)
			reply.Counts = append(reply.Counts, rec.Count())
		}
		return reply, nil
	})
	handle(s, "RecRange", "succinct_walk", func(_ context.Context, a *recRangeArgs) (any, error) {
		rec, ok := s.store.GetEdgeRecord(a.ID, a.EType)
		if !ok {
			return &rangeReply{}, nil
		}
		beg, end := rec.GetEdgeRange(a.Lo, a.Hi)
		return &rangeReply{Beg: beg, End: end}, nil
	})
	// ReadEdges is the record read of Algorithms 1–3 shipped whole: the
	// record is located once and the query's edges leave in one reply.
	handle(s, "ReadEdges", "succinct_walk", func(_ context.Context, a *readEdgesArgs) (any, error) {
		edges, err := s.store.ReadEdges(a.ID, a.EType, a.Query)
		return &edgesReply{Edges: edges}, err
	})
	// Expand is one hop of a traversal over this server's share of a
	// frontier.
	handle(s, "Expand", "succinct_walk", func(_ context.Context, a *expandArgs) (any, error) {
		edges, err := s.store.Expand(a.IDs, a.EType, a.Query, a.WithData)
		return &expandReply{Edges: edges}, err
	})
	handle(s, "PathInWindow", "", func(ctx context.Context, a *pathArgs) (any, error) {
		res, err := s.pathInWindowCtx(ctx, *a)
		return &pathReply{Found: res.Found, Hops: res.Hops, Path: res.Path}, err
	})
	handle(s, "AppendNode", "logstore", func(_ context.Context, a *appendNodeArgs) (any, error) {
		return nil, s.store.AppendNode(a.ID, a.Props)
	})
	handle(s, "AppendEdge", "logstore", func(_ context.Context, e *edgeArgs) (any, error) {
		return nil, s.store.AppendEdge(layout.Edge(*e))
	})
	handle(s, "DeleteNode", "logstore", func(_ context.Context, a *recArgs) (any, error) {
		s.store.DeleteNode(a.ID)
		return nil, nil
	})
	handle(s, "DeleteEdges", "logstore", func(_ context.Context, a *deleteEdgesArgs) (any, error) {
		return &countReply{N: s.store.DeleteEdges(a.Src, a.Type, a.Dst)}, nil
	})
}

// ship runs one subquery per owner group of a frontier (byOwner): local
// with this server's share, on the caller's goroutine, and remote with a
// connection to each other owner, every RPC in flight while the local
// share runs — the aggregator overlap of §4.1. It returns the first
// error.
func (s *Server) ship(groups map[int][]int, local func(idx []int) error, remote func(peer *rpc.Client, idx []int) error) error {
	return fanOut(groups, s.cfg.ID, func(owner int, idx []int) error {
		if owner == s.cfg.ID {
			return local(idx)
		}
		peer, err := s.peer(owner)
		if err != nil {
			return err
		}
		return remote(peer, idx)
	})
}

// neighborsCtx executes get_neighbor_ids for a frontier at its owner:
// destinations come from one local Expand; property/liveness checks are
// shipped in one MatchBatch per owning server for the whole frontier
// (Figure 4's "Carol & Dan's cities?" fan-out). ctx carries the caller's
// trace (the serve span when the query arrived over RPC), so the
// fan-out's MatchBatch calls become traced children on the remote
// servers.
func (s *Server) neighborsCtx(ctx context.Context, frontier []graphapi.NodeID, etype graphapi.EdgeType, props map[string]string) (_ []graphapi.NodeID, retErr error) {
	mNeighborQueries.Inc()
	sp, ctx := telemetry.StartSpanCtx(ctx, "cluster.neighbors")
	sp.SetServer(s.cfg.ID)
	defer func() {
		if retErr != nil {
			sp.SetError(retErr)
			if sp == nil {
				telemetry.RecordErrorSpan("cluster.neighbors", time.Time{}, retErr)
			}
		}
		sp.End()
	}()
	// Reading the destinations is the local Ψ-walk part of the query.
	endWalk := sp.Phase("succinct_walk")
	hop, err := s.store.Expand(frontier, etype, graphapi.ByOrder(0, graphapi.NoLimit), false)
	if err != nil {
		endWalk()
		return nil, err
	}
	seen := make(map[graphapi.NodeID]bool)
	var cands []graphapi.NodeID
	var dups int64
	for _, edges := range hop {
		for _, e := range edges {
			if seen[e.Dst] {
				dups++
				continue
			}
			seen[e.Dst] = true
			cands = append(cands, e.Dst)
		}
	}
	// Sorted candidates make every owner's share sorted: sorted IDs group
	// co-located shard records into runs, which the batch executor turns
	// into one locality-ordered sweep per shard — and shipped batches
	// become deterministic on the wire.
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	endWalk()
	if len(cands) == 0 {
		return nil, nil
	}
	groups := byOwner(cands, s.cfg.NumServers)
	if telemetry.Enabled() {
		mBatchDedup.Add(dups)
		localIDs, remoteIDs, remoteOwners := 0, 0, 0
		for owner, idx := range groups {
			if owner == s.cfg.ID {
				localIDs += len(idx)
				mSubqLocal.Inc()
			} else {
				remoteIDs += len(idx)
				remoteOwners++
				mSubqRemote.Inc()
			}
		}
		mFanout.Observe(int64(remoteOwners))
		sp.SetFanout(remoteOwners, localIDs, remoteIDs)
	}
	keep := make([]bool, len(cands))
	err = s.ship(groups, func(idx []int) error {
		// One phase for the whole local batch.
		defer sp.Phase("succinct_walk")()
		if telemetry.Enabled() {
			mBatchRequestsCluster.Add(int64(len(idx)))
		}
		for j, ok := range s.store.NodeMatchesBatch(pick(cands, idx), props) {
			keep[idx[j]] = ok
		}
		return nil
	}, func(peer *rpc.Client, idx []int) error {
		// CallCtx gives each shipped batch its own rpc.call child span
		// (safe concurrently — phases land on the child, never on the
		// shared parent) and re-propagates the deadline.
		var reply matchesReply
		if err := peer.CallCtx(ctx, "MatchBatch", &matchBatchArgs{IDs: pick(cands, idx), Props: props}, &reply); err != nil {
			return err
		}
		if len(reply.Matches) != len(idx) {
			return fmt.Errorf("cluster: MatchBatch of %d nodes answered %d", len(idx), len(reply.Matches))
		}
		for j, ok := range reply.Matches {
			keep[idx[j]] = ok
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []graphapi.NodeID
	for i, ok := range keep {
		if ok {
			out = append(out, cands[i])
		}
	}
	return out, nil
}
