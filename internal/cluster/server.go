// Package cluster implements distributed ZipG (§4.1): graph data is
// hash-partitioned across servers; each server hosts its shards plus an
// aggregator that executes queries locally and ships subqueries to the
// servers owning remote data (function shipping, Figure 4). Queries that
// need one node's data go to its owner; neighbor queries with property
// filters ship batched property checks to the neighbors' owners;
// get_node_ids fans out to every server.
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

type neighborsArgs struct {
	ID    graphapi.NodeID
	EType graphapi.EdgeType
	Props map[string]string
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

// ServerConfig parameterizes one cluster server.
type ServerConfig struct {
	// ID is this server's index in [0, NumServers).
	ID int
	// NumServers is the cluster size.
	NumServers int
	// ShardsPerServer is the store's shard count (paper: one per core).
	ShardsPerServer int
	// SamplingRate is Succinct's α.
	SamplingRate int
	// LogStoreThreshold triggers local LogStore rollover.
	LogStoreThreshold int64
	// BackgroundCompaction has this server's background worker, not
	// the writer that crossed the threshold, compress a rolled-over
	// LogStore. Implied by CompactAfterRollovers.
	BackgroundCompaction bool
	// CompactAfterRollovers, when positive, is the tier fan-in of the
	// background worker's generation merges (see zipg.Options); the
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
	s.registerMultiLevel()
	s.registerTemporal()
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

func (s *Server) registerHandlers() {
	s.rpc.Handle("NodeProps", func(ctx context.Context, blob []byte) (any, error) {
		var a nodePropsArgs
		if err := rpc.DecodeArgsCtx(ctx, blob, &a); err != nil {
			return nil, err
		}
		// The store read becomes a child span with its own fine-grained
		// logstore/succinct_walk phase split.
		vals, ok := s.store.GetNodePropsCtx(ctx, a.ID, a.PIDs)
		return &nodePropsReply{Vals: vals, OK: ok}, nil
	})
	s.rpc.Handle("MatchBatch", func(ctx context.Context, blob []byte) (any, error) {
		var a matchBatchArgs
		if err := rpc.DecodeArgsCtx(ctx, blob, &a); err != nil {
			return nil, err
		}
		// A shipped batch checks many independent nodes, which the
		// store fans out on the shared pool. The whole batch is one
		// succinct_walk phase on the serve span.
		defer telemetry.PhaseFromContext(ctx, "succinct_walk")()
		if telemetry.Enabled() {
			mBatchRequestsCluster.Add(int64(len(a.IDs)))
		}
		return &matchesReply{Matches: s.store.NodeMatchesBatch(a.IDs, a.Props)}, nil
	})
	s.rpc.Handle("FindNodes", func(ctx context.Context, blob []byte) (any, error) {
		var a propsArgs
		if err := rpc.DecodeArgsCtx(ctx, blob, &a); err != nil {
			return nil, err
		}
		defer telemetry.PhaseFromContext(ctx, "succinct_walk")()
		return &idsReply{IDs: s.store.FindNodes(a.Props)}, nil
	})
	s.rpc.Handle("Neighbors", func(ctx context.Context, blob []byte) (any, error) {
		var a neighborsArgs
		if err := rpc.DecodeArgsCtx(ctx, blob, &a); err != nil {
			return nil, err
		}
		ids, err := s.neighborsCtx(ctx, a.ID, a.EType, a.Props)
		return &idsReply{IDs: ids}, err
	})
	s.rpc.Handle("RecMeta", func(ctx context.Context, blob []byte) (any, error) {
		var a recArgs
		if err := rpc.DecodeArgsCtx(ctx, blob, &a); err != nil {
			return nil, err
		}
		defer telemetry.PhaseFromContext(ctx, "succinct_walk")()
		rec, ok := s.store.GetEdgeRecord(a.ID, a.EType)
		if !ok {
			return &recMetaReply{}, nil
		}
		return &recMetaReply{Count: rec.Count(), OK: true}, nil
	})
	s.rpc.Handle("RecsMeta", func(ctx context.Context, blob []byte) (any, error) {
		var a recArgs
		if err := rpc.DecodeArgsCtx(ctx, blob, &a); err != nil {
			return nil, err
		}
		defer telemetry.PhaseFromContext(ctx, "succinct_walk")()
		reply := &recsMetaReply{}
		for _, rec := range s.store.GetEdgeRecords(a.ID) {
			reply.Types = append(reply.Types, rec.Type)
			reply.Counts = append(reply.Counts, rec.Count())
		}
		return reply, nil
	})
	s.rpc.Handle("RecRange", func(ctx context.Context, blob []byte) (any, error) {
		var a recRangeArgs
		if err := rpc.DecodeArgsCtx(ctx, blob, &a); err != nil {
			return nil, err
		}
		defer telemetry.PhaseFromContext(ctx, "succinct_walk")()
		rec, ok := s.store.GetEdgeRecord(a.ID, a.EType)
		if !ok {
			return &rangeReply{}, nil
		}
		beg, end := rec.GetEdgeRange(a.Lo, a.Hi)
		return &rangeReply{Beg: beg, End: end}, nil
	})
	// ReadEdges is the record read of Algorithms 1–3 shipped whole: the
	// record is located once and the query's edges leave in one reply.
	s.rpc.Handle("ReadEdges", func(ctx context.Context, blob []byte) (any, error) {
		var a readEdgesArgs
		if err := rpc.DecodeArgsCtx(ctx, blob, &a); err != nil {
			return nil, err
		}
		defer telemetry.PhaseFromContext(ctx, "succinct_walk")()
		edges, err := s.store.ReadEdges(a.ID, a.EType, a.Query)
		if err != nil {
			return nil, err
		}
		return &edgesReply{Edges: edges}, nil
	})
	s.rpc.Handle("RecDsts", func(ctx context.Context, blob []byte) (any, error) {
		var a recArgs
		if err := rpc.DecodeArgsCtx(ctx, blob, &a); err != nil {
			return nil, err
		}
		defer telemetry.PhaseFromContext(ctx, "succinct_walk")()
		rec, ok := s.store.GetEdgeRecord(a.ID, a.EType)
		if !ok {
			return &idsReply{}, nil
		}
		return &idsReply{IDs: rec.Destinations()}, nil
	})
	s.rpc.Handle("AppendNode", func(ctx context.Context, blob []byte) (any, error) {
		var a appendNodeArgs
		if err := rpc.DecodeArgsCtx(ctx, blob, &a); err != nil {
			return nil, err
		}
		defer telemetry.PhaseFromContext(ctx, "logstore")()
		return nil, s.store.AppendNode(a.ID, a.Props)
	})
	s.rpc.Handle("AppendEdge", func(ctx context.Context, blob []byte) (any, error) {
		var e edgeArgs
		if err := rpc.DecodeArgsCtx(ctx, blob, &e); err != nil {
			return nil, err
		}
		defer telemetry.PhaseFromContext(ctx, "logstore")()
		return nil, s.store.AppendEdge(layout.Edge(e))
	})
	s.rpc.Handle("DeleteNode", func(ctx context.Context, blob []byte) (any, error) {
		var a recArgs
		if err := rpc.DecodeArgsCtx(ctx, blob, &a); err != nil {
			return nil, err
		}
		defer telemetry.PhaseFromContext(ctx, "logstore")()
		s.store.DeleteNode(a.ID)
		return nil, nil
	})
	s.rpc.Handle("DeleteEdges", func(ctx context.Context, blob []byte) (any, error) {
		var a deleteEdgesArgs
		if err := rpc.DecodeArgsCtx(ctx, blob, &a); err != nil {
			return nil, err
		}
		defer telemetry.PhaseFromContext(ctx, "logstore")()
		return &countReply{N: s.store.DeleteEdges(a.Src, a.Type, a.Dst)}, nil
	})
}

// neighborsCtx executes get_neighbor_ids at the owner: destinations
// come from the local edge records; property/liveness checks for remote
// neighbors are shipped in one batch per owning server (Figure 4's
// "Carol & Dan's cities?" fan-out). ctx carries the caller's trace (the
// serve span when the query arrived over RPC), so the fan-out's
// MatchBatch calls become traced children on the remote servers.
func (s *Server) neighborsCtx(ctx context.Context, id graphapi.NodeID, etype graphapi.EdgeType, props map[string]string) (_ []graphapi.NodeID, retErr error) {
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
	// Reading the edge records and their destination lists is the local
	// Ψ-walk part of the query.
	endWalk := sp.Phase("succinct_walk")
	var records []*store.EdgeRecord
	if etype < 0 {
		records = s.store.GetEdgeRecords(id)
	} else if rec, ok := s.store.GetEdgeRecord(id, etype); ok {
		records = []*store.EdgeRecord{rec}
	}
	if len(records) == 0 {
		endWalk()
		return nil, nil
	}
	seen := make(map[graphapi.NodeID]bool)
	perOwner := make(map[int][]graphapi.NodeID)
	var dups int64
	for _, rec := range records {
		for _, dst := range rec.Destinations() {
			if seen[dst] {
				dups++
				continue
			}
			seen[dst] = true
			perOwner[OwnerOf(dst, s.cfg.NumServers)] = append(perOwner[OwnerOf(dst, s.cfg.NumServers)], dst)
		}
	}
	// Sort each owner's candidates: sorted IDs group co-located shard
	// records into runs, which the batch executor turns into one
	// locality-ordered sweep per shard — and shipped batches become
	// deterministic on the wire.
	for _, ids := range perOwner {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	endWalk()
	if telemetry.Enabled() {
		mBatchDedup.Add(dups)
		localIDs, remoteIDs, remoteOwners := 0, 0, 0
		for owner, ids := range perOwner {
			if owner == s.cfg.ID {
				localIDs += len(ids)
				mSubqLocal.Inc()
			} else {
				remoteIDs += len(ids)
				remoteOwners++
				mSubqRemote.Inc()
			}
		}
		mFanout.Observe(int64(remoteOwners))
		sp.SetFanout(remoteOwners, localIDs, remoteIDs)
	}
	// Ship every remote batch first so RPC round trips are in flight
	// while the local subquery runs on the shared pool — the aggregator
	// overlap of §4.1 (remote owners work in parallel with this server).
	var out []graphapi.NodeID
	var mu sync.Mutex
	var wg sync.WaitGroup
	errCh := make(chan error, len(perOwner))
	for owner, ids := range perOwner {
		if owner == s.cfg.ID {
			continue
		}
		wg.Add(1)
		go func(owner int, ids []graphapi.NodeID) {
			defer wg.Done()
			peer, err := s.peer(owner)
			if err != nil {
				errCh <- err
				return
			}
			// CallCtx gives each shipped batch its own rpc.call child
			// span (safe concurrently — phases land on the child, never
			// on the shared parent) and re-propagates the deadline.
			var reply matchesReply
			if err := peer.CallCtx(ctx, "MatchBatch", &matchBatchArgs{IDs: ids, Props: props}, &reply); err != nil {
				errCh <- err
				return
			}
			mu.Lock()
			for i, ok := range reply.Matches {
				if ok {
					out = append(out, ids[i])
				}
			}
			mu.Unlock()
		}(owner, ids)
	}
	if local := perOwner[s.cfg.ID]; len(local) > 0 {
		// One phase for the whole local batch.
		endLocal := sp.Phase("succinct_walk")
		if telemetry.Enabled() {
			mBatchRequestsCluster.Add(int64(len(local)))
		}
		matches := s.store.NodeMatchesBatch(local, props)
		endLocal()
		mu.Lock()
		for i, ok := range matches {
			if ok {
				out = append(out, local[i])
			}
		}
		mu.Unlock()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return nil, err
	default:
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}
