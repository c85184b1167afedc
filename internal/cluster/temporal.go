package cluster

import (
	"context"
	"sync"

	"zipg/internal/graphapi"
	"zipg/internal/layout"
	"zipg/internal/rpc"
	"zipg/internal/telemetry"
	"zipg/internal/temporal"
)

// Distributed temporal queries (function shipping, §4.1 applied to the
// temporal engine). Windowed range/count queries touch one node's data,
// so they route to the owner and run on its local engine. Temporal
// reachability runs its BFS at the source's owner: each hop's frontier
// is split by owning server, local nodes expand on the local engine and
// every remote owner gets ONE WindowNbrs batch for its share — the same
// per-owner shipping shape as neighbor queries. Deleted nodes owned by
// remote servers may transiently enter a frontier (their liveness is
// only visible at their owner) but expand to nothing there, so they are
// inert dead-ends and the answer matches the single-machine engine.

// --- wire types ---

type windowArgs struct {
	ID     graphapi.NodeID
	EType  graphapi.EdgeType
	Lo, Hi int64
	Limit  int
}

type windowNbrsArgs struct {
	IDs    []graphapi.NodeID
	Lo, Hi int64
}

type windowNbrsReply struct {
	// Nbrs is index-aligned with the request's IDs.
	Nbrs [][]graphapi.NodeID
}

type pathArgs struct {
	Src, Dst graphapi.NodeID
	Lo, Hi   int64
	MaxHops  int
}

type pathReply struct {
	Found bool
	Hops  int
	Path  []graphapi.NodeID
}

// Temporal returns the server's temporal engine (the local subscribe
// surface; zipg-server wires it to the admin stream endpoint).
func (s *Server) Temporal() *temporal.Engine { return s.temp }

func (s *Server) registerTemporal() {
	s.rpc.Handle("TemporalRange", func(ctx context.Context, blob []byte) (any, error) {
		var a windowArgs
		if err := rpc.DecodeArgsCtx(ctx, blob, &a); err != nil {
			return nil, err
		}
		defer telemetry.PhaseFromContext(ctx, "succinct_walk")()
		return &edgesReply{Edges: s.temp.AssocTimeRange(a.ID, a.EType, a.Lo, a.Hi, a.Limit)}, nil
	})
	s.rpc.Handle("TemporalCount", func(ctx context.Context, blob []byte) (any, error) {
		var a windowArgs
		if err := rpc.DecodeArgsCtx(ctx, blob, &a); err != nil {
			return nil, err
		}
		defer telemetry.PhaseFromContext(ctx, "succinct_walk")()
		return &countReply{N: s.temp.AssocCountInWindow(a.ID, a.EType, a.Lo, a.Hi)}, nil
	})
	s.rpc.Handle("WindowNbrs", func(ctx context.Context, blob []byte) (any, error) {
		var a windowNbrsArgs
		if err := rpc.DecodeArgsCtx(ctx, blob, &a); err != nil {
			return nil, err
		}
		defer telemetry.PhaseFromContext(ctx, "succinct_walk")()
		reply := &windowNbrsReply{Nbrs: make([][]graphapi.NodeID, len(a.IDs))}
		for i, id := range a.IDs {
			reply.Nbrs[i] = s.store.NeighborsInWindow(id, a.Lo, a.Hi)
		}
		return reply, nil
	})
	s.rpc.Handle("PathInWindow", func(ctx context.Context, blob []byte) (any, error) {
		var a pathArgs
		if err := rpc.DecodeArgsCtx(ctx, blob, &a); err != nil {
			return nil, err
		}
		res, err := s.pathInWindowCtx(ctx, a)
		if err != nil {
			return nil, err
		}
		return &pathReply{Found: res.Found, Hops: res.Hops, Path: res.Path}, nil
	})
}

// pathInWindowCtx runs the distributed temporal BFS at this server (the
// source's owner acts as the aggregator). The destination's liveness is
// checked at its owner up front; each hop ships one frontier batch per
// remote owner while the local share expands on this engine.
func (s *Server) pathInWindowCtx(ctx context.Context, a pathArgs) (temporal.PathResult, error) {
	temporal.RecordPathQuery()
	tLo, tHi := graphapi.TimeBounds(a.Lo, a.Hi)
	if !s.store.HasNode(a.Src) {
		return temporal.PathResult{}, nil
	}
	if alive, err := s.hasNodeAt(ctx, a.Dst); err != nil {
		return temporal.PathResult{}, err
	} else if !alive {
		return temporal.PathResult{}, nil
	}
	if a.Src == a.Dst {
		return temporal.PathResult{Found: true, Hops: 0, Path: []graphapi.NodeID{a.Src}}, nil
	}
	var expandErr error
	expand := func(frontier []layout.NodeID) [][]layout.NodeID {
		out, err := s.expandWindowHop(ctx, frontier, tLo, tHi)
		if err != nil && expandErr == nil {
			expandErr = err
			return make([][]layout.NodeID, len(frontier))
		}
		return out
	}
	res := temporal.BFSInWindow(a.Src, a.Dst, a.MaxHops, expand)
	if expandErr != nil {
		return temporal.PathResult{}, expandErr
	}
	return res, nil
}

// hasNodeAt resolves node liveness at its owner (locally when owned
// here) via the existing NodeProps surface.
func (s *Server) hasNodeAt(ctx context.Context, id graphapi.NodeID) (bool, error) {
	owner := OwnerOf(id, s.cfg.NumServers)
	if owner == s.cfg.ID {
		return s.store.HasNode(id), nil
	}
	peer, err := s.peer(owner)
	if err != nil {
		return false, err
	}
	var reply nodePropsReply
	if err := peer.CallCtx(ctx, "NodeProps", &nodePropsArgs{ID: id}, &reply); err != nil {
		return false, err
	}
	return reply.OK, nil
}

// expandWindowHop returns each frontier node's in-window neighbors,
// index-aligned. Remote owners each get one batched WindowNbrs call, in
// flight while the local share runs.
func (s *Server) expandWindowHop(ctx context.Context, frontier []layout.NodeID, tLo, tHi int64) ([][]layout.NodeID, error) {
	out := make([][]layout.NodeID, len(frontier))
	perOwner := make(map[int][]int) // owner -> frontier indexes
	for i, id := range frontier {
		owner := OwnerOf(id, s.cfg.NumServers)
		perOwner[owner] = append(perOwner[owner], i)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, len(perOwner))
	for owner, idxs := range perOwner {
		if owner == s.cfg.ID {
			continue
		}
		wg.Add(1)
		go func(owner int, idxs []int) {
			defer wg.Done()
			peer, err := s.peer(owner)
			if err != nil {
				errCh <- err
				return
			}
			ids := make([]graphapi.NodeID, len(idxs))
			for j, fi := range idxs {
				ids[j] = frontier[fi]
			}
			var reply windowNbrsReply
			if err := peer.CallCtx(ctx, "WindowNbrs", &windowNbrsArgs{IDs: ids, Lo: tLo, Hi: tHi}, &reply); err != nil {
				errCh <- err
				return
			}
			for j, fi := range idxs {
				out[fi] = reply.Nbrs[j] // disjoint indexes: no lock needed
			}
		}(owner, idxs)
	}
	for _, fi := range perOwner[s.cfg.ID] {
		out[fi] = s.store.NeighborsInWindow(frontier[fi], tLo, tHi)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return nil, err
	default:
	}
	return out, nil
}

// --- client surface ---

// AssocTimeRange queries the in-window edges of (src, etype) at the
// owning server.
func (c *Client) AssocTimeRange(src graphapi.NodeID, etype graphapi.EdgeType, tLo, tHi int64, limit int) []layout.EdgeData {
	return c.AssocTimeRangeCtx(context.Background(), src, etype, tLo, tHi, limit)
}

// AssocTimeRangeCtx is AssocTimeRange under a trace context.
func (c *Client) AssocTimeRangeCtx(ctx context.Context, src graphapi.NodeID, etype graphapi.EdgeType, tLo, tHi int64, limit int) []layout.EdgeData {
	sp, ctx := telemetry.StartSpanCtx(ctx, "client.assoc_time_range")
	defer sp.End()
	var reply edgesReply
	if err := c.callRead(ctx, c.ownerOf(src), "TemporalRange", &windowArgs{ID: src, EType: etype, Lo: tLo, Hi: tHi, Limit: limit}, &reply); err != nil {
		sp.SetError(err)
		return nil
	}
	return reply.Edges
}

// AssocCountInWindow counts the in-window edges of (src, etype) at the
// owning server.
func (c *Client) AssocCountInWindow(src graphapi.NodeID, etype graphapi.EdgeType, tLo, tHi int64) int {
	sp, ctx := telemetry.StartSpanCtx(context.Background(), "client.assoc_count_in_window")
	defer sp.End()
	var reply countReply
	if err := c.callRead(ctx, c.ownerOf(src), "TemporalCount", &windowArgs{ID: src, EType: etype, Lo: tLo, Hi: tHi}, &reply); err != nil {
		sp.SetError(err)
		return 0
	}
	return reply.N
}

// PathInWindow asks the source's owner to run the distributed temporal
// BFS and returns its result.
func (c *Client) PathInWindow(src, dst graphapi.NodeID, tLo, tHi int64, maxHops int) temporal.PathResult {
	sp, ctx := telemetry.StartSpanCtx(context.Background(), "client.path_in_window")
	defer sp.End()
	var reply pathReply
	if err := c.callRead(ctx, c.ownerOf(src), "PathInWindow", &pathArgs{Src: src, Dst: dst, Lo: tLo, Hi: tHi, MaxHops: maxHops}, &reply); err != nil {
		sp.SetError(err)
		return temporal.PathResult{}
	}
	return temporal.PathResult{Found: reply.Found, Hops: reply.Hops, Path: reply.Path}
}
