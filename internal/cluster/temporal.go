package cluster

import (
	"context"
	"fmt"

	"zipg/internal/graphapi"
	"zipg/internal/layout"
	"zipg/internal/rpc"
	"zipg/internal/telemetry"
	"zipg/internal/temporal"
)

// Distributed temporal queries (function shipping, §4.1 applied to the
// temporal engine). A windowed range is a ReadEdges of an InWindow query
// and a windowed count the width of RecRange, both at the owner.
// Temporal reachability runs its BFS at the source's owner: each hop's
// frontier is split by owning server, the local share is one store
// Expand and every remote owner gets ONE Expand call for its share — the
// same per-owner shipping as neighbor queries. Deleted nodes may enter a
// frontier (an edge to a node outlives the node; liveness is only known
// at its owner) but have no records, so they expand to nothing there:
// inert dead-ends. The destination's liveness is checked up front, so
// the answer matches the single-machine engine.

// --- wire types ---

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

// pathInWindowCtx runs the distributed temporal BFS at this server (the
// source's owner acts as the aggregator). The destination's liveness is
// checked at its owner up front; each hop ships one frontier batch per
// remote owner while the local share expands on this store.
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
	hop := graphapi.InWindow(tLo, tHi, graphapi.NoLimit)
	return temporal.BFSInWindow(a.Src, a.Dst, a.MaxHops, func(frontier []layout.NodeID) ([][]layout.EdgeData, error) {
		return s.expand(ctx, frontier, hop)
	})
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

// expand reads q of every record of each frontier node, destinations
// only, from this server: one store Expand of the local share, and one
// Expand call to each remote owner for its share, in flight while the
// local one runs.
func (s *Server) expand(ctx context.Context, frontier []layout.NodeID, q graphapi.EdgeQuery) ([][]layout.EdgeData, error) {
	out := make([][]layout.EdgeData, len(frontier))
	err := s.ship(byOwner(frontier, s.cfg.NumServers), func(idx []int) error {
		hop, err := s.store.Expand(pick(frontier, idx), graphapi.WildcardType, q, false)
		for j, edges := range hop {
			out[idx[j]] = edges
		}
		return err
	}, func(peer *rpc.Client, idx []int) error {
		var reply expandReply
		if err := peer.CallCtx(ctx, "Expand", &expandArgs{IDs: pick(frontier, idx), EType: graphapi.WildcardType, Query: q}, &reply); err != nil {
			return err
		}
		if len(reply.Edges) != len(idx) {
			return fmt.Errorf("cluster: Expand of %d nodes answered %d", len(idx), len(reply.Edges))
		}
		for j, edges := range reply.Edges {
			out[idx[j]] = edges
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// --- client surface ---

// AssocTimeRange returns the in-window edges of (src, etype), at most
// limit of them (limit <= 0: all): one ReadEdges at the owner.
func (c *Client) AssocTimeRange(src graphapi.NodeID, etype graphapi.EdgeType, tLo, tHi int64, limit int) []layout.EdgeData {
	return c.AssocTimeRangeCtx(context.Background(), src, etype, tLo, tHi, limit)
}

// AssocTimeRangeCtx is AssocTimeRange under a trace context.
func (c *Client) AssocTimeRangeCtx(ctx context.Context, src graphapi.NodeID, etype graphapi.EdgeType, tLo, tHi int64, limit int) []layout.EdgeData {
	sp, ctx := telemetry.StartSpanCtx(ctx, "client.assoc_time_range")
	defer sp.End()
	if limit <= 0 {
		limit = graphapi.NoLimit
	}
	edges, err := c.readEdgesCtx(ctx, src, etype, graphapi.InWindow(tLo, tHi, limit))
	if err != nil {
		sp.SetError(err)
		return nil
	}
	return edges
}

// AssocCountInWindow counts the in-window edges of (src, etype): the
// width of the owner's RecRange.
func (c *Client) AssocCountInWindow(src graphapi.NodeID, etype graphapi.EdgeType, tLo, tHi int64) int {
	sp, ctx := telemetry.StartSpanCtx(context.Background(), "client.assoc_count_in_window")
	defer sp.End()
	tLo, tHi = graphapi.TimeBounds(tLo, tHi)
	var reply rangeReply
	if err := c.callRead(ctx, c.ownerOf(src), "RecRange", &recRangeArgs{ID: src, EType: etype, Lo: tLo, Hi: tHi}, &reply); err != nil {
		sp.SetError(err)
		return 0
	}
	return max(reply.End-reply.Beg, 0)
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
