package cluster

import (
	"context"
	"sort"
	"sync"

	"zipg/internal/graphapi"
	"zipg/internal/rpc"
)

// Multi-level function shipping (§4.1): "a subquery may be further
// decomposed into sub-subqueries and forwarded to respective servers."
// The canonical case is a two-hop neighborhood query — "friends of
// friends of Alice who live in Ithaca": the client contacts Alice's
// owner; that aggregator expands her neighbors locally, groups them by
// owner and ships a *neighbor-expansion* subquery to each of those
// servers; each of them, in turn, ships property checks for the second
// hop to the neighbors' owners (Figure 4, one level deeper).

type twoHopArgs struct {
	IDs   []graphapi.NodeID // frontier owned by the callee
	EType graphapi.EdgeType
	Props map[string]string // filter applied to the second hop
}

func (s *Server) registerMultiLevel() {
	// NeighborsBatch expands a frontier of locally-owned nodes one hop
	// and applies the property filter — itself shipping the checks to
	// the destination owners (the second level of shipping).
	s.rpc.Handle("NeighborsBatch", func(ctx context.Context, blob []byte) (any, error) {
		var a twoHopArgs
		if err := rpc.DecodeArgsCtx(ctx, blob, &a); err != nil {
			return nil, err
		}
		seen := make(map[graphapi.NodeID]bool)
		var frontier []graphapi.NodeID
		for _, id := range a.IDs {
			ids, err := s.neighborsCtx(ctx, id, a.EType, a.Props)
			if err != nil {
				return nil, err
			}
			for _, n := range ids {
				if !seen[n] {
					seen[n] = true
					frontier = append(frontier, n)
				}
			}
		}
		sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
		return &idsReply{IDs: frontier}, nil
	})
}

// TwoHopNeighbors returns the distinct nodes exactly reachable within
// two hops of id along etype (WildcardType for any), with props
// filtering the second hop. The first hop is expanded at id's owner; the
// second hop fans out to the owners of the first-hop nodes, each of
// which ships its own property checks — three levels of servers
// cooperate on one query.
func (c *Client) TwoHopNeighbors(id graphapi.NodeID, etype graphapi.EdgeType, props map[string]string) []graphapi.NodeID {
	first := c.GetNeighborIDs(id, etype, nil)
	if len(first) == 0 {
		return nil
	}
	perOwner := make(map[int][]graphapi.NodeID)
	for _, n := range first {
		o := OwnerOf(n, len(c.addrs))
		perOwner[o] = append(perOwner[o], n)
	}
	var mu sync.Mutex
	union := make(map[graphapi.NodeID]bool)
	var wg sync.WaitGroup
	for owner, ids := range perOwner {
		wg.Add(1)
		go func(owner int, ids []graphapi.NodeID) {
			defer wg.Done()
			var reply idsReply
			if err := c.callRead(context.Background(), owner, "NeighborsBatch", &twoHopArgs{IDs: ids, EType: etype, Props: props}, &reply); err != nil {
				return
			}
			mu.Lock()
			for _, n := range reply.IDs {
				union[n] = true
			}
			mu.Unlock()
		}(owner, ids)
	}
	wg.Wait()
	out := make([]graphapi.NodeID, 0, len(union))
	for n := range union {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
