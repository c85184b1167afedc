package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"zipg/internal/graphapi"
	"zipg/internal/rpc"
	"zipg/internal/telemetry"
)

// Client is a ZipG cluster client implementing the shared store API.
// Queries are routed to the partition owning the queried node;
// get_node_ids fans out to every partition and aggregates (§4.1,
// footnote 5). A partition may have several replicas holding the same
// data (§4.1, "Fault Tolerance and Load Balancing"): reads are spread
// evenly across them and fail over past a replica that is down, writes
// go to every one. Safe for concurrent use.
type Client struct {
	addrs [][]string    // addrs[p][r] is replica r of partition p
	rr    atomic.Uint64 // read round-robin counter

	mu    sync.Mutex
	conns [][]*rpc.Client // mirrors addrs; nil until dialed, and after a drop
}

// Compile-time check: the cluster client serves the shared workload API
// and ships both the record read and the hop.
var (
	_ graphapi.Store      = (*Client)(nil)
	_ graphapi.EdgeReader = (*Client)(nil)
	_ graphapi.Expander   = (*Client)(nil)
)

// NewClient connects to a cluster of one server per partition, given
// every server's address in server-ID order.
func NewClient(addrs []string) (*Client, error) {
	parts := make([][]string, len(addrs))
	for p := range addrs {
		parts[p] = addrs[p : p+1]
	}
	return newClient(parts)
}

// newClient connects to a cluster given each partition's replicas;
// every partition must have at least one.
func newClient(addrs [][]string) (*Client, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: no servers")
	}
	conns := make([][]*rpc.Client, len(addrs))
	for p, reps := range addrs {
		if len(reps) == 0 {
			return nil, fmt.Errorf("cluster: partition %d has no replicas", p)
		}
		conns[p] = make([]*rpc.Client, len(reps))
	}
	return &Client{addrs: addrs, conns: conns}, nil
}

// conn returns a connection to replica r of partition p, dialing lazily.
func (c *Client) conn(p, r int) (*rpc.Client, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conns[p][r] == nil {
		cl, err := rpc.Dial(c.addrs[p][r])
		if err != nil {
			return nil, err
		}
		c.conns[p][r] = cl
	}
	return c.conns[p][r], nil
}

// tryReplica makes one call to replica r of partition p. down reports
// that the replica was not reached — the dial failed or the connection
// broke — as opposed to having answered with an error; a broken
// connection is dropped, so the next call to the replica redials.
func (c *Client) tryReplica(ctx context.Context, p, r int, method string, args, reply any) (down bool, err error) {
	conn, err := c.conn(p, r)
	if err != nil {
		return true, err
	}
	err = conn.CallCtx(ctx, method, args, reply)
	if !errors.Is(err, rpc.ErrConnLost) {
		return false, err
	}
	c.mu.Lock()
	if c.conns[p][r] == conn {
		c.conns[p][r] = nil
	}
	c.mu.Unlock()
	conn.Close()
	return true, err
}

// callRead invokes method on one replica of partition p, starting at
// the round-robin position and failing over to the next replica while
// the one tried is down. It stops once ctx is done: a partition of hung
// replicas costs the caller its deadline and no more.
func (c *Client) callRead(ctx context.Context, p int, method string, args, reply any) error {
	n := len(c.addrs[p])
	start := 0
	if n > 1 {
		start = int(c.rr.Add(1) % uint64(n))
	}
	for k := 0; ; k++ {
		down, err := c.tryReplica(ctx, p, (start+k)%n, method, args, reply)
		if !down || ctx.Err() != nil {
			return err
		}
		if k == n-1 {
			return fmt.Errorf("cluster: partition %d unavailable: %w", p, err)
		}
	}
}

// callWrite invokes method on every replica of partition p and fails on
// the first that does not take it, naming the replica: copies are never
// left to diverge silently.
func (c *Client) callWrite(p int, method string, args, reply any) error {
	for r, addr := range c.addrs[p] {
		if _, err := c.tryReplica(context.Background(), p, r, method, args, reply); err != nil {
			return fmt.Errorf("cluster: replica %s: %w", addr, err)
		}
	}
	return nil
}

// ownerOf returns the partition owning a node.
func (c *Client) ownerOf(id graphapi.NodeID) int { return OwnerOf(id, len(c.addrs)) }

// Close tears down all connections.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, reps := range c.conns {
		for _, conn := range reps {
			if conn != nil {
				conn.Close()
			}
		}
	}
}

// GetNodeProperty implements graphapi.Store.
func (c *Client) GetNodeProperty(id graphapi.NodeID, propertyIDs []string) ([]string, bool) {
	return c.GetNodePropertyCtx(context.Background(), id, propertyIDs)
}

// GetNodePropertyCtx is GetNodeProperty under a trace context: the
// query becomes a span (a root when ctx is untraced and the sampling
// period elects it) whose rpc.call child carries the trace to the
// owner, and ctx's deadline travels on the wire.
func (c *Client) GetNodePropertyCtx(ctx context.Context, id graphapi.NodeID, propertyIDs []string) ([]string, bool) {
	sp, ctx := telemetry.StartSpanCtx(ctx, "client.get_node_property")
	defer sp.End()
	var reply nodePropsReply
	if err := c.callRead(ctx, c.ownerOf(id), "NodeProps", &nodePropsArgs{ID: id, PIDs: propertyIDs}, &reply); err != nil {
		sp.SetError(err)
		return nil, false
	}
	if !reply.OK {
		return nil, false
	}
	if len(propertyIDs) == 0 {
		// Wildcard semantics: drop absent properties (server returns
		// schema-ordered slots).
		out := make([]string, 0, len(reply.Vals))
		for _, v := range reply.Vals {
			if v != "" {
				out = append(out, v)
			}
		}
		return out, true
	}
	return reply.Vals, true
}

// GetNodeIDs implements graphapi.Store: fan out to every server, union
// client-side (the aggregation of Figure 4's left-most case).
func (c *Client) GetNodeIDs(props map[string]string) []graphapi.NodeID {
	return c.GetNodeIDsCtx(context.Background(), props)
}

// GetNodeIDsCtx is GetNodeIDs under a trace context: one span for the
// fan-out with a concurrent rpc.call child per partition.
func (c *Client) GetNodeIDsCtx(ctx context.Context, props map[string]string) []graphapi.NodeID {
	sp, ctx := telemetry.StartSpanCtx(ctx, "client.get_node_ids")
	defer sp.End()
	sp.SetFanout(len(c.addrs), 0, len(c.addrs))
	var mu sync.Mutex
	var out []graphapi.NodeID
	var wg sync.WaitGroup
	for p := range c.addrs {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var reply idsReply
			if err := c.callRead(ctx, p, "FindNodes", &propsArgs{Props: props}, &reply); err != nil {
				return
			}
			mu.Lock()
			out = append(out, reply.IDs...)
			mu.Unlock()
		}(p)
	}
	wg.Wait()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// GetNeighborIDs implements graphapi.Store: one call to the owner, which
// does the function shipping.
func (c *Client) GetNeighborIDs(id graphapi.NodeID, etype graphapi.EdgeType, props map[string]string) []graphapi.NodeID {
	return c.GetNeighborIDsCtx(context.Background(), id, etype, props)
}

// GetNeighborIDsCtx is GetNeighborIDs under a trace context: the root
// of the canonical distributed trace — client span → rpc.call to the
// owner → the owner's serve span → MatchBatch calls fanning out to the
// neighbors' owners.
func (c *Client) GetNeighborIDsCtx(ctx context.Context, id graphapi.NodeID, etype graphapi.EdgeType, props map[string]string) []graphapi.NodeID {
	sp, ctx := telemetry.StartSpanCtx(ctx, "client.get_neighbor_ids")
	defer sp.End()
	var reply idsReply
	if err := c.callRead(ctx, c.ownerOf(id), "Neighbors", &neighborsArgs{IDs: []graphapi.NodeID{id}, EType: etype, Props: props}, &reply); err != nil {
		sp.SetError(err)
		return nil
	}
	return reply.IDs
}

// TwoHopNeighbors returns the distinct nodes exactly reachable within
// two hops of id along etype (WildcardType for any), with props
// filtering the second hop. It is multi-level function shipping (§4.1:
// "a subquery may be further decomposed into sub-subqueries and
// forwarded to respective servers"): the first hop is expanded at id's
// owner; the second is one Neighbors call to each owner of first-hop
// nodes, each of which ships the property checks to the neighbors'
// owners in one MatchBatch per owner — three levels of servers cooperate
// on one query (Figure 4, one level deeper).
func (c *Client) TwoHopNeighbors(id graphapi.NodeID, etype graphapi.EdgeType, props map[string]string) []graphapi.NodeID {
	first := c.GetNeighborIDs(id, etype, nil)
	var mu sync.Mutex
	union := make(map[graphapi.NodeID]bool)
	// A share whose owner fails adds nothing.
	_ = fanOut(byOwner(first, len(c.addrs)), -1, func(owner int, idx []int) error {
		var reply idsReply
		if err := c.callRead(context.Background(), owner, "Neighbors", &neighborsArgs{IDs: pick(first, idx), EType: etype, Props: props}, &reply); err != nil {
			return err
		}
		mu.Lock()
		for _, n := range reply.IDs {
			union[n] = true
		}
		mu.Unlock()
		return nil
	})
	var out []graphapi.NodeID
	for n := range union {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Expand implements graphapi.Expander: the frontier is split by owning
// partition, and each share is one concurrent Expand call to a replica
// of its owner.
func (c *Client) Expand(frontier []graphapi.NodeID, etype graphapi.EdgeType, q graphapi.EdgeQuery, withData bool) ([][]graphapi.EdgeData, error) {
	out := make([][]graphapi.EdgeData, len(frontier))
	err := fanOut(byOwner(frontier, len(c.addrs)), -1, func(owner int, idx []int) error {
		var reply expandReply
		if err := c.callRead(context.Background(), owner, "Expand", &expandArgs{IDs: pick(frontier, idx), EType: etype, Query: q, WithData: withData}, &reply); err != nil {
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

// remoteRecord is the client-side EdgeRecord handle; data accesses are
// RPCs to a replica of the owner.
type remoteRecord struct {
	c     *Client
	id    graphapi.NodeID
	etype graphapi.EdgeType
	count int
}

func (r *remoteRecord) Count() int { return r.count }

func (r *remoteRecord) Range(tLo, tHi int64) (int, int) {
	tLo, tHi = graphapi.TimeBounds(tLo, tHi)
	var reply rangeReply
	if err := r.c.callRead(context.Background(), r.c.ownerOf(r.id), "RecRange", &recRangeArgs{ID: r.id, EType: r.etype, Lo: tLo, Hi: tHi}, &reply); err != nil {
		return 0, 0
	}
	return reply.Beg, reply.End
}

func (r *remoteRecord) Data(timeOrder int) (graphapi.EdgeData, error) {
	edges, err := r.c.ReadEdges(r.id, r.etype, graphapi.ByOrder(timeOrder, 1))
	if err != nil {
		return graphapi.EdgeData{}, err
	}
	if len(edges) != 1 {
		return graphapi.EdgeData{}, fmt.Errorf("cluster: record (%d,%d): %d edges at time order %d", r.id, r.etype, len(edges), timeOrder)
	}
	return edges[0], nil
}

func (r *remoteRecord) Destinations() []graphapi.NodeID {
	hop, err := r.c.Expand([]graphapi.NodeID{r.id}, r.etype, graphapi.ByOrder(0, graphapi.NoLimit), false)
	if err != nil || len(hop[0]) == 0 {
		return nil
	}
	out := make([]graphapi.NodeID, len(hop[0]))
	for i, e := range hop[0] {
		out[i] = e.Dst
	}
	return out
}

// GetEdgeRecord implements graphapi.Store.
func (c *Client) GetEdgeRecord(id graphapi.NodeID, etype graphapi.EdgeType) (graphapi.EdgeRecord, bool) {
	var reply recMetaReply
	if err := c.callRead(context.Background(), c.ownerOf(id), "RecMeta", &recArgs{ID: id, EType: etype}, &reply); err != nil || !reply.OK {
		return nil, false
	}
	return &remoteRecord{c: c, id: id, etype: etype, count: reply.Count}, true
}

// ReadEdges implements graphapi.EdgeReader: one round trip to a replica
// of the owner, which locates the record and reads q's interval of it.
func (c *Client) ReadEdges(id graphapi.NodeID, etype graphapi.EdgeType, q graphapi.EdgeQuery) ([]graphapi.EdgeData, error) {
	return c.readEdgesCtx(context.Background(), id, etype, q)
}

func (c *Client) readEdgesCtx(ctx context.Context, id graphapi.NodeID, etype graphapi.EdgeType, q graphapi.EdgeQuery) ([]graphapi.EdgeData, error) {
	var reply edgesReply
	if err := c.callRead(ctx, c.ownerOf(id), "ReadEdges", &readEdgesArgs{ID: id, EType: etype, Query: q}, &reply); err != nil {
		return nil, err
	}
	return reply.Edges, nil
}

// GetEdgeRecords implements graphapi.Store.
func (c *Client) GetEdgeRecords(id graphapi.NodeID) []graphapi.EdgeRecord {
	var reply recsMetaReply
	if err := c.callRead(context.Background(), c.ownerOf(id), "RecsMeta", &recArgs{ID: id}, &reply); err != nil || len(reply.Counts) != len(reply.Types) {
		return nil
	}
	out := make([]graphapi.EdgeRecord, len(reply.Types))
	for i, t := range reply.Types {
		out[i] = &remoteRecord{c: c, id: id, etype: t, count: reply.Counts[i]}
	}
	return out
}

// AppendNode implements graphapi.Store.
func (c *Client) AppendNode(id graphapi.NodeID, props map[string]string) error {
	return c.callWrite(c.ownerOf(id), "AppendNode", &appendNodeArgs{ID: id, Props: props}, nil)
}

// AppendEdge implements graphapi.Store (routed to the source's owner:
// all of a node's edge data is co-located with it, §4.1).
func (c *Client) AppendEdge(e graphapi.Edge) error {
	return c.callWrite(c.ownerOf(e.Src), "AppendEdge", (*edgeArgs)(&e), nil)
}

// DeleteNode implements graphapi.Store.
func (c *Client) DeleteNode(id graphapi.NodeID) error {
	return c.callWrite(c.ownerOf(id), "DeleteNode", &recArgs{ID: id}, nil)
}

// DeleteEdges implements graphapi.Store.
func (c *Client) DeleteEdges(src graphapi.NodeID, etype graphapi.EdgeType, dst graphapi.NodeID) (int, error) {
	var reply countReply
	err := c.callWrite(c.ownerOf(src), "DeleteEdges", &deleteEdgesArgs{Src: src, Type: etype, Dst: dst}, &reply)
	return reply.N, err
}
