package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"zipg/internal/graphapi"
	"zipg/internal/layout"
	"zipg/internal/rpc"
	"zipg/internal/telemetry"
)

// Client is a ZipG cluster client implementing the shared store API.
// Queries are routed to the server owning the queried node; get_node_ids
// fans out to every server and aggregates (§4.1, footnote 5). Safe for
// concurrent use.
type Client struct {
	addrs []string

	mu    sync.Mutex
	conns []*rpc.Client
}

// Compile-time check: the cluster client serves the shared workload API.
var _ graphapi.Store = (*Client)(nil)

// NewClient connects to a cluster given every server's address, in
// server-ID order.
func NewClient(addrs []string) (*Client, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: no servers")
	}
	return &Client{addrs: addrs, conns: make([]*rpc.Client, len(addrs))}, nil
}

// conn returns a connection to server id, dialing lazily.
func (c *Client) conn(id int) (*rpc.Client, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conns[id] == nil {
		cl, err := rpc.Dial(c.addrs[id])
		if err != nil {
			return nil, err
		}
		c.conns[id] = cl
	}
	return c.conns[id], nil
}

// owner returns the connection to a node's owning server.
func (c *Client) owner(id graphapi.NodeID) (*rpc.Client, error) {
	return c.conn(OwnerOf(id, len(c.addrs)))
}

// Close tears down all connections.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, conn := range c.conns {
		if conn != nil {
			conn.Close()
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
	conn, err := c.owner(id)
	if err != nil {
		sp.SetError(err)
		return nil, false
	}
	var reply nodePropsReply
	if err := conn.CallCtx(ctx, "NodeProps", nodePropsArgs{ID: id, PIDs: propertyIDs}, &reply); err != nil {
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
// fan-out with a concurrent rpc.call child per server.
func (c *Client) GetNodeIDsCtx(ctx context.Context, props map[string]string) []graphapi.NodeID {
	sp, ctx := telemetry.StartSpanCtx(ctx, "client.get_node_ids")
	defer sp.End()
	sp.SetFanout(len(c.addrs), 0, len(c.addrs))
	var mu sync.Mutex
	var out []graphapi.NodeID
	var wg sync.WaitGroup
	for sid := range c.addrs {
		wg.Add(1)
		go func(sid int) {
			defer wg.Done()
			conn, err := c.conn(sid)
			if err != nil {
				return
			}
			var reply idsReply
			if err := conn.CallCtx(ctx, "FindNodes", propsArgs{Props: props}, &reply); err != nil {
				return
			}
			mu.Lock()
			out = append(out, reply.IDs...)
			mu.Unlock()
		}(sid)
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
	conn, err := c.owner(id)
	if err != nil {
		sp.SetError(err)
		return nil
	}
	var reply idsReply
	if err := conn.CallCtx(ctx, "Neighbors", neighborsArgs{ID: id, EType: etype, Props: props}, &reply); err != nil {
		sp.SetError(err)
		return nil
	}
	return reply.IDs
}

// remoteRecord is the client-side EdgeRecord handle; data accesses are
// RPCs to the owner.
type remoteRecord struct {
	c     *Client
	id    graphapi.NodeID
	etype graphapi.EdgeType
	count int
}

func (r *remoteRecord) Count() int { return r.count }

func (r *remoteRecord) Range(tLo, tHi int64) (int, int) {
	tLo, tHi = graphapi.TimeBounds(tLo, tHi)
	conn, err := r.c.owner(r.id)
	if err != nil {
		return 0, 0
	}
	var reply rangeReply
	if err := conn.Call("RecRange", recRangeArgs{ID: r.id, EType: r.etype, Lo: tLo, Hi: tHi}, &reply); err != nil {
		return 0, 0
	}
	return reply.Beg, reply.End
}

func (r *remoteRecord) Data(timeOrder int) (graphapi.EdgeData, error) {
	conn, err := r.c.owner(r.id)
	if err != nil {
		return graphapi.EdgeData{}, err
	}
	var reply edgeDataReply
	if err := conn.Call("RecData", recDataArgs{ID: r.id, EType: r.etype, Order: timeOrder}, &reply); err != nil {
		return graphapi.EdgeData{}, err
	}
	return graphapi.EdgeData{Dst: reply.Dst, Timestamp: reply.Ts, Props: reply.Props}, nil
}

// DataRange implements graphapi.RangeDataRecord: one round trip for the
// whole interval instead of one per edge, and none for an empty one.
func (r *remoteRecord) DataRange(beg, end int) ([]graphapi.EdgeData, error) {
	if beg >= end {
		return nil, nil
	}
	conn, err := r.c.owner(r.id)
	if err != nil {
		return nil, err
	}
	var reply edgesReply
	if err := conn.Call("RecDataRange", recRangeArgs{ID: r.id, EType: r.etype, Lo: int64(beg), Hi: int64(end)}, &reply); err != nil {
		return nil, err
	}
	return reply.Edges, nil
}

func (r *remoteRecord) Destinations() []graphapi.NodeID {
	conn, err := r.c.owner(r.id)
	if err != nil {
		return nil
	}
	var reply idsReply
	if err := conn.Call("RecDsts", recArgs{ID: r.id, EType: r.etype}, &reply); err != nil {
		return nil
	}
	return reply.IDs
}

// GetEdgeRecord implements graphapi.Store.
func (c *Client) GetEdgeRecord(id graphapi.NodeID, etype graphapi.EdgeType) (graphapi.EdgeRecord, bool) {
	conn, err := c.owner(id)
	if err != nil {
		return nil, false
	}
	var reply recMetaReply
	if err := conn.Call("RecMeta", recArgs{ID: id, EType: etype}, &reply); err != nil || !reply.OK {
		return nil, false
	}
	return &remoteRecord{c: c, id: id, etype: etype, count: reply.Count}, true
}

// GetEdgeRecords implements graphapi.Store.
func (c *Client) GetEdgeRecords(id graphapi.NodeID) []graphapi.EdgeRecord {
	conn, err := c.owner(id)
	if err != nil {
		return nil
	}
	var reply recsMetaReply
	if err := conn.Call("RecsMeta", recArgs{ID: id}, &reply); err != nil {
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
	conn, err := c.owner(id)
	if err != nil {
		return err
	}
	return conn.Call("AppendNode", appendNodeArgs{ID: id, Props: props}, nil)
}

// AppendEdge implements graphapi.Store (routed to the source's owner:
// all of a node's edge data is co-located with it, §4.1).
func (c *Client) AppendEdge(e graphapi.Edge) error {
	conn, err := c.owner(e.Src)
	if err != nil {
		return err
	}
	return conn.Call("AppendEdge", layout.Edge(e), nil)
}

// DeleteNode implements graphapi.Store.
func (c *Client) DeleteNode(id graphapi.NodeID) error {
	conn, err := c.owner(id)
	if err != nil {
		return err
	}
	return conn.Call("DeleteNode", id, nil)
}

// DeleteEdges implements graphapi.Store.
func (c *Client) DeleteEdges(src graphapi.NodeID, etype graphapi.EdgeType, dst graphapi.NodeID) (int, error) {
	conn, err := c.owner(src)
	if err != nil {
		return 0, err
	}
	var n int
	err = conn.Call("DeleteEdges", deleteEdgesArgs{Src: src, Type: etype, Dst: dst}, &n)
	return n, err
}
