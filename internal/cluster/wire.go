package cluster

import (
	"zipg/internal/graphapi"
	"zipg/internal/rpc"
)

// The wire forms (rpc.Wirer) of every argument and reply type the
// cluster's methods exchange. Each Wire method lists its type's fields
// in wire order; the rpc Codec encodes and decodes through the same
// list. A write's reply is no payload at all.

func (a *nodePropsArgs) Wire(c *rpc.Codec)  { c.Varint(&a.ID); c.Strings(&a.PIDs) }
func (p *nodePropsReply) Wire(c *rpc.Codec) { c.Bool(&p.OK); c.Strings(&p.Vals) }
func (a *matchBatchArgs) Wire(c *rpc.Codec) { c.Varints(&a.IDs); c.StringMap(&a.Props) }
func (p *matchesReply) Wire(c *rpc.Codec)   { rpc.Seq(c, &p.Matches, 1, (*rpc.Codec).Bool) }
func (a *propsArgs) Wire(c *rpc.Codec)      { c.StringMap(&a.Props) }
func (a *recArgs) Wire(c *rpc.Codec)        { c.Varint(&a.ID); c.Varint(&a.EType) }
func (p *recMetaReply) Wire(c *rpc.Codec)   { c.Bool(&p.OK); c.Int(&p.Count) }
func (p *rangeReply) Wire(c *rpc.Codec)     { c.Int(&p.Beg); c.Int(&p.End) }
func (p *edgesReply) Wire(c *rpc.Codec)     { rpc.Seq(c, &p.Edges, 3, wireEdgeData) }
func (p *idsReply) Wire(c *rpc.Codec)       { c.Varints(&p.IDs) }
func (p *countReply) Wire(c *rpc.Codec)     { c.Int(&p.N) }
func (p *expandReply) Wire(c *rpc.Codec)    { rpc.Seq(c, &p.Edges, 1, wireEdgeList) }

func (a *neighborsArgs) Wire(c *rpc.Codec) {
	c.Varints(&a.IDs)
	c.Varint(&a.EType)
	c.StringMap(&a.Props)
}

func (p *recsMetaReply) Wire(c *rpc.Codec) {
	c.Varints(&p.Types)
	rpc.Seq(c, &p.Counts, 1, (*rpc.Codec).Int)
}

func (a *recRangeArgs) Wire(c *rpc.Codec) {
	c.Varint(&a.ID)
	c.Varint(&a.EType)
	c.Varint(&a.Lo)
	c.Varint(&a.Hi)
}

func (a *readEdgesArgs) Wire(c *rpc.Codec) {
	c.Varint(&a.ID)
	c.Varint(&a.EType)
	wireQuery(c, &a.Query)
}

func (a *expandArgs) Wire(c *rpc.Codec) {
	c.Varints(&a.IDs)
	c.Varint(&a.EType)
	wireQuery(c, &a.Query)
	c.Bool(&a.WithData)
}

func wireQuery(c *rpc.Codec, q *graphapi.EdgeQuery) {
	c.Bool(&q.ByTime)
	c.Varint(&q.Lo)
	c.Varint(&q.Hi)
	c.Int(&q.Limit)
}

// wireEdgeData codes one edge of an edgesReply: at least three bytes.
func wireEdgeData(c *rpc.Codec, e *graphapi.EdgeData) {
	c.Varint(&e.Dst)
	c.Varint(&e.Timestamp)
	c.StringMap(&e.Props)
}

// wireEdgeList codes one node's edges of an expandReply: at least one
// byte.
func wireEdgeList(c *rpc.Codec, es *[]graphapi.EdgeData) { rpc.Seq(c, es, 3, wireEdgeData) }

func (a *appendNodeArgs) Wire(c *rpc.Codec) {
	c.Varint(&a.ID)
	c.StringMap(&a.Props)
}

func (e *edgeArgs) Wire(c *rpc.Codec) {
	c.Varint(&e.Src)
	c.Varint(&e.Dst)
	c.Varint(&e.Type)
	c.Varint(&e.Timestamp)
	c.StringMap(&e.Props)
}

func (a *deleteEdgesArgs) Wire(c *rpc.Codec) {
	c.Varint(&a.Src)
	c.Varint(&a.Type)
	c.Varint(&a.Dst)
}

func (a *pathArgs) Wire(c *rpc.Codec) {
	c.Varint(&a.Src)
	c.Varint(&a.Dst)
	c.Varint(&a.Lo)
	c.Varint(&a.Hi)
	c.Int(&a.MaxHops)
}

func (p *pathReply) Wire(c *rpc.Codec) {
	c.Bool(&p.Found)
	c.Int(&p.Hops)
	c.Varints(&p.Path)
}
