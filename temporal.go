package zipg

import (
	"zipg/internal/store"
	"zipg/internal/temporal"
)

// Temporal API: windowed analytics, live change subscriptions and
// bounded temporal reachability over the same compressed substrate.
// The engine is built lazily on first use; graphs that never run a
// temporal query pay nothing beyond the store's bounded event tail.

// Event is one sequence-numbered change event (node/edge put or
// tombstone); see the store's event taxonomy in DESIGN.md.
type Event = store.Event

// Event kinds.
const (
	EvNodePut = store.EvNodePut
	EvEdgeAdd = store.EvEdgeAdd
	EvNodeDel = store.EvNodeDel
	EvEdgeDel = store.EvEdgeDel
)

// SubscriptionFilter selects the events a subscription receives; the
// zero value is the firehose.
type SubscriptionFilter = temporal.Filter

// Subscription is a live change feed with a bounded buffer and
// drop-oldest backpressure.
type Subscription = temporal.Subscription

// PathResult is a PathInWindow answer.
type PathResult = temporal.PathResult

// Windowed is the temporal query surface a Graph and the cluster client
// share: windowed analytics and bounded temporal reachability, with the
// Graph methods' semantics below.
type Windowed interface {
	AssocTimeRange(src NodeID, etype EdgeType, tLo, tHi int64, limit int) []EdgeData
	AssocCountInWindow(src NodeID, etype EdgeType, tLo, tHi int64) int
	PathInWindow(src, dst NodeID, tLo, tHi int64, maxHops int) PathResult
}

var _ Windowed = (*Graph)(nil)

// Temporal returns the graph's temporal query engine, building it (and
// tapping the store's event stream) on first call.
func (g *Graph) Temporal() *temporal.Engine {
	g.tempOnce.Do(func() { g.temp = temporal.NewEngine(g.s) })
	return g.temp
}

// AssocTimeRange returns the live edges of (src, etype) with timestamps
// in [tLo, tHi) (WildcardTime leaves a bound open), timestamp-sorted,
// at most limit entries (limit <= 0: unbounded): get_edge_range, then
// the get_edge_data loop over what limit leaves of the range.
func (g *Graph) AssocTimeRange(src NodeID, etype EdgeType, tLo, tHi int64, limit int) []EdgeData {
	return g.Temporal().AssocTimeRange(src, etype, tLo, tHi, limit)
}

// AssocCountInWindow counts the live edges of (src, etype) with
// timestamps in [tLo, tHi) without materializing edge data.
func (g *Graph) AssocCountInWindow(src NodeID, etype EdgeType, tLo, tHi int64) int {
	return g.Temporal().AssocCountInWindow(src, etype, tLo, tHi)
}

// PathInWindow searches for a path src → dst of at most maxHops edges
// whose timestamps all fall in [tLo, tHi).
func (g *Graph) PathInWindow(src, dst NodeID, tLo, tHi int64, maxHops int) PathResult {
	return g.Temporal().PathInWindow(src, dst, tLo, tHi, maxHops)
}

// Subscribe opens a live change subscription with the given filter and
// buffer capacity (0 = default). Close it when done.
func (g *Graph) Subscribe(f SubscriptionFilter, bufCap int) *Subscription {
	return g.Temporal().Subscribe(f, bufCap)
}
