package temporal

import (
	"context"
	"time"

	"sync"

	"zipg/internal/layout"
	"zipg/internal/store"
)

// Live subscriptions.
//
// The store publishes one Event per mutation from inside its commit
// critical section; the engine's observer fans each batch out to every
// subscriber whose filter matches. A subscriber owns a bounded ring
// with drop-oldest backpressure: a slow consumer loses the OLDEST
// undelivered events (and can prove it — the per-partition sequence
// numbers stop being contiguous, and Dropped() counts the loss), never
// stalls the write path, and re-converges via Catchup(sinceSeq), which
// replays the store's own event tail. Because tombstone events ride
// the same path as appends, a Catchup replay is indistinguishable from
// having watched the live tail.

// Filter selects the events a subscription receives. The zero Filter
// is the firehose (every event). Node filters match node events about
// the node and edge events touching it (as source or destination);
// Type filters match edge events of that type.
type Filter struct {
	Node    layout.NodeID
	HasNode bool
	Type    layout.EdgeType
	HasType bool
}

// FilterNode subscribes to everything touching one node.
func FilterNode(id layout.NodeID) Filter { return Filter{Node: id, HasNode: true} }

// FilterType subscribes to edge events of one type.
func FilterType(t layout.EdgeType) Filter { return Filter{Type: t, HasType: true} }

// Matches reports whether ev passes the filter.
func (f Filter) Matches(ev store.Event) bool {
	if f.HasNode {
		switch ev.Kind {
		case store.EvNodePut, store.EvNodeDel:
			if ev.Node != f.Node {
				return false
			}
		default:
			if ev.Edge.Src != f.Node && ev.Edge.Dst != f.Node {
				return false
			}
		}
	}
	if f.HasType {
		if ev.Kind != store.EvEdgeAdd && ev.Kind != store.EvEdgeDel {
			return false
		}
		if ev.Edge.Type != f.Type {
			return false
		}
	}
	return true
}

// DefaultSubscriptionBuffer is the ring capacity Subscribe uses when
// the caller passes 0.
const DefaultSubscriptionBuffer = 1024

// Subscription is one subscriber's bounded event ring.
type Subscription struct {
	id  uint64
	eng *Engine
	f   Filter

	mu      sync.Mutex
	ring    []store.Event
	start   int
	n       int
	dropped uint64
	closed  bool
	// notify has capacity 1; push signals it without blocking so a
	// waiting Next wakes exactly when events (or Close) arrive.
	notify chan struct{}
}

// Subscribe registers a subscription with the given filter and ring
// capacity (0 = DefaultSubscriptionBuffer). The subscription starts
// receiving events published after this call returns; pair it with
// Catchup to also replay the recent past.
func (e *Engine) Subscribe(f Filter, bufCap int) *Subscription {
	if bufCap <= 0 {
		bufCap = DefaultSubscriptionBuffer
	}
	sub := &Subscription{
		eng:    e,
		f:      f,
		ring:   make([]store.Event, bufCap),
		notify: make(chan struct{}, 1),
	}
	e.mu.Lock()
	e.nextID++
	sub.id = e.nextID
	e.subs[sub.id] = sub
	e.mu.Unlock()
	return sub
}

// deliver is the engine's store observer: it runs inside the store's
// commit critical section, so it must stay bounded — per subscriber, a
// filter check and a ring write per event, no locks beyond the
// subscription's own.
func (e *Engine) deliver(evs []store.Event) {
	e.mu.Lock()
	if len(e.subs) == 0 {
		e.mu.Unlock()
		return
	}
	subs := make([]*Subscription, 0, len(e.subs))
	for _, s := range e.subs {
		subs = append(subs, s)
	}
	e.mu.Unlock()
	for _, s := range subs {
		s.push(evs)
	}
}

// push appends the matching events of one published batch.
func (s *Subscription) push(evs []store.Event) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	pushed, droppedNow := 0, 0
	for _, ev := range evs {
		if !s.f.Matches(ev) {
			continue
		}
		pushed++
		if s.n < len(s.ring) {
			s.ring[(s.start+s.n)%len(s.ring)] = ev
			s.n++
			continue
		}
		// Full: drop the oldest undelivered event.
		s.ring[s.start] = ev
		s.start = (s.start + 1) % len(s.ring)
		droppedNow++
	}
	s.dropped += uint64(droppedNow)
	s.mu.Unlock()
	if pushed > 0 {
		mSubEvents.Add(int64(pushed - droppedNow))
		if droppedNow > 0 {
			mSubDropped.Add(int64(droppedNow))
		}
		select {
		case s.notify <- struct{}{}:
		default:
		}
	}
}

// Poll drains up to max pending events (max <= 0: all), oldest first.
// It never blocks; an empty return means the ring is drained.
func (s *Subscription) Poll(max int) []store.Event {
	s.mu.Lock()
	if s.n == 0 {
		s.mu.Unlock()
		return nil
	}
	take := s.n
	if max > 0 && take > max {
		take = max
	}
	out := make([]store.Event, take)
	for i := 0; i < take; i++ {
		out[i] = s.ring[(s.start+i)%len(s.ring)]
	}
	s.start = (s.start + take) % len(s.ring)
	s.n -= take
	s.mu.Unlock()
	observeLag(out)
	return out
}

// Next blocks until at least one event is pending (returning up to max,
// as Poll) or ctx is done or the subscription is closed. A nil slice
// with nil error means the subscription was closed.
func (s *Subscription) Next(ctx context.Context, max int) ([]store.Event, error) {
	for {
		if evs := s.Poll(max); len(evs) > 0 {
			return evs, nil
		}
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return nil, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-s.notify:
		}
	}
}

// Dropped returns how many events this subscription's backpressure has
// discarded so far.
func (s *Subscription) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Close deregisters the subscription. Pending events remain pollable;
// blocked Next calls return.
func (s *Subscription) Close() {
	s.eng.mu.Lock()
	delete(s.eng.subs, s.id)
	s.eng.mu.Unlock()
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Catchup replays the store's retained event tail for one partition:
// every event with Seq > sinceSeq that matches the filter, oldest
// first. The second result is false when the tail has already evicted
// events past sinceSeq — the subscriber missed more than the store
// retains and must resynchronize with a full read.
func (e *Engine) Catchup(part int, sinceSeq uint64, f Filter) ([]store.Event, bool) {
	evs, ok := e.st.EventsSince(part, sinceSeq)
	if !ok {
		return nil, false
	}
	kept := evs[:0]
	for _, ev := range evs {
		if f.Matches(ev) {
			kept = append(kept, ev)
		}
	}
	return kept, true
}

// observeLag accounts publish-to-delivery latency for delivered events.
func observeLag(evs []store.Event) {
	if len(evs) == 0 || !telemetryEnabled() {
		return
	}
	now := time.Now().UnixNano()
	var total int64
	for i := range evs {
		if d := now - evs[i].At; d > 0 {
			total += d
		}
	}
	mSubLagNs.Add(total)
}
