package store

import (
	"sync"
	"time"

	"zipg/internal/layout"
	"zipg/internal/logstore"
)

// Change events.
//
// Every logical mutation the store accepts — node puts, edge appends,
// node deletes, edge deletes — is published as an Event carrying a
// monotone per-partition sequence number. Events are assigned and
// dispatched inside the same store-lock critical section that makes the
// mutation visible to readers (a commit's single s.mu acquisition
// publishes one event per record, in order), so the
// event stream per partition is a total order consistent with what any
// reader can observe: a subscriber that sees Seq n has seen exactly the
// mutations 1..n of that partition, and gaps are provable by simple
// contiguity.
//
// A bounded per-partition tail ring retains recent events so a
// subscriber that fell behind can Catchup(sinceSeq) and receive exactly
// the events a live tail would have delivered — including delete
// tombstones, which flow through the same path. Rollovers, background
// compression and compactions are internal reorganizations and emit
// nothing: the logical graph is unchanged.

// EventKind classifies one change event.
type EventKind uint8

const (
	// EvNodePut is a node insert or property replacement.
	EvNodePut EventKind = iota
	// EvEdgeAdd is an edge append.
	EvEdgeAdd
	// EvNodeDel is a node delete tombstone.
	EvNodeDel
	// EvEdgeDel is an edge delete tombstone: every (Src, Type, Dst)
	// edge existing at publish time is logically removed.
	EvEdgeDel
)

// String names the kind for logs and wire encodings.
func (k EventKind) String() string {
	switch k {
	case EvNodePut:
		return "node_put"
	case EvEdgeAdd:
		return "edge_add"
	case EvNodeDel:
		return "node_del"
	case EvEdgeDel:
		return "edge_del"
	}
	return "unknown"
}

// Event is one published change. Seq is monotone and contiguous per
// partition, starting at 1. At is the publish wall-clock (UnixNano),
// stamped once per commit — subscriber delivery lag is measured
// against it.
type Event struct {
	Seq  uint64
	Part int
	Kind EventKind
	Node layout.NodeID // EvNodePut/EvNodeDel target; EvEdgeAdd/EvEdgeDel: the Src
	// Edge carries the full edge for EvEdgeAdd; for EvEdgeDel only
	// Src/Type/Dst are meaningful.
	Edge  layout.Edge
	Props map[string]string // EvNodePut property list (shared; treat as read-only)
	At    int64
}

// eventTailCap is the per-partition event-tail capacity backing
// EventsSince.
const eventTailCap = 8192

// EventObserver receives every published event batch, synchronously,
// inside the store's commit critical section. Implementations must be
// fast and non-blocking (bounded ring pushes); the slice is only valid
// for the duration of the call.
type EventObserver func(evs []Event)

// eventPartition is one partition's sequence counter plus its bounded
// tail ring.
type eventPartition struct {
	nextSeq uint64
	ring    []Event
	start   int // index of the oldest retained event
	n       int
}

// eventLog is the store's event state. All mutation happens under the
// store's write lock (s.mu); reads take the read lock.
type eventLog struct {
	parts []eventPartition
	// observers is append-only; guarded by obsMu for registration,
	// snapshotted under it for dispatch (dispatch itself runs under
	// s.mu, serializing deliveries).
	obsMu     sync.RWMutex
	observers []EventObserver
}

func (el *eventLog) init(nparts int) {
	if nparts <= 0 {
		nparts = 1
	}
	el.parts = make([]eventPartition, nparts)
}

// Observe registers an observer for every future event batch.
func (s *Store) Observe(fn EventObserver) {
	s.events.obsMu.Lock()
	s.events.observers = append(s.events.observers, fn)
	s.events.obsMu.Unlock()
}

// emitLocked assigns sequence numbers and publish timestamps to evs
// (whose Part must be set), appends them to the per-partition tails,
// and dispatches them to observers. Callers hold s.mu; the events
// become visible in exactly the order the mutations did.
func (s *Store) emitLocked(evs []Event) {
	if len(evs) == 0 {
		return
	}
	now := time.Now().UnixNano()
	el := &s.events
	for i := range evs {
		ev := &evs[i]
		p := &el.parts[ev.Part]
		p.nextSeq++
		ev.Seq = p.nextSeq
		ev.At = now
		if len(p.ring) < eventTailCap {
			p.ring = append(p.ring, *ev)
			p.n++
			continue
		}
		// Ring full: overwrite the oldest (drop-oldest retention).
		p.ring[p.start] = *ev
		p.start = (p.start + 1) % eventTailCap
	}
	el.obsMu.RLock()
	obs := el.observers
	el.obsMu.RUnlock()
	for _, fn := range obs {
		fn(evs)
	}
}

// NumPartitions returns the store's partition count — the index space
// of Event.Part and the per-partition sequence counters.
func (s *Store) NumPartitions() int { return s.cfg.NumShards }

// PartitionOf returns the partition an event about id lands in.
func (s *Store) PartitionOf(id layout.NodeID) int { return s.partitionOf(id) }

// EventsSince returns the retained events of partition part with
// Seq > sinceSeq, oldest first. The second result is false when the
// tail no longer reaches back to sinceSeq (events were evicted — the
// subscriber must resynchronize by other means); sinceSeq = 0 replays
// the whole retained tail and reports whether it is complete from the
// beginning.
func (s *Store) EventsSince(part int, sinceSeq uint64) ([]Event, bool) {
	if part < 0 || part >= len(s.events.parts) {
		return nil, false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	p := &s.events.parts[part]
	if p.n == 0 {
		return nil, p.nextSeq == sinceSeq
	}
	oldest := p.ring[p.start].Seq
	if sinceSeq+1 < oldest {
		return nil, false
	}
	out := make([]Event, 0, p.n)
	for i := 0; i < p.n; i++ {
		ev := p.ring[(p.start+i)%len(p.ring)]
		if ev.Seq > sinceSeq {
			out = append(out, ev)
		}
	}
	return out, true
}

// LastSeq returns partition part's most recently assigned sequence
// number (0 before any event).
func (s *Store) LastSeq(part int) uint64 {
	if part < 0 || part >= len(s.events.parts) {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.events.parts[part].nextSeq
}

// eventsForPuts converts one commit's puts into events, in order.
func (s *Store) eventsForPuts(puts []logstore.Put) []Event {
	evs := make([]Event, len(puts))
	for i := range puts {
		p := &puts[i]
		if p.IsNode {
			evs[i] = Event{Part: s.partitionOf(p.NodeID), Kind: EvNodePut, Node: p.NodeID, Props: p.NodeProps}
		} else {
			evs[i] = Event{Part: s.partitionOf(p.Edge.Src), Kind: EvEdgeAdd, Node: p.Edge.Src, Edge: p.Edge}
		}
	}
	return evs
}
