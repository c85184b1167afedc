package store

import (
	"sync"

	"zipg/internal/logstore"
	"zipg/internal/telemetry"
)

// The group-committed write path.
//
// Were every append to take s.mu itself, W concurrent writers would
// acquire the store lock W times per W records, each acquisition also
// contending with the read paths' RLocks. Group commit amortizes that.
// A writer enqueues its prepared put on its partition's queue and then
// either becomes the *leader* — the one writer holding the commit
// token — or waits for its put's done signal. The leader drains every
// partition queue, publishes the whole batch under ONE s.mu
// acquisition (LogStore puts, update pointers, deletion-mark clears,
// at most one rollover check), signals the batch's waiters, and
// releases the token. Under contention, batches grow with the arrival
// rate and the per-record lock cost approaches zero; a lone writer
// degenerates to leader-of-one with a single extra channel operation.
//
// The commit itself is infallible: every fallible step (schema
// validation, size accounting) ran in logstore.Prepare*Put before the
// put was enqueued, so a leader never has to report another writer's
// error — mirroring logstore.ApplyPuts's contract.

// pendingWrite is one enqueued put plus its completion signal. The
// done channel has capacity 1 and is signalled by send (not close) so
// the value can be pooled and reused across writes.
type pendingWrite struct {
	put  logstore.Put
	part int
	done chan struct{}
}

var pendingPool = sync.Pool{
	New: func() any { return &pendingWrite{done: make(chan struct{}, 1)} },
}

// writeCoordinator is the store's group-commit state: per-partition
// pending queues and the leader-election token.
type writeCoordinator struct {
	qmu     sync.Mutex
	queues  [][]*pendingWrite
	pending int
	// token is the leader election: capacity 1, a successful send makes
	// the sender the leader. Buffered so election never blocks on a
	// receiver.
	token chan struct{}
}

func (w *writeCoordinator) init(nparts int) {
	if nparts <= 0 {
		nparts = 1
	}
	w.queues = make([][]*pendingWrite, nparts)
	w.token = make(chan struct{}, 1)
}

// submitWrite publishes one prepared put through the group committer
// and returns once the put is visible to readers.
func (s *Store) submitWrite(part int, put logstore.Put) error {
	w := &s.wc
	pw := pendingPool.Get().(*pendingWrite)
	pw.put = put
	pw.part = part

	w.qmu.Lock()
	w.queues[part] = append(w.queues[part], pw)
	w.pending++
	w.qmu.Unlock()

	var stall telemetry.Timer
	timed := telemetry.Enabled()
	if timed {
		stall = telemetry.StartTimer()
	}
	for {
		select {
		case <-pw.done:
			// A leader committed our put.
			if timed {
				stall.ObserveInto(mWriteStallNs)
			}
			pendingPool.Put(pw)
			return nil
		case w.token <- struct{}{}:
			// We are the leader. Our own put may already have been
			// committed by the previous leader — commitGroup handles
			// both cases; afterwards our done signal is guaranteed
			// pending if it wasn't consumed above.
			err := s.commitGroup()
			<-w.token
			<-pw.done
			if timed {
				stall.ObserveInto(mWriteStallNs)
			}
			pendingPool.Put(pw)
			return err
		}
	}
}

// commitGroup drains every partition queue and publishes the batch
// under one store-lock acquisition. Only the token holder calls this.
func (s *Store) commitGroup() error {
	w := &s.wc
	w.qmu.Lock()
	if w.pending == 0 {
		w.qmu.Unlock()
		return nil
	}
	batch := make([]*pendingWrite, 0, w.pending)
	for p := range w.queues {
		batch = append(batch, w.queues[p]...)
		w.queues[p] = w.queues[p][:0]
	}
	w.pending = 0
	w.qmu.Unlock()

	puts := make([]logstore.Put, len(batch))
	for i, pw := range batch {
		puts[i] = pw.put
	}

	s.mu.Lock()
	// One LogStore lock acquisition for the whole batch.
	s.log.ApplyPuts(puts)
	gen := s.curGenLocked()
	for i := range puts {
		p := &puts[i]
		if p.IsNode {
			delete(s.deletedNodes, p.NodeID)
			s.addPtrLocked(p.NodeID, gen)
		} else {
			s.addPtrLocked(p.Edge.Src, gen)
		}
	}
	// One event per record, in batch order, published inside the same
	// critical section that made the batch visible: subscribers see the
	// commit's records contiguously and in order.
	s.emitLocked(s.eventsForPuts(puts))
	// At most one rollover check per batch instead of one per record:
	// the threshold overshoot is bounded by one batch's bytes.
	err := s.maybeRolloverLocked()
	s.mu.Unlock()

	for _, pw := range batch {
		pw.done <- struct{}{}
	}
	mGroupBatches.Inc()
	mGroupRecords.Add(int64(len(batch)))
	return err
}
