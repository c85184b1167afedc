package store

import (
	"slices"

	"zipg/internal/core"
	"zipg/internal/layout"
	"zipg/internal/telemetry"
)

// backgroundCompactor is the store's maintenance goroutine. It runs one
// job at a time, each serialized with Compact through buildMu: compress
// the oldest sealed LogStore (a rollover only seals, in O(1) under the
// lock); else a full Compact once the generations' bytes and the
// primaries' deletes have paid for it; else a tier merge once
// CompactAfterRollovers compressed generations of one tier stand next
// to each other. With CompactAfterRollovers not positive it only
// compresses. The write path kicks it (non-blocking) on every seal.
type backgroundCompactor struct {
	s      *Store
	kickCh chan struct{}
	stopCh chan struct{}
	doneCh chan struct{}
}

func startBackground(s *Store) *backgroundCompactor {
	b := &backgroundCompactor{
		s:      s,
		kickCh: make(chan struct{}, 1),
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
	go b.run()
	return b
}

// kick wakes the worker without blocking; a kick while one is already
// pending is a no-op (the worker drains all pending work per pass).
func (b *backgroundCompactor) kick() {
	select {
	case b.kickCh <- struct{}{}:
	default:
	}
}

// stop shuts the worker down and waits for it to exit. Work already
// inside a buildMu critical section finishes; queued work is dropped
// (a later Compact, or Save, handles leftover sealed logs).
func (b *backgroundCompactor) stop() {
	close(b.stopCh)
	<-b.doneCh
}

func (b *backgroundCompactor) run() {
	defer close(b.doneCh)
	for {
		select {
		case <-b.stopCh:
			return
		case <-b.kickCh:
			b.pass()
		}
	}
}

// pass drains pending maintenance one job at a time, so a log sealed
// meanwhile is compressed before the next merge. A failed job ends the
// pass and leaves the store fully serviceable (the fragments it would
// have merged stay live); the next kick retries.
func (b *backgroundCompactor) pass() {
	s := b.s
	for {
		select {
		case <-b.stopCh:
			return
		default:
		}
		switch {
		case s.compressOnePending():
		case s.fullCompactionDue():
			if s.Compact() != nil {
				return
			}
		case !s.mergeTier():
			return
		}
	}
}

// compressOnePending builds the oldest sealed LogStore's shard outside
// the store lock and swaps it in as a tier-0 generation. A delete that
// reaches the log before the build reads it is gone from what it reads;
// one after is replayed onto the shard (swapReplayed). The worker calls
// it until nothing is pending; in a store without one, so does every
// writer that sealed a generation. Returns false when no sealed log
// remains, or the build failed (the log stays live either way).
func (s *Store) compressOnePending() bool {
	s.buildMu.Lock()
	defer s.buildMu.Unlock()

	s.mu.Lock()
	g := slices.IndexFunc(s.gens[:s.curGenLocked()], func(f fragment) bool { return f.log != nil })
	if g < 0 {
		s.mu.Unlock()
		return false
	}
	sealed := s.gens[g].log
	s.startReplayLocked()
	s.mu.Unlock()

	tm := telemetry.StartTimer()
	sh, err := s.buildShard(sealed.Contents())
	if err != nil {
		s.abortReplay()
		return false
	}
	tm.ObserveInto(mRolloverNs)
	s.swapReplayed(func(layout.NodeID) *core.Shard { return sh }, func(map[layout.NodeID]bool) {
		// Index g is still valid: rollovers only append to s.gens, and
		// buildMu excludes Compact and tier merges, which splice it.
		gens := slices.Clone(s.gens)
		gens[g] = fragment{shard: sh}
		s.gens = gens
	})
	return true
}
