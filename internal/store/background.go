package store

import (
	"slices"

	"zipg/internal/core"
	"zipg/internal/telemetry"
)

// backgroundCompactor is the store's maintenance goroutine. It owns
// two jobs, both serialized with Compact through buildMu:
//
//   - compressing sealed LogStores: a threshold rollover is an
//     O(1) seal under the lock; the suffix-array build happens here,
//     off the write path, and the compressed shard is swapped in under
//     a brief lock.
//   - triggering a full online compaction once CompactAfterRollovers
//     rollovers have accumulated.
//
// kick() is called (non-blocking) by the write path whenever a seal
// happens.
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

// pass drains pending maintenance: compress every sealed log, then run
// a full compaction if the trigger fires.
func (b *backgroundCompactor) pass() {
	for b.s.compressOnePending() {
		select {
		case <-b.stopCh:
			return
		default:
		}
	}
	if after := b.s.cfg.CompactAfterRollovers; after > 0 && b.s.rolloversPending() >= after {
		// Compaction failure leaves the store fully serviceable (the
		// fragments it would have merged stay live); the next trigger
		// retries.
		_ = b.s.Compact()
	}
}

// rolloversPending returns rollovers since the last full compaction.
func (s *Store) rolloversPending() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rolloversSinceCompact
}

// compressOnePending finds the oldest sealed LogStore, builds its
// compressed shard outside the store lock, and swaps it in. Deletes
// keep reaching the sealed log while it builds: one that lands before
// the build reads the log's contents is already gone from them, and one
// after is recorded by the replay Compact uses and marked on the new
// shard at swap; a sealed log takes no appends. The worker calls it
// until nothing is pending; in a store without one, so does every
// writer that sealed a generation. Returns false when no sealed log
// remains (or the build failed — the log stays live and readable
// either way).
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
	nodes, edges := sealed.Contents()
	sh, err := core.Build(nodes, edges, s.nodeSchema, s.edgeSchema,
		core.Options{SamplingRate: s.cfg.SamplingRate, Medium: s.cfg.Medium})
	if err != nil {
		s.mu.Lock()
		s.stopReplayLocked()
		s.mu.Unlock()
		return false
	}
	tm.ObserveInto(mRolloverNs)

	pause := telemetry.StartTimer()
	s.mu.Lock()
	// Index g is still valid: rollovers only append to s.gens, and
	// buildMu excludes the only operation that drops or reorders
	// generations (Compact).
	gens := slices.Clone(s.gens)
	gens[g] = fragment{shard: sh}
	s.gens = gens
	dels, _ := s.stopReplayLocked()
	for _, t := range dels {
		s.markShardEdgesLocked(sh, t)
	}
	s.mu.Unlock()
	pause.ObserveInto(mCompactionPauseNs)
	return true
}
