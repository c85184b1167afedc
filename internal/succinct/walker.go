package succinct

import (
	"slices"

	"zipg/internal/telemetry"
)

// Walker streams the original text forward from an ISA anchor. Where
// Extract pays one ISA lookup (up to α Ψ steps) per call, a Walker pays it
// once and then carries its suffix-array row forward — so reading a
// record's header, skipping to a field and reading the field is one
// suffix-array walk, not three.
//
// A read is several walks at once. Each Ψ step depends on the one before
// it, so one chain of steps runs at memory latency; but the row of every
// multiple of α is an ISA sample, so Append cuts its span there and steps
// up to walkLanes of those chains in lockstep, and the core overlaps their
// cache misses. The walker then holds the row of the last chain, where the
// read ended.
//
// A Walker is a value type: obtain one with Store.Walk, keep it on the
// stack, and pass it by pointer. Not safe for concurrent use (the Store
// is).
type Walker struct {
	s     *Store
	row   int // suffix-array row of the current text offset
	off   int // current text offset
	since int // Ψ steps since the last medium charge (see extractChargeStride)
}

// walkLanes is how many chains Append steps in lockstep: the count past
// which BenchmarkWalkerLanes stops improving on a store that leaves the
// cache (DESIGN.md, "Access kernels"). maxWalkLanes sizes the lane array,
// which lives on the stack, and bounds the benchmark's sweep.
const (
	walkLanes    = 8
	maxWalkLanes = 16
)

// chain is one α-block of an Append: the row it stands on, the text
// offset of that row, and the offset where the chain stops.
type chain struct{ row, off, end int }

// Walk returns a walker positioned at text offset off (clamped to the
// text). Cost: one ISA sample read plus at most α-1 Ψ steps.
func (s *Store) Walk(off int) Walker {
	if off < 0 {
		off = 0
	}
	if off > s.n-1 {
		off = s.n - 1
	}
	s.chargeISAAt(off)
	row := s.lookupISA(off, false)
	s.chargePsiAt(row)
	return Walker{s: s, row: row, off: off}
}

// Offset returns the text offset the next read will start at.
func (w *Walker) Offset() int { return w.off }

// step advances one text position, charging the medium every
// extractChargeStride steps (the same batching as Extract).
func (w *Walker) step(next int) {
	w.row = next
	w.off++
	w.since++
	if w.since == extractChargeStride {
		w.s.chargePsiAt(w.row)
		w.since = 0
	}
}

// Append reads up to n bytes at the cursor into dst, advancing past
// them. Reads stop early at end of text. dst grows by append — pass a
// buffer with capacity for zero-alloc steady state.
func (w *Walker) Append(dst []byte, n int) []byte {
	return w.appendLanes(dst, n, walkLanes)
}

// appendLanes is Append stepping at most k ≤ maxWalkLanes chains at once.
// The first chain continues the walker's row up to the next multiple of
// α; every later one starts on the ISA sample of its block, at no Ψ step.
// A chain that finishes frees its lane for the next block. Every byte is
// one Ψ step, as in a single chain: only the order of the steps differs.
func (w *Walker) appendLanes(dst []byte, n, k int) []byte {
	s := w.s
	start, end := w.off, min(w.off+n, s.n-1) // offset n-1 is the sentinel
	if end <= start {
		return dst
	}
	// Text offset p lands at dst[at+p]; every byte of the span is written
	// below. next is where the next chain starts.
	at := len(dst) - start
	dst = slices.Grow(dst, end-start)[:len(dst)+end-start]
	next := (start/s.alpha + 1) * s.alpha
	if s.med != nil && next < end {
		// The chains' ISA samples are adjacent: bill them as one read.
		first, last := next/s.alpha, (end-1)/s.alpha
		s.med.Access(s.regISA, int64(first)*8, int64(last-first+1)*8)
	}
	var lanes [maxWalkLanes]chain
	lanes[0] = chain{w.row, start, min(next, end)}
	live := 1
	stop, stopRow := end, 0
	since := w.since
	for {
		for ; live < k && next < end; live++ { // fill the free lanes
			lanes[live] = chain{int(s.isaSamples.Get(next / s.alpha)), next, min(next+s.alpha, end)}
			next += s.alpha
		}
		if live == 0 {
			break
		}
		for i := 0; i < live; i++ {
			l := &lanes[i]
			c, r := s.stepRow(l.row)
			if c == 0 && l.off < stop {
				// The sentinel's row before the end: a damaged archive.
				// The read ends there, as one walk would have ended it.
				stop, stopRow = l.off, l.row
			}
			dst[at+l.off] = byte(c - 1)
			l.row, l.off = r, l.off+1
			if since++; since == extractChargeStride {
				s.chargePsiAt(r)
				since = 0
			}
			if l.off < l.end {
				continue
			}
			if l.end == end {
				w.row = r
			}
			live--
			lanes[i] = lanes[live]
			i--
		}
	}
	w.off, w.since = end, since
	if stop < end {
		dst, w.off, w.row = dst[:at+stop], stop, stopRow
	}
	if telemetry.Enabled() {
		mPsiSteps.Add(int64(w.off - start))
		mExtractBytes.Add(int64(w.off - start))
	}
	return dst
}

// Skip advances the cursor n bytes without materializing them, taking
// whichever is cheaper: stepping Ψ forward (n steps) or re-anchoring at
// the ISA sample preceding the target (target%α steps). Short intra-
// record skips stay on the current walk; long ones jump.
func (w *Walker) Skip(n int) {
	if n <= 0 {
		return
	}
	s := w.s
	target := w.off + n
	if target > s.n-1 {
		target = s.n - 1
	}
	walkCost := target - w.off
	anchorCost := target % s.alpha
	if anchorCost < walkCost {
		s.chargeISAAt(target)
		w.row = s.lookupISA(target, false) // counts its own Ψ steps
		w.off = target
		w.since = 0
		return
	}
	steps := 0
	for w.off < target {
		_, next := s.stepRow(w.row)
		w.step(next)
		steps++
	}
	if telemetry.Enabled() {
		mPsiSteps.Add(int64(steps))
	}
}

// SeekTo repositions the walker at absolute text offset off (clamped to
// the text). A forward seek reuses Skip's walk-vs-anchor choice; a
// backward seek must re-anchor. A record walk moves between a record's
// fields with it, and the compactor's from one record to the next.
func (w *Walker) SeekTo(off int) {
	s := w.s
	if off < 0 {
		off = 0
	}
	if off > s.n-1 {
		off = s.n - 1
	}
	if off >= w.off {
		w.Skip(off - w.off)
		return
	}
	s.chargeISAAt(off)
	w.row = s.lookupISA(off, false)
	w.off = off
	w.since = 0
}
