package succinct

import (
	"slices"
	"sort"

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
// sample point — every multiple of α, or on an anchored store every
// anchor the walk was given — is an ISA sample, so Append cuts its span
// there and steps up to walkLanes of those chains in lockstep, and the
// core overlaps their cache misses. The walker then holds the row of the
// last chain, where the read ended.
//
// A Walker is a value type: obtain one with Store.Walk, keep it on the
// stack, and pass it by pointer. Not safe for concurrent use (the Store
// is).
type Walker struct {
	s     *Store
	row   int // suffix-array row of the current text offset
	off   int // current text offset
	since int // Ψ steps since the last medium charge (see extractChargeStride)

	// On an anchored store, the text offsets of anchors next, next+1, …,
	// ascending: the walk's sample points. The store does not know them.
	cuts []int
	next int
}

// walkLanes is how many chains Append steps in lockstep: a count on the
// plateau BenchmarkWalkerLanes reaches, from two lanes on, on a store
// that leaves the cache (DESIGN.md, "Access kernels"). maxWalkLanes sizes the lane array,
// which lives on the stack, and bounds the benchmark's sweep.
const (
	walkLanes    = 8
	maxWalkLanes = 16
)

// chain is one α-block of an Append: the row it stands on, the text
// offset of that row, and the offset where the chain stops.
type chain struct{ row, off, end int }

// Walk returns a walker positioned at text offset off (clamped to the
// text). Cost: one ISA sample read plus at most α-1 Ψ steps. An anchored
// store is read from its anchors (WalkAnchor): there the walker stands at
// the end of the text, and reads nothing.
func (s *Store) Walk(off int) Walker {
	if off < 0 {
		off = 0
	}
	if off > s.n-1 {
		off = s.n - 1
	}
	if s.alpha == 0 {
		return Walker{s: s, off: s.n - 1}
	}
	s.chargeISAAt(off)
	row := s.lookupISA(off, false)
	s.chargePsiAt(row)
	return Walker{s: s, row: row, off: off}
}

// WalkAnchor returns a walker positioned on anchor j of an anchored
// store, which the caller knows to be at text offset off; cuts are the
// offsets of anchors j+1, j+2, … that a read may cross, ascending. The
// anchor's row is its ISA sample, so the walk starts at no Ψ step; a
// read steps each of the anchors it crosses as a chain of its own. A j
// out of range (or an α-sampled store) gives a walker that reads
// nothing.
func (s *Store) WalkAnchor(j, off int, cuts []int) Walker {
	if j < 0 || j >= s.Anchors() || off < 0 || off >= s.n-1 {
		return Walker{s: s, off: s.n - 1}
	}
	s.chargeSamples(j, 1)
	row := s.anchorBase + int(s.rowOf.Get(j))
	s.chargePsiAt(row)
	if telemetry.Enabled() {
		mISALookups.Inc()
	}
	return Walker{s: s, row: row, off: off, cuts: cuts, next: j + 1}
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

// point returns the text offset of the walk's sample point q: q·α on an
// α-sampled store; on an anchored one anchor q's, if the walk was given
// it, else one past the text.
func (w *Walker) point(q int) int {
	s := w.s
	if s.alpha > 0 {
		return q * s.alpha
	}
	if i := q - w.next; i < len(w.cuts) && q < s.rowOf.Len() {
		return w.cuts[i]
	}
	return s.n
}

// pointRow returns the row of sample point q, which lies in the text:
// its ISA sample.
func (w *Walker) pointRow(q int) int {
	if s := w.s; s.alpha == 0 {
		return s.anchorBase + int(s.rowOf.Get(q))
	}
	return int(w.s.isaSamples.Get(q))
}

// firstPoint returns the number of the first sample point past off.
func (w *Walker) firstPoint(off int) int {
	if w.s.alpha > 0 {
		return off/w.s.alpha + 1
	}
	for len(w.cuts) > 0 && w.cuts[0] <= off {
		w.cuts, w.next = w.cuts[1:], w.next+1
	}
	return w.next
}

// appendLanes is Append stepping at most k ≤ maxWalkLanes chains at once.
// The first chain continues the walker's row up to the next sample
// point; every later one starts on its point's ISA sample, at no Ψ step.
// A chain that finishes frees its lane for the next. Every byte is one Ψ
// step, as in a single chain: only the order of the steps differs.
func (w *Walker) appendLanes(dst []byte, n, k int) []byte {
	s := w.s
	start, end := w.off, min(w.off+n, s.n-1) // offset n-1 is the sentinel
	if end <= start {
		return dst
	}
	// Text offset p lands at dst[at+p]; every byte of the span is written
	// below. The next chain starts at point q, text offset next.
	at := len(dst) - start
	dst = slices.Grow(dst, end-start)[:len(dst)+end-start]
	q := w.firstPoint(start)
	next := w.point(q)
	if s.med != nil && next < end {
		// The chains' ISA samples are adjacent: bill them as one read.
		s.chargeSamples(q, w.pointsBefore(q, end))
	}
	psi, shift, chars := s.psi, s.psiShift, s.bucketChar
	var lanes [maxWalkLanes]chain
	lanes[0] = chain{w.row, start, min(next, end)}
	live := 1
	stop, stopRow := end, 0
	since := w.since
	for {
		for ; live < k && next < end; live++ { // fill the free lanes
			after := w.point(q + 1)
			lanes[live] = chain{w.pointRow(q), next, min(after, end)}
			q, next = q+1, after
		}
		if live == 0 {
			break
		}
		for i := 0; i < live; i++ {
			l := &lanes[i]
			v := psi.Get(l.row) // stepRow, with the fields in locals
			c, r := chars[v>>shift], int(v&(1<<shift-1))
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

// pointsBefore counts the sample points from q, the first past the
// cursor, that lie before end.
func (w *Walker) pointsBefore(q, end int) int {
	if w.s.alpha > 0 {
		return (end-1)/w.s.alpha - q + 1
	}
	return sort.SearchInts(w.cuts, end)
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
	if s.alpha > 0 && target%s.alpha < walkCost {
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
