package succinct

import "zipg/internal/telemetry"

// Walker streams the original text forward from a single ISA anchor
// lookup. Where Extract pays one ISA lookup (up to α Ψ steps) per call,
// a Walker pays it once and then carries its suffix-array row forward —
// so reading a record's header, skipping to a field and reading the
// field is one suffix-array walk, not three.
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
	read := 0
	for ; read < n; read++ {
		c, next := w.s.stepRow(w.row)
		if c == 0 {
			break // sentinel: end of text
		}
		dst = append(dst, byte(c-1))
		w.step(next)
	}
	if telemetry.Enabled() {
		mPsiSteps.Add(int64(read))
		mExtractBytes.Add(int64(read))
	}
	return dst
}

// AppendUntil reads bytes into dst up to (not including) the first
// occurrence of delim, stopping after max bytes if the delimiter is not
// seen earlier. The cursor is left on the delimiter (or wherever the
// read stopped).
func (w *Walker) AppendUntil(dst []byte, delim byte, max int) []byte {
	read := 0
	for ; read < max; read++ {
		c, next := w.s.stepRow(w.row)
		if c == 0 || byte(c-1) == delim {
			break
		}
		dst = append(dst, byte(c-1))
		w.step(next)
	}
	if telemetry.Enabled() {
		mPsiSteps.Add(int64(read))
		mExtractBytes.Add(int64(read))
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
