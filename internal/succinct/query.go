package succinct

import (
	"slices"

	"zipg/internal/telemetry"
)

// Extract returns up to length bytes of the original text starting at
// offset off. If off+length runs past the end of the text the result is
// truncated. This is Succinct's random-access primitive: it recovers the
// substring by walking Ψ from ISA[off], one step per byte, without
// decompressing anything else.
func (s *Store) Extract(off, length int) []byte {
	if off < 0 || off >= s.n-1 || length <= 0 {
		return nil
	}
	return s.ExtractAppend(make([]byte, 0, length), off, length)
}

// ExtractAppend appends up to length bytes of the original text starting
// at offset off to dst and returns the extended slice — Extract without
// the allocation. With a reused destination buffer the steady state is
// zero allocations per call.
func (s *Store) ExtractAppend(dst []byte, off, length int) []byte {
	if off < 0 || off >= s.n-1 || length <= 0 {
		return dst
	}
	w := s.Walk(off)
	return w.Append(dst, length)
}

// searchRange returns the suffix-array row range [lo, hi) of suffixes
// that begin with pattern, via Ψ-based backward search: the range for
// pattern[k:] is refined into the range for pattern[k-1:] with two
// searches inside the rows of the bucket of pattern[k-1], whose values
// are the bucket's prefix above Ψ, increasing.
func (s *Store) searchRange(pattern []byte) (int, int) {
	if len(pattern) == 0 {
		return 0, 0
	}
	// Range for the last character: its whole bucket.
	c := int32(pattern[len(pattern)-1]) + 1
	b := s.bucketOfChar(c)
	if b < 0 {
		return 0, 0
	}
	lo, hi := int(s.bucketStart[b]), int(s.bucketStart[b+1])
	for k := len(pattern) - 2; k >= 0 && lo < hi; k-- {
		c = int32(pattern[k]) + 1
		b = s.bucketOfChar(c)
		if b < 0 {
			return 0, 0
		}
		bStart, bEnd := int(s.bucketStart[b]), int(s.bucketStart[b+1])
		// Rows i in the bucket with Ψ(i) in [lo, hi).
		if s.med != nil {
			s.med.Access(s.regPsi, int64(float64(bStart)*s.psiBytesPerRow), 64)
		}
		prefix := uint64(b) << s.psiShift
		lo = s.psi.SearchGE(bStart, bEnd, prefix|uint64(lo))
		hi = s.psi.SearchGE(lo, bEnd, prefix|uint64(hi))
	}
	return lo, hi
}

// Count returns the number of occurrences of pattern in the text.
func (s *Store) Count(pattern []byte) int {
	lo, hi := s.searchRange(pattern)
	return hi - lo
}

// Search returns the text offsets of every occurrence of pattern, in
// ascending order. An anchored store does not know its offsets:
// SearchAnchored places its hits.
func (s *Store) Search(pattern []byte) []int64 {
	lo, hi := s.searchRange(pattern)
	if lo >= hi || s.alpha == 0 {
		return nil
	}
	out := make([]int64, 0, hi-lo)
	for row := lo; row < hi; row++ {
		out = append(out, int64(s.LookupSA(row)))
	}
	slices.Sort(out)
	return out
}

// SearchAnchored returns, for every occurrence of pattern in an anchored
// store, the number of the last anchor at or before it (-1 if none is),
// in ascending order. Each hit walks Ψ forward to the next anchor — the
// first row whose character is the anchor, whose number its sample
// holds — so it costs as many steps as it lies before that anchor.
// Nothing on an α-sampled store.
func (s *Store) SearchAnchored(pattern []byte) []int {
	lo, hi := s.searchRange(pattern)
	if lo >= hi || s.alpha > 0 {
		return nil
	}
	out := make([]int, 0, hi-lo)
	steps := 0
	for hit := lo; hit < hi; hit++ {
		d, row := 0, hit
		j := s.Anchors() // the end of the text
		for ; d < s.n; d++ {
			c, next := s.stepRow(row)
			if c == s.anchor {
				j = int(s.listOf.Get(row - s.anchorBase))
				if s.med != nil {
					s.med.Access(s.regSA, int64(float64(row-s.anchorBase)*s.saBytesPerSample), 8)
				}
				break
			}
			if c == 0 {
				break
			}
			if d%extractChargeStride == 0 {
				s.chargePsiAt(row)
			}
			row = next
		}
		steps += d
		if d > 0 {
			j-- // the hit lies in the span before anchor j
		}
		out = append(out, j)
	}
	if telemetry.Enabled() {
		mPsiSteps.Add(int64(steps))
	}
	slices.Sort(out)
	return out
}
