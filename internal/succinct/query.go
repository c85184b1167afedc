package succinct

import "slices"

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
// pattern[k:] is refined into the range for pattern[k-1:] with two binary
// searches inside the bucket of pattern[k-1], exploiting the monotonicity
// of Ψ within a bucket.
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
		size := bEnd - bStart
		// Rows i in the bucket with Ψ(i) in [lo, hi).
		if s.med != nil {
			s.med.Access(s.regPsi, int64(float64(bStart)*s.psiBytesPerRow), 64)
		}
		newLo := s.psi[b].SearchGE(0, size, uint64(lo))
		newHi := s.psi[b].SearchGE(newLo, size, uint64(hi))
		lo, hi = bStart+newLo, bStart+newHi
	}
	return lo, hi
}

// Count returns the number of occurrences of pattern in the text.
func (s *Store) Count(pattern []byte) int {
	lo, hi := s.searchRange(pattern)
	return hi - lo
}

// Search returns the text offsets of every occurrence of pattern, in
// ascending order.
func (s *Store) Search(pattern []byte) []int64 {
	lo, hi := s.searchRange(pattern)
	if lo >= hi {
		return nil
	}
	out := make([]int64, 0, hi-lo)
	for row := lo; row < hi; row++ {
		out = append(out, int64(s.LookupSA(row)))
	}
	slices.Sort(out)
	return out
}
