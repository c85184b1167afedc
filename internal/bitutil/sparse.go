package bitutil

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// SparseSet is an immutable set of integers in [0, n) that answers "is i
// a member, and how many members are below it" in a few loads, at a cost
// proportional to the members and not to n. It backs the value-sampled
// suffix array in the succinct store ("is row i sampled, and what is its
// sample rank?"), whose members are one row in α: a bitmap with a rank
// index pays 1.5 bits for every row, this pays 8 bits for every member
// and 32 for every sparseChunk rows — 0.375 bits a row at α = 32.
//
// [0, n) is cut into chunks of sparseChunk integers. cum[c] counts the
// members below chunk c, so chunk c's members are offs[cum[c]:cum[c+1]]:
// one byte each, the member's offset in the chunk, ascending.
type SparseSet struct {
	n    int
	cum  []uint32
	offs []byte // one per member, then sparsePad zero bytes
}

const (
	// sparseChunk is the chunk size: what one byte of offset spans.
	sparseChunk = 256
	// sparseStride is how many offsets Rank compares in one step, as two
	// words; sparsePad keeps the words read at the last member in bounds.
	sparseStride = 16
	sparsePad    = sparseStride - 1

	byteLanes = 0x0101010101010101 // a byte, times this, fills the word with it
	laneTops  = 0x8080808080808080
)

// NewSparseSet returns the set of members, which must be strictly
// increasing integers in [0, n).
func NewSparseSet(n int, members []int) *SparseSet {
	if uint64(len(members)) > math.MaxUint32 {
		panic(fmt.Sprintf("bitutil: sparse set of %d members", len(members)))
	}
	s := &SparseSet{
		n:    n,
		cum:  make([]uint32, (n+sparseChunk-1)/sparseChunk+1),
		offs: make([]byte, len(members), len(members)+sparsePad),
	}
	prev := -1
	for k, i := range members {
		if i <= prev || i >= n {
			panic(fmt.Sprintf("bitutil: sparse set member %d after %d, of [0,%d)", i, prev, n))
		}
		prev = i
		s.cum[i/sparseChunk+1]++
		s.offs[k] = byte(i % sparseChunk)
	}
	for c := 1; c < len(s.cum); c++ {
		s.cum[c] += s.cum[c-1]
	}
	s.offs = s.offs[:cap(s.offs)]
	return s
}

// Universe returns n: the set's members are in [0, n).
func (s *SparseSet) Universe() int { return s.n }

// Len returns the number of members.
func (s *SparseSet) Len() int { return len(s.offs) - sparsePad }

// zeroLanes returns a word whose lowest set bit is the top bit of the
// lowest zero byte of x, and zero when x has no zero byte. (Bits above
// the lowest may be set for bytes that are not zero.)
func zeroLanes(x uint64) uint64 {
	return (x - byteLanes) & ^x & laneTops
}

// firstLanes returns a mask of the lowest k bytes of a word, for any k:
// none when k <= 0, all when k >= 8.
func firstLanes(k int) uint64 {
	return ^uint64(0) >> (64 - 8*uint(min(max(k, 0), 8)))
}

// Rank reports whether i, in [0, n), is a member, and if so how many
// members are below it. A chunk's offsets are compared sparseStride at a
// time: two words XORed with i's offset in every byte have a zero byte
// where an offset equals it, and only the bytes that belong to the chunk
// count. With a member in 32 a chunk holds 8 on average and more than
// sparseStride once in a hundred, so the loop runs once and its length
// depends on nothing the branch predictor cannot learn.
func (s *SparseSet) Rank(i int) (rank int, ok bool) {
	c := uint(i) / sparseChunk
	lo, hi := int(s.cum[c]), int(s.cum[c+1])
	key := uint64(uint8(i)) * byteLanes
	for ; lo < hi; lo += sparseStride {
		w := s.offs[lo : lo+sparseStride]
		z0 := zeroLanes(binary.LittleEndian.Uint64(w)^key) & firstLanes(hi-lo)
		z1 := zeroLanes(binary.LittleEndian.Uint64(w[8:])^key) & firstLanes(hi-lo-8)
		if z0|z1 != 0 {
			if z0 != 0 {
				return lo + bits.TrailingZeros64(z0)/8, true
			}
			return lo + 8 + bits.TrailingZeros64(z1)/8, true
		}
	}
	return 0, false
}

// SizeBytes returns the in-memory footprint.
func (s *SparseSet) SizeBytes() int { return len(s.cum)*4 + len(s.offs) }

// AppendBinary serializes the set: n, the member count, the members
// below the end of each chunk, and the offsets.
func (s *SparseSet) AppendBinary(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.n))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Len()))
	for _, c := range s.cum[1:] {
		buf = binary.LittleEndian.AppendUint32(buf, c)
	}
	return append(buf, s.offs[:s.Len()]...)
}

// DecodeSparseSet reads a set serialized with AppendBinary and returns it
// with the number of bytes consumed. The input is untrusted: the chunk
// counts must add up to the member count and stay inside the bytes given,
// and every chunk's offsets must ascend strictly and stay below n, so
// Rank of any i in [0, n) indexes in range and counts each member once.
func DecodeSparseSet(buf []byte) (*SparseSet, int, error) {
	if len(buf) < 16 {
		return nil, 0, fmt.Errorf("bitutil: truncated sparse set header")
	}
	n64, m := binary.LittleEndian.Uint64(buf), binary.LittleEndian.Uint64(buf[8:])
	// A chunk costs four bytes, a member one; checking first keeps the
	// sums below from overflowing.
	avail := uint64(len(buf) - 16)
	if n64 > avail/4*sparseChunk || m > avail {
		return nil, 0, fmt.Errorf("bitutil: sparse set of %d members in [0,%d) exceeds its %d bytes", m, n64, len(buf))
	}
	nchunks := (n64 + sparseChunk - 1) / sparseChunk
	if nchunks*4+m > avail {
		return nil, 0, fmt.Errorf("bitutil: truncated sparse set: %d chunks and %d members need %d bytes", nchunks, m, nchunks*4+m)
	}
	s := &SparseSet{n: int(n64), cum: make([]uint32, nchunks+1)}
	pos := 16
	for c := 1; c < len(s.cum); c++ {
		s.cum[c] = binary.LittleEndian.Uint32(buf[pos:])
		pos += 4
		if s.cum[c] < s.cum[c-1] || uint64(s.cum[c]) > m {
			return nil, 0, fmt.Errorf("bitutil: sparse set chunk %d ends at member %d, after %d of %d", c-1, s.cum[c], s.cum[c-1], m)
		}
	}
	if uint64(s.cum[nchunks]) != m {
		return nil, 0, fmt.Errorf("bitutil: sparse set chunks hold %d members, header says %d", s.cum[nchunks], m)
	}
	s.offs = make([]byte, int(m)+sparsePad)
	copy(s.offs, buf[pos:pos+int(m)])
	pos += int(m)
	for c := 0; c < int(nchunks); c++ {
		limit := min(s.n-c*sparseChunk, sparseChunk)
		for k := s.cum[c]; k < s.cum[c+1]; k++ {
			if (k > s.cum[c] && s.offs[k] <= s.offs[k-1]) || int(s.offs[k]) >= limit {
				return nil, 0, fmt.Errorf("bitutil: sparse set chunk %d: offset %d at member %d out of order or past %d", c, s.offs[k], k, limit)
			}
		}
	}
	return s, pos, nil
}
