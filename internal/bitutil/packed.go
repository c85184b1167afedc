// Package bitutil provides the bit-level building blocks used by the
// succinct data structures: fixed-width bit-packed integer vectors,
// block-compressed monotone sequences, and sparse sets with rank.
//
// All structures in this package are immutable after construction and
// safe for concurrent readers.
package bitutil

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// PackedVector stores n unsigned integers of a fixed bit width w (1..64)
// contiguously in a []uint64. It is the core storage primitive for
// sampled suffix-array values, Ψ deltas and layout offset tables: space is
// n*w bits instead of n*64.
type PackedVector struct {
	words []uint64
	width uint
	n     int
}

// NewPackedVector returns a zeroed vector holding n values of the given
// bit width. Width 0 is promoted to 1 so that a vector of all zeros is
// still addressable.
func NewPackedVector(n int, width uint) *PackedVector {
	if width == 0 {
		width = 1
	}
	if width > 64 {
		panic(fmt.Sprintf("bitutil: width %d out of range", width))
	}
	nbits := uint64(n) * uint64(width)
	return &PackedVector{
		words: make([]uint64, (nbits+63)/64),
		width: width,
		n:     n,
	}
}

// PackSlice packs vals into a new vector wide enough for the largest
// element.
func PackSlice(vals []uint64) *PackedVector {
	var maxV uint64
	for _, v := range vals {
		if v > maxV {
			maxV = v
		}
	}
	pv := NewPackedVector(len(vals), WidthFor(maxV))
	for i, v := range vals {
		pv.Set(i, v)
	}
	return pv
}

// WidthFor returns the number of bits needed to represent v (at least 1).
func WidthFor(v uint64) uint {
	if v == 0 {
		return 1
	}
	return uint(bits.Len64(v))
}

// Len returns the number of elements.
func (pv *PackedVector) Len() int { return pv.n }

// SizeBytes returns the in-memory footprint of the payload.
func (pv *PackedVector) SizeBytes() int { return len(pv.words) * 8 }

// Set stores v at index i. v must fit in the vector's width.
func (pv *PackedVector) Set(i int, v uint64) {
	if i < 0 || i >= pv.n {
		panic(fmt.Sprintf("bitutil: index %d out of range [0,%d)", i, pv.n))
	}
	if pv.width < 64 && v >= 1<<pv.width {
		panic(fmt.Sprintf("bitutil: value %d exceeds width %d", v, pv.width))
	}
	bitPos := uint64(i) * uint64(pv.width)
	word, off := bitPos/64, uint(bitPos%64)
	mask := ^uint64(0) >> (64 - pv.width)
	pv.words[word] &^= mask << off
	pv.words[word] |= v << off
	if off+pv.width > 64 {
		spill := off + pv.width - 64
		pv.words[word+1] &^= ^uint64(0) >> (64 - spill)
		pv.words[word+1] |= v >> (pv.width - spill)
	}
}

// Get returns the value at index i.
func (pv *PackedVector) Get(i int) uint64 {
	bitPos := uint64(i) * uint64(pv.width)
	word, off := bitPos/64, uint(bitPos%64)
	mask := ^uint64(0) >> (64 - pv.width)
	v := pv.words[word] >> off
	if off+pv.width > 64 {
		v |= pv.words[word+1] << (64 - off)
	}
	return v & mask
}

// AppendBinary serializes the vector into buf and returns the extended
// slice. Format: width (1 byte), n (8 bytes LE), words.
func (pv *PackedVector) AppendBinary(buf []byte) []byte {
	buf = append(buf, byte(pv.width))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(pv.n))
	for _, w := range pv.words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

// DecodePackedVector reads a vector serialized with AppendBinary and
// returns it together with the number of bytes consumed.
func DecodePackedVector(buf []byte) (*PackedVector, int, error) {
	if len(buf) < 9 {
		return nil, 0, fmt.Errorf("bitutil: truncated packed vector header")
	}
	width := uint(buf[0])
	if width == 0 || width > 64 {
		return nil, 0, fmt.Errorf("bitutil: invalid packed vector width %d", width)
	}
	// An element is at least a bit; checking first keeps the product
	// below from overflowing.
	n64 := binary.LittleEndian.Uint64(buf[1:9])
	if n64 > uint64(len(buf))*8 {
		return nil, 0, fmt.Errorf("bitutil: packed vector of %d elements exceeds its %d bytes", n64, len(buf))
	}
	n := int(n64)
	nbits := uint64(n) * uint64(width)
	nwords := int((nbits + 63) / 64)
	need := 9 + nwords*8
	if len(buf) < need {
		return nil, 0, fmt.Errorf("bitutil: truncated packed vector payload")
	}
	words := make([]uint64, nwords)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(buf[9+i*8:])
	}
	return &PackedVector{words: words, width: width, n: n}, need, nil
}
