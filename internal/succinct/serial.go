package succinct

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"zipg/internal/bitutil"
	"zipg/internal/memsim"
)

// serialMagic identifies a serialized Store and its format version.
// There is one version: ZSUC1 and ZSUC2 (Ψ buckets in the four-array
// monotone vector form), ZSUC3 (a directory record per block, the
// sampled rows as a bitmap), ZSUC4 (a codec tag byte ahead of each
// sample array), ZSUC5 (one Ψ vector per bucket) and ZSUC6 (every store
// on the α grid) are refused by name, like any other magic.
const serialMagic = "ZSUC7\x00"

// MarshalBinary serializes the store into a flat byte slice. The format
// is what cmd/zipg-load writes and what servers load at startup; it
// mirrors the paper's "serialized flat files" persistence (§4.1).
func (s *Store) MarshalBinary() []byte {
	buf := []byte(serialMagic)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.n))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.alpha))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(s.bucketChar)))
	if s.alpha == 0 {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.anchor))
	}
	for _, c := range s.bucketChar {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c))
	}
	for _, st := range s.bucketStart {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(st))
	}
	buf = s.psi.AppendBinary(buf)
	if s.alpha > 0 {
		buf = s.saMarks.AppendBinary(buf)
	}
	sa, isa := s.samples()
	buf = sa.AppendBinary(buf)
	return isa.AppendBinary(buf)
}

// UnmarshalStore reconstructs a Store serialized by MarshalBinary,
// placing it on med (nil for plain memory).
func UnmarshalStore(buf []byte, med *memsim.Medium) (*Store, error) {
	if len(buf) < len(serialMagic) || string(buf[:len(serialMagic)]) != serialMagic {
		return nil, fmt.Errorf("succinct: unsupported format version %q (this build reads %q)",
			buf[:min(len(buf), len(serialMagic))], serialMagic)
	}
	pos := len(serialMagic)
	if len(buf) < pos+24 {
		return nil, fmt.Errorf("succinct: truncated header")
	}
	s := &Store{med: med}
	s.n = int(binary.LittleEndian.Uint64(buf[pos:]))
	s.alpha = int(binary.LittleEndian.Uint64(buf[pos+8:]))
	nb := int(binary.LittleEndian.Uint64(buf[pos+16:]))
	pos += 24
	if s.n <= 0 || s.n > math.MaxInt32 || s.alpha < 0 || s.alpha > math.MaxInt32 || nb <= 0 || nb > 257 {
		return nil, fmt.Errorf("succinct: corrupt header (n=%d alpha=%d buckets=%d)", s.n, s.alpha, nb)
	}
	if s.alpha == 0 { // anchored: the anchor's shifted byte follows
		if len(buf) < pos+8 {
			return nil, fmt.Errorf("succinct: truncated header")
		}
		a := binary.LittleEndian.Uint64(buf[pos:])
		if a == 0 || a > 256 {
			return nil, fmt.Errorf("succinct: corrupt header (anchor %d)", a)
		}
		s.anchor = int32(a)
		pos += 8
	}
	need := nb*4 + (nb+1)*4
	if len(buf) < pos+need {
		return nil, fmt.Errorf("succinct: truncated bucket tables")
	}
	s.bucketChar = make([]int32, nb)
	for i := range s.bucketChar {
		s.bucketChar[i] = int32(binary.LittleEndian.Uint32(buf[pos+i*4:]))
	}
	pos += nb * 4
	s.bucketStart = make([]int32, nb+1)
	for i := range s.bucketStart {
		s.bucketStart[i] = int32(binary.LittleEndian.Uint32(buf[pos+i*4:]))
	}
	pos += (nb + 1) * 4
	// The decoders below make each structure safe to read on its own; the
	// checks here make them safe to read through one another, so that no
	// row, rank or position one of them yields is out of range for the
	// next: the buckets tile [0, n) in character order, Ψ has a value for
	// every row, holding the row's bucket above a row, and the samples
	// are one per α positions and in range.
	if s.bucketStart[0] != 0 || int(s.bucketStart[nb]) != s.n {
		return nil, fmt.Errorf("succinct: buckets span rows [%d,%d) of %d", s.bucketStart[0], s.bucketStart[nb], s.n)
	}
	for i, c := range s.bucketChar {
		if c < 0 || c > 256 || (i > 0 && c <= s.bucketChar[i-1]) || s.bucketStart[i+1] < s.bucketStart[i] {
			return nil, fmt.Errorf("succinct: bucket %d (char %d, rows [%d,%d)) out of order", i, c, s.bucketStart[i], s.bucketStart[i+1])
		}
	}

	s.psiShift = uint(bits.Len(uint(s.n)))
	var err error
	var k int
	if s.psi, k, err = bitutil.DecodeMonotoneVector(buf[pos:]); err != nil {
		return nil, fmt.Errorf("succinct: psi: %w", err)
	}
	pos += k
	if s.psi.Len() != s.n {
		return nil, fmt.Errorf("succinct: psi: %d values for %d rows", s.psi.Len(), s.n)
	}
	b := 0
	if !s.psi.Each(func(row int, v uint64) bool {
		for int(s.bucketStart[b+1]) <= row {
			b++
		}
		return v>>s.psiShift == uint64(b) && v&(1<<s.psiShift-1) < uint64(s.n)
	}) {
		return nil, fmt.Errorf("succinct: psi: a row of bucket %d holds another bucket or a row past %d", b, s.n)
	}
	if s.alpha == 0 {
		if err := s.decodeAnchors(buf[pos:]); err != nil {
			return nil, err
		}
		s.finish()
		return s, nil
	}
	if s.saMarks, k, err = bitutil.DecodeSparseSet(buf[pos:]); err != nil {
		return nil, fmt.Errorf("succinct: sampled rows: %w", err)
	}
	pos += k
	if s.saSamples, k, err = bitutil.DecodePackedVector(buf[pos:]); err != nil {
		return nil, fmt.Errorf("succinct: sa samples: %w", err)
	}
	pos += k
	if s.isaSamples, _, err = bitutil.DecodePackedVector(buf[pos:]); err != nil {
		return nil, fmt.Errorf("succinct: isa samples: %w", err)
	}
	nsamples := (s.n + s.alpha - 1) / s.alpha
	if s.saMarks.Universe() != s.n || s.saMarks.Len() != nsamples || s.saSamples.Len() != nsamples || s.isaSamples.Len() != nsamples {
		return nil, fmt.Errorf("succinct: %d sampled rows of %d, %d sa samples, %d isa samples, want %d each of %d rows",
			s.saMarks.Len(), s.saMarks.Universe(), s.saSamples.Len(), s.isaSamples.Len(), nsamples, s.n)
	}
	for i := 0; i < nsamples; i++ {
		if v := s.saSamples.Get(i); v >= uint64(nsamples) {
			return nil, fmt.Errorf("succinct: sa sample %d, want below %d", v, nsamples)
		}
		if v := s.isaSamples.Get(i); v >= uint64(s.n) {
			return nil, fmt.Errorf("succinct: isa sample %d, want below %d", v, s.n)
		}
	}
	s.finish()
	return s, nil
}

// decodeAnchors reads an anchored store's two sample arrays from buf and
// checks them against its buckets: one entry per row of the anchor's
// bucket each (none when the text has no anchor), every anchor number
// and bucket offset below that count, and each array the other's
// inverse, so a walk started on an anchor's sample is on that anchor's
// row, and a hit is given the number of the anchor it reached.
func (s *Store) decodeAnchors(buf []byte) error {
	count := 0
	if b := s.bucketOfChar(s.anchor); b >= 0 {
		s.anchorBase, count = int(s.bucketStart[b]), int(s.bucketStart[b+1]-s.bucketStart[b])
	}
	var err error
	var k int
	if s.listOf, k, err = bitutil.DecodePackedVector(buf); err != nil {
		return fmt.Errorf("succinct: anchor numbers: %w", err)
	}
	if s.rowOf, _, err = bitutil.DecodePackedVector(buf[k:]); err != nil {
		return fmt.Errorf("succinct: anchor rows: %w", err)
	}
	if s.listOf.Len() != count || s.rowOf.Len() != count {
		return fmt.Errorf("succinct: %d anchor numbers and %d anchor rows for the %d rows of anchor byte 0x%02x",
			s.listOf.Len(), s.rowOf.Len(), count, s.anchor-1)
	}
	for i := range count {
		if j := s.listOf.Get(i); j >= uint64(count) {
			return fmt.Errorf("succinct: anchor number %d, want below %d", j, count)
		}
		if r := s.rowOf.Get(i); r >= uint64(count) {
			return fmt.Errorf("succinct: anchor row %d, want below the bucket's %d", r, count)
		}
	}
	for i := range count {
		if s.rowOf.Get(int(s.listOf.Get(i))) != uint64(i) {
			return fmt.Errorf("succinct: anchor samples are not each other's inverse at row %d", i)
		}
	}
	return nil
}
