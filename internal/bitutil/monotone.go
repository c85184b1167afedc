package bitutil

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// monotoneBlock is the number of elements per anchor block in a
// MonotoneVector. Smaller blocks mean faster random access (fewer deltas
// to sum) and — because each block picks its own delta width — better
// isolation of Ψ's delta=1 runs from occasional large deltas, which is
// where the structure's compression comes from. 16 balances per-block
// overhead (~3 bits/element) against run purity.
const monotoneBlock = 16

// monotoneHalf is the half-block sub-anchor position. A block's bit
// stream stores, in place of the plain delta for element monotoneHalf,
// the cumulative delta from the block anchor (monotoneHalf deltas summed
// fit in the block width + 3 bits), so a random access sums at most
// monotoneHalf-1 plain deltas from the nearer of the anchor and the
// sub-anchor — for 3 extra bits per block instead of a second absolute
// anchor table. Width-1 blocks (the bulk of Ψ for compressible text)
// skip the slot entirely: their prefix sum is a popcount of one bit
// window, already O(1).
const monotoneHalf = monotoneBlock / 2

// MonotoneBlockSize is monotoneBlock, exported so batch kernels can
// reason about which accesses share a cursor block without decoding.
const MonotoneBlockSize = monotoneBlock

// hasMid reports whether a block carries a sub-anchor slot: only blocks
// that extend past the midpoint and are wide enough that summing
// monotoneBlock-1 deltas would actually cost something. For w<=1 the
// prefix sum is a single masked popcount, so the 3 extra bits buy
// nothing.
func hasMid(w uint, cnt int) bool {
	return w >= 2 && cnt > monotoneHalf
}

// MonotoneVector stores a non-decreasing sequence of integers as one
// bit-packed directory record per block plus bit-packed per-block deltas,
// where each block chooses its own delta width. Within each character
// bucket the succinct store's Ψ array is strictly increasing and — for
// compressible text — dominated by +1 runs, so per-block widths are where
// the compression of the whole structure comes from.
//
// A directory record is
//
//	[ anchor (aw bits) | width (7 bits, 0..64) | payload bit offset (ow bits) ]
//
// with aw and ow chosen per vector: everything a random access needs to
// know about a block arrives in one windowed load (two when a record is
// wider than 64 bits). When the whole sequence is strictly increasing
// (strict = 1) every delta is stored minus one, so a +1 run has width 0
// and no payload at all: Get is anchor + j from the record alone. A
// sequence with a repeated value stores plain deltas (strict = 0).
//
// Random access to element i sums at most monotoneHalf deltas; use a
// MonotoneCursor for sequential access (one block decode per
// monotoneBlock elements).
type MonotoneVector struct {
	n      int
	strict uint64 // 1: deltas are stored minus one
	aw, ow uint   // anchor and payload-offset field widths
	rw     uint   // record width: aw + widthBits + ow
	amask  uint64
	omask  uint64
	dir    []uint64 // nblocks records, plus one pad word for window
	bits   []uint64 // concatenated delta payload (with sub-anchor slots)

	emptyBlocks int // width-0 blocks, counted at build/decode for Stats
}

const (
	// widthBits is the size of a record's delta-width field (0..64).
	widthBits = 7
	widthMask = 1<<widthBits - 1
	// maxOffsetWidth keeps width and offset inside one window.
	maxOffsetWidth = 64 - widthBits
)

// midWidth returns the bit width of a block's sub-anchor slot: the
// cumulative delta over monotoneHalf deltas of width w needs w+3 bits,
// capped at a machine word.
func midWidth(w uint) uint {
	if w+3 > 64 {
		return 64
	}
	return w + 3
}

// blockPayloadBits returns the bit-stream size of a block holding cnt
// elements at delta width w: cnt-1 slots, one of which is the wider
// sub-anchor slot when the block extends past its midpoint.
func blockPayloadBits(w uint, cnt int) uint64 {
	if w == 0 || cnt <= 1 {
		return 0
	}
	if !hasMid(w, cnt) {
		return uint64(w) * uint64(cnt-1)
	}
	return uint64(w)*uint64(cnt-2) + uint64(midWidth(w))
}

// blockCount returns how many elements block b of an n-element vector
// holds: monotoneBlock, or less for the final block.
func blockCount(n, b int) int {
	return min(n-b*monotoneBlock, monotoneBlock)
}

// NewMonotoneVector compresses vals, which must be non-decreasing.
func NewMonotoneVector(vals []uint64) *MonotoneVector {
	n := len(vals)
	nblocks := (n + monotoneBlock - 1) / monotoneBlock

	// First pass: per-block max delta, and whether any value repeats.
	maxDelta := make([]uint64, nblocks)
	strict := uint64(1)
	for i := 1; i < n; i++ {
		if vals[i] < vals[i-1] {
			panic(fmt.Sprintf("bitutil: sequence not monotone at %d: %d < %d", i, vals[i], vals[i-1]))
		}
		d := vals[i] - vals[i-1]
		if d == 0 {
			strict = 0
		}
		if b := i / monotoneBlock; i%monotoneBlock != 0 && d > maxDelta[b] {
			maxDelta[b] = d
		}
	}

	// Lay out the bit stream.
	mv := &MonotoneVector{n: n, strict: strict}
	widths := make([]uint8, nblocks)
	offs := make([]uint64, nblocks)
	var totalBits uint64
	for b := range widths {
		if maxDelta[b] > strict {
			widths[b] = uint8(bits.Len64(maxDelta[b] - strict))
		} else {
			mv.emptyBlocks++
		}
		offs[b] = totalBits
		totalBits += blockPayloadBits(uint(widths[b]), blockCount(n, b))
	}
	mv.bits = make([]uint64, (totalBits+63)/64)
	var lastAnchor uint64
	if nblocks > 0 {
		lastAnchor = vals[(nblocks-1)*monotoneBlock]
	}
	mv.setFieldWidths(WidthFor(lastAnchor), WidthFor(totalBits))
	mv.dir = make([]uint64, dirWords(nblocks, mv.rw))
	for b := 0; b < nblocks; b++ {
		start := b * monotoneBlock
		end := start + blockCount(n, b)
		w := uint(widths[b])
		rec := uint64(b) * uint64(mv.rw)
		writeBits(mv.dir, rec, mv.aw, vals[start])
		writeBits(mv.dir, rec+uint64(mv.aw), widthBits+mv.ow, uint64(w)|offs[b]<<widthBits)
		if w == 0 {
			continue
		}
		pos := offs[b]
		mid := hasMid(w, end-start)
		for i := start + 1; i < end; i++ {
			if mid && i-start == monotoneHalf {
				// Sub-anchor slot: cumulative stored delta from the anchor.
				writeBits(mv.bits, pos, midWidth(w), vals[i]-vals[start]-strict*monotoneHalf)
				pos += uint64(midWidth(w))
				continue
			}
			writeBits(mv.bits, pos, w, vals[i]-vals[i-1]-strict)
			pos += uint64(w)
		}
	}
	return mv
}

// setFieldWidths fixes the record geometry from the two per-vector field
// widths.
func (mv *MonotoneVector) setFieldWidths(aw, ow uint) {
	mv.aw, mv.ow = aw, ow
	mv.rw = aw + widthBits + ow
	mv.amask = ^uint64(0) >> (64 - aw)
	mv.omask = ^uint64(0) >> (64 - ow)
}

// dirWords returns the directory's length in words: the records plus one
// pad word, so a two-word window over any record bit stays in bounds.
func dirWords(nblocks int, rw uint) int {
	return int((uint64(nblocks)*uint64(rw)+63)/64) + 1
}

// window returns the 64 bits of words starting at bit pos. The word
// after pos's must exist (see dirWords).
func window(words []uint64, pos uint64) uint64 {
	word, off := pos/64, uint(pos%64)
	hi := words[word+1] // checked first, so the load below needs no check
	return words[word]>>off | hi<<(64-off)
}

// record returns block b's anchor, delta width and payload bit offset.
func (mv *MonotoneVector) record(b uint) (anchor uint64, w uint, off uint64) {
	pos := uint64(b) * uint64(mv.rw)
	x := window(mv.dir, pos)
	anchor = x & mv.amask
	if mv.rw <= 64 {
		x >>= mv.aw
	} else {
		x = window(mv.dir, pos+uint64(mv.aw))
	}
	return anchor, uint(x & widthMask), x >> widthBits & mv.omask
}

// anchor returns block b's first value.
func (mv *MonotoneVector) anchor(b int) uint64 {
	return window(mv.dir, uint64(b)*uint64(mv.rw)) & mv.amask
}

// Len returns the number of elements.
func (mv *MonotoneVector) Len() int { return mv.n }

// Get returns element i. Width-0 blocks (+1 runs of a strict sequence,
// constant runs otherwise) resolve from the directory record alone.
func (mv *MonotoneVector) Get(i int) uint64 {
	j := uint(i) % monotoneBlock
	anchor, w, base := mv.record(uint(i) / monotoneBlock)
	v := anchor + mv.strict*uint64(j)
	if w == 0 || j == 0 {
		return v
	}
	return v + mv.deltaSum(w, base, j)
}

// deltaSum returns the sum of the first j stored deltas (1 <= j <
// monotoneBlock) of a block of width w >= 1 whose payload starts at bit
// base, from the nearer of the block start and the half-block sub-anchor:
// at most monotoneHalf-1 plain deltas plus possibly the sub-anchor slot.
// Width-1 blocks resolve with one masked popcount.
func (mv *MonotoneVector) deltaSum(w uint, base uint64, j uint) uint64 {
	if w == 1 {
		// The first j deltas are j consecutive bits: one windowed read,
		// one popcount.
		return uint64(bits.OnesCount64(readBits(mv.bits, base, j)))
	}
	var sum uint64
	from := uint(0)
	pos := base
	if j >= monotoneHalf {
		// j past the midpoint implies the block extends past it, so the
		// sub-anchor slot exists (w >= 2 here): jump to it, then sum the
		// plain deltas past it.
		pos += uint64(w) * (monotoneHalf - 1)
		sum = readBits(mv.bits, pos, midWidth(w))
		pos += uint64(midWidth(w))
		from = monotoneHalf
	}
	for k := from + 1; k <= j; k++ {
		sum += readBits(mv.bits, pos, w)
		pos += uint64(w)
	}
	return sum
}

// decodeBlock expands block b into out[0:cnt] as absolute values,
// returning cnt (monotoneBlock, or less for the final block). One call
// replaces up to monotoneBlock delta re-sums on sequential access.
func (mv *MonotoneVector) decodeBlock(b int, out *[monotoneBlock]uint64) int {
	cnt := blockCount(mv.n, b)
	anchor, w, pos := mv.record(uint(b))
	out[0] = anchor
	if w == 0 {
		for k := 1; k < cnt; k++ {
			out[k] = anchor + mv.strict*uint64(k)
		}
		return cnt
	}
	v := anchor
	mid := hasMid(w, cnt)
	for k := 1; k < cnt; k++ {
		if mid && k == monotoneHalf {
			v = anchor + mv.strict*monotoneHalf + readBits(mv.bits, pos, midWidth(w))
			pos += uint64(midWidth(w))
		} else {
			v += mv.strict + readBits(mv.bits, pos, w)
			pos += uint64(w)
		}
		out[k] = v
	}
	return cnt
}

// SearchGE returns the smallest index i in [lo, hi) with Get(i) >= target,
// or hi if none. The sequence is non-decreasing by construction.
//
// Instead of binary-searching element probes (each a delta re-sum), it
// binary-searches the anchor field of the directory records to isolate
// the single candidate block, decodes that block once, and scans the
// decoded values.
func (mv *MonotoneVector) SearchGE(lo, hi int, target uint64) int {
	if lo >= hi {
		return lo
	}
	b0 := lo / monotoneBlock
	b1 := (hi - 1) / monotoneBlock
	// First block past b0 whose anchor reaches target: every in-range
	// index at or past its start satisfies the predicate, so the answer
	// is inside the preceding block or is that block's first index.
	loB, hiB := b0+1, b1+1
	for loB < hiB {
		mid := int(uint(loB+hiB) >> 1)
		if mv.anchor(mid) >= target {
			hiB = mid
		} else {
			loB = mid + 1
		}
	}
	bb := loB
	var vals [monotoneBlock]uint64
	start := (bb - 1) * monotoneBlock
	cnt := mv.decodeBlock(bb-1, &vals)
	from, to := lo, hi
	if from < start {
		from = start
	}
	if to > start+cnt {
		to = start + cnt
	}
	for i := from; i < to; i++ {
		if vals[i-start] >= target {
			return i
		}
	}
	if bb <= b1 {
		return bb * monotoneBlock
	}
	return hi
}

// SizeBytes returns the in-memory footprint of the payload.
func (mv *MonotoneVector) SizeBytes() int {
	return (len(mv.dir) + len(mv.bits)) * 8
}

// MonotoneStats says where a vector's bytes go: how many of its blocks
// are served from the directory record alone, and how the footprint
// splits between directory and delta payload.
type MonotoneStats struct {
	Blocks       int
	EmptyBlocks  int // width 0: +1 runs when strict, constant runs otherwise
	DirBytes     int
	PayloadBytes int
}

// Stats reports the vector's block and byte breakdown (counted when the
// vector was built or decoded).
func (mv *MonotoneVector) Stats() MonotoneStats {
	return MonotoneStats{
		Blocks:       (mv.n + monotoneBlock - 1) / monotoneBlock,
		EmptyBlocks:  mv.emptyBlocks,
		DirBytes:     len(mv.dir) * 8,
		PayloadBytes: len(mv.bits) * 8,
	}
}

// monotoneHeader is the fixed part of the serial form: n, then one byte
// each for strict, aw and ow, then the payload word count.
const monotoneHeader = 8 + 3 + 8

// AppendBinary serializes the vector: the header, the directory records
// (without the pad word) and the payload words.
func (mv *MonotoneVector) AppendBinary(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(mv.n))
	buf = append(buf, byte(mv.strict), byte(mv.aw), byte(mv.ow))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(mv.bits)))
	for _, w := range mv.dir[:len(mv.dir)-1] {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	for _, w := range mv.bits {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

// DecodeMonotoneVector reads a vector serialized with AppendBinary and
// returns it with the number of bytes consumed. The input is untrusted:
// the field widths, the directory and payload lengths and every block's
// width and payload extent are checked here, so no accessor of the
// returned vector can index out of range.
func DecodeMonotoneVector(buf []byte) (*MonotoneVector, int, error) {
	if len(buf) < monotoneHeader {
		return nil, 0, fmt.Errorf("bitutil: truncated monotone vector header")
	}
	n64 := binary.LittleEndian.Uint64(buf)
	strict, aw, ow := buf[8], uint(buf[9]), uint(buf[10])
	nbits := binary.LittleEndian.Uint64(buf[11:])
	if strict > 1 {
		return nil, 0, fmt.Errorf("bitutil: invalid monotone strict flag %d", strict)
	}
	if aw < 1 || aw > 64 || ow < 1 || ow > maxOffsetWidth {
		return nil, 0, fmt.Errorf("bitutil: invalid monotone field widths (anchor %d, offset %d)", aw, ow)
	}
	// A record is more than a byte, so more blocks than bytes is
	// corrupt; checking first keeps the products below from overflowing.
	avail := uint64(len(buf) - monotoneHeader)
	nblocks := (n64 + monotoneBlock - 1) / monotoneBlock
	if n64 > uint64(len(buf))*monotoneBlock || nbits > avail/8 {
		return nil, 0, fmt.Errorf("bitutil: monotone vector of %d elements, %d payload words exceeds its %d bytes", n64, nbits, len(buf))
	}
	mv := &MonotoneVector{n: int(n64), strict: uint64(strict)}
	mv.setFieldWidths(aw, ow)
	ndir := dirWords(int(nblocks), mv.rw)
	if uint64(ndir-1)+nbits > avail/8 {
		return nil, 0, fmt.Errorf("bitutil: truncated monotone vector: %d blocks need %d directory words", nblocks, ndir-1)
	}
	pos := monotoneHeader
	mv.dir = make([]uint64, ndir)
	for i := range mv.dir[:ndir-1] {
		mv.dir[i] = binary.LittleEndian.Uint64(buf[pos:])
		pos += 8
	}
	mv.bits = make([]uint64, nbits)
	for i := range mv.bits {
		mv.bits[i] = binary.LittleEndian.Uint64(buf[pos:])
		pos += 8
	}
	for b := 0; b < int(nblocks); b++ {
		_, w, off := mv.record(uint(b))
		if w > 64 {
			return nil, 0, fmt.Errorf("bitutil: monotone block %d: delta width %d", b, w)
		}
		if w == 0 {
			mv.emptyBlocks++
		}
		if end := off + blockPayloadBits(w, blockCount(mv.n, b)); end > nbits*64 {
			return nil, 0, fmt.Errorf("bitutil: monotone block %d: payload bits [%d,%d) past the %d stored", b, off, end, nbits*64)
		}
	}
	return mv, pos, nil
}

// Cursor returns a streaming cursor positioned at index 0. (Historically
// this returned a MonotoneVector-specific cursor; the codec layer
// generalized it to SeqCursor, which streams any Seq.)
func (mv *MonotoneVector) Cursor() SeqCursor {
	return NewSeqCursor(mv)
}

// CodecID identifies the legacy hand-rolled packing.
func (mv *MonotoneVector) CodecID() CodecID { return CodecLegacy }

// Monotone reports the monotone (delta) encoding layout.
func (mv *MonotoneVector) Monotone() bool { return true }

// DecodeAll appends every element to dst and returns it.
func (mv *MonotoneVector) DecodeAll(dst []uint64) []uint64 {
	var blk [monotoneBlock]uint64
	nblocks := (mv.n + monotoneBlock - 1) / monotoneBlock
	for b := 0; b < nblocks; b++ {
		cnt := mv.decodeBlock(b, &blk)
		dst = append(dst, blk[:cnt]...)
	}
	return dst
}

// DecodeBlockInto expands block b into dst as absolute values and
// returns the element count (short for the final block; only the first
// count slots are written). Batch kernels use it to fill a shared
// decoded-block cache where one decode serves every later access to
// the block as a plain array read.
func (mv *MonotoneVector) DecodeBlockInto(b int, dst *[MonotoneBlockSize]uint64) int {
	return mv.decodeBlock(b, dst)
}

// writeBits stores the low w bits of v at bit position pos.
func writeBits(words []uint64, pos uint64, w uint, v uint64) {
	word, off := pos/64, uint(pos%64)
	words[word] |= v << off
	if off+w > 64 {
		words[word+1] |= v >> (64 - off)
	}
}

// readBits reads w bits at bit position pos.
func readBits(words []uint64, pos uint64, w uint) uint64 {
	word, off := pos/64, uint(pos%64)
	v := words[word] >> off
	if off+w > 64 {
		v |= words[word+1] << (64 - off)
	}
	return v & (^uint64(0) >> (64 - w))
}
