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

// hasMid reports whether a block carries a sub-anchor slot: only blocks
// that extend past the midpoint and are wide enough that summing
// monotoneBlock-1 deltas would actually cost something. For w<=1 the
// prefix sum is a single masked popcount, so the 3 extra bits buy
// nothing.
func hasMid(w uint, cnt int) bool {
	return w >= 2 && cnt > monotoneHalf
}

// MonotoneVector stores a non-decreasing sequence of integers as
// bit-packed directory records plus bit-packed per-block deltas, where
// each block chooses its own delta width. The succinct store's Ψ, with
// each row's character bucket in the high bits, is strictly increasing
// and — for compressible text — dominated by +1 runs, so per-block
// widths are where the compression of the whole structure comes from.
//
// A directory record is
//
//	[ anchor (aw bits) | width (7 bits, 0..64) | payload bit offset (ow bits) ]
//
// with aw and ow chosen per vector: everything a random access needs to
// know about a block arrives in one windowed load (two when a record is
// wider than 64 bits). The offset counts from gbase[anchor >> gshift],
// the first payload bit of the record's group: the bases follow from the
// records' widths and block counts, so they are derived, not stored.
// When the whole sequence is strictly increasing (strict = 1) every
// delta is stored minus one, so a +1 run has width 0 and no payload at
// all: Get is anchor + j from the record alone. A sequence with a
// repeated value stores plain deltas (strict = 0).
//
// The directory holds one record per run, not per block: a width-0 block
// that continues the width-0 block before it (its anchor is that block's
// anchor plus strict·monotoneBlock) writes no record, and its anchor is
// the record's plus strict·monotoneBlock per block past it. The marks
// array says which blocks wrote one, one word per spanBlocks blocks:
//
//	[ records before the span (high 32 bits) | block k of the span starts a record (bit k) ]
//
// Bit 0 is always set — a span's first block always writes a record — so
// block → record is one load, a popcount and a leading-zeros count, and
// a record is never more than spanBlocks-1 blocks back.
//
// Random access to element i sums at most monotoneHalf deltas.
type MonotoneVector struct {
	n      int
	strict uint64 // 1: deltas are stored minus one
	aw, ow uint   // anchor and payload-offset field widths
	rw     uint   // record width: aw + widthBits + ow
	amask  uint64
	omask  uint64
	gshift uint     // a record's group is its anchor >> gshift
	gbase  []uint64 // each group's first payload bit
	marks  []uint64 // one word per spanBlocks blocks
	dir    []uint64 // records, plus one pad word for window
	bits   []uint64 // concatenated delta payload (with sub-anchor slots)

	records     int // directory records, counted at build/decode
	emptyBlocks int // width-0 blocks, counted at build/decode for Stats
}

const (
	// spanBlocks is the number of blocks one marks word covers.
	spanBlocks = 32
	// widthBits is the size of a record's delta-width field (0..64).
	widthBits = 7
	widthMask = 1<<widthBits - 1
	// maxOffsetWidth keeps width and offset inside one window.
	maxOffsetWidth = 64 - widthBits
	// maxGroups bounds a vector's groups, and so its table of bases: Ψ's
	// are its at most 257 character buckets.
	maxGroups = 1 << 9
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

// NewMonotoneVector compresses vals, which must be non-decreasing and
// not negative, as one group.
func NewMonotoneVector[T int32 | int64 | uint64](vals []T) *MonotoneVector {
	if len(vals) > 0 && vals[0] < 0 {
		panic(fmt.Sprintf("bitutil: negative value %d in a monotone sequence", vals[0]))
	}
	return NewGroupedVector(len(vals), 64, func(start int, out []uint64) {
		for k := range out {
			out[k] = uint64(vals[start+k])
		}
	})
}

// NewGroupedVector compresses the n-element non-decreasing sequence that
// fill writes, a block at a time: fill(start, out) stores elements
// start… into out. A record's group is its anchor >> gshift, and its
// payload offset counts from the first payload bit of its group, so the
// offset field is as wide as one group's payload needs (gshift 64 is one
// group). fill is asked for every block twice, once more if a value
// repeats, and for its first value once more; beyond the vector the
// encoder allocates one byte per block.
func NewGroupedVector(n int, gshift uint, fill func(start int, out []uint64)) *MonotoneVector {
	nblocks := (n + monotoneBlock - 1) / monotoneBlock
	var blk [monotoneBlock]uint64

	// Per-block delta width, from the largest delta inside the block. A
	// strict sequence stores every delta minus one; a repeated value
	// turns that off, and the widths are taken again.
	mv := &MonotoneVector{n: n, strict: 1, gshift: gshift}
	widths := make([]uint8, nblocks)
	for again := true; again; {
		again = false
		var prev uint64
		for b := range widths {
			widths[b] = 0
			fill(b*monotoneBlock, blk[:blockCount(n, b)])
			for k, v := range blk[:blockCount(n, b)] {
				if i := b*monotoneBlock + k; i > 0 && v <= prev {
					if v < prev {
						panic(fmt.Sprintf("bitutil: sequence not monotone at %d: %d < %d", i, v, prev))
					}
					again = again || mv.strict == 1
					mv.strict = 0
				}
				if k > 0 {
					widths[b] = max(widths[b], uint8(bits.Len64(v-prev-mv.strict)))
				}
				prev = v
			}
		}
	}

	// The blocks that write a record — all but those continuing the
	// width-0 run of the block before — and where each record's payload
	// starts in its group's. This needs only each block's first value.
	mv.marks = make([]uint64, (nblocks+spanBlocks-1)/spanBlocks)
	var pos, maxOff, anchor uint64
	for b := range widths {
		fill(b*monotoneBlock, blk[:1])
		w, prevAnchor := widths[b], anchor
		if anchor = blk[0]; w == 0 {
			mv.emptyBlocks++
		}
		if b%spanBlocks == 0 {
			mv.marks[b/spanBlocks] = uint64(mv.records) << 32
		} else if w == 0 && widths[b-1] == 0 && anchor == prevAnchor+mv.strict*monotoneBlock {
			continue
		}
		mv.marks[b/spanBlocks] |= 1 << (b % spanBlocks)
		mv.records++
		g := anchor >> gshift
		if g >= maxGroups {
			panic(fmt.Sprintf("bitutil: value %d is in group %d, past the %d a vector holds", anchor, g, maxGroups))
		}
		for uint64(len(mv.gbase)) <= g {
			mv.gbase = append(mv.gbase, pos)
		}
		maxOff = max(maxOff, pos-mv.gbase[g])
		pos += blockPayloadBits(uint(w), blockCount(n, b))
	}
	mv.bits = make([]uint64, (pos+63)/64)
	mv.setFieldWidths(WidthFor(anchor), WidthFor(maxOff))
	mv.dir = make([]uint64, dirWords(mv.records, mv.rw))
	var rec uint64 // next record's bit in dir
	pos = 0        // next block's bit in bits
	for b := 0; b < nblocks; b++ {
		if mv.marks[b/spanBlocks]>>(b%spanBlocks)&1 == 0 {
			continue // continues a width-0 run: no record, no payload
		}
		w, vals := uint(widths[b]), blk[:1]
		if w > 0 {
			vals = blk[:blockCount(n, b)]
		}
		fill(b*monotoneBlock, vals)
		writeBits(mv.dir, rec, mv.aw, vals[0])
		writeBits(mv.dir, rec+uint64(mv.aw), widthBits+mv.ow, uint64(w)|(pos-mv.gbase[vals[0]>>gshift])<<widthBits)
		rec += uint64(mv.rw)
		if w == 0 {
			continue
		}
		mid := hasMid(w, len(vals))
		for k := 1; k < len(vals); k++ {
			if mid && k == monotoneHalf {
				// Sub-anchor slot: cumulative stored delta from the anchor.
				writeBits(mv.bits, pos, midWidth(w), vals[k]-vals[0]-mv.strict*monotoneHalf)
				pos += uint64(midWidth(w))
				continue
			}
			writeBits(mv.bits, pos, w, vals[k]-vals[k-1]-mv.strict)
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
func dirWords(records int, rw uint) int {
	return int((uint64(records)*uint64(rw)+63)/64) + 1
}

// window returns the 64 bits of words starting at bit pos. The word
// after pos's must exist (see dirWords).
func window(words []uint64, pos uint64) uint64 {
	word, off := pos/64, uint(pos%64)
	hi := words[word+1] // checked first, so the load below needs no check
	return words[word]>>off | hi<<(64-off)
}

// locate returns the record that serves block b and how many blocks past
// the record's own block b lies: the marks of the span up to and
// including b, shifted so that b's is the top bit, are counted for the
// one and measured to the nearest set bit for the other.
func (mv *MonotoneVector) locate(b uint) (rec uint64, past uint) {
	m := mv.marks[b/spanBlocks]
	upTo := uint32(m) << (spanBlocks - 1 - b%spanBlocks)
	return m>>32 + uint64(bits.OnesCount32(upTo)) - 1, uint(bits.LeadingZeros32(upTo))
}

// recordAt returns the fields of directory record rec.
func (mv *MonotoneVector) recordAt(rec uint64) (anchor uint64, w uint, off uint64) {
	pos := rec * uint64(mv.rw)
	x := window(mv.dir, pos)
	anchor = x & mv.amask
	if mv.rw <= 64 {
		x >>= mv.aw
	} else {
		x = window(mv.dir, pos+uint64(mv.aw))
	}
	return anchor, uint(x & widthMask), x >> widthBits & mv.omask
}

// recordAnchor returns the anchor field of directory record rec.
func (mv *MonotoneVector) recordAnchor(rec uint64) uint64 {
	return window(mv.dir, rec*uint64(mv.rw)) & mv.amask
}

// record returns block b's anchor, delta width and payload bit position.
// A block past its record's own continues a width-0 run, so it has the
// record's width and an anchor strict·monotoneBlock further per block.
func (mv *MonotoneVector) record(b uint) (anchor uint64, w uint, pos uint64) {
	rec, past := mv.locate(b)
	anchor, w, off := mv.recordAt(rec)
	return anchor + mv.strict*monotoneBlock*uint64(past), w, mv.gbase[anchor>>mv.gshift] + off
}

// anchor returns block b's first value.
func (mv *MonotoneVector) anchor(b int) uint64 {
	rec, past := mv.locate(uint(b))
	return mv.recordAnchor(rec) + mv.strict*monotoneBlock*uint64(past)
}

// Len returns the number of elements.
func (mv *MonotoneVector) Len() int { return mv.n }

// Get returns element i. Width-0 blocks (+1 runs of a strict sequence,
// constant runs otherwise) resolve from the directory record alone.
func (mv *MonotoneVector) Get(i int) uint64 {
	j := uint(i) % monotoneBlock
	rec, past := mv.locate(uint(i) / monotoneBlock)
	anchor, w, off := mv.recordAt(rec)
	v := anchor + mv.strict*uint64(past*monotoneBlock+j)
	if w == 0 || j == 0 {
		return v
	}
	return v + mv.deltaSum(w, mv.gbase[anchor>>mv.gshift]+off, j)
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
// isolates the single candidate block, decodes that block once, and scans
// the decoded values. The block is found in two binary searches over the
// anchor field of the directory records: first over one record per span —
// the span's first, whose index its marks word carries, so a probe is
// that word and the record and no counting — then over the blocks of the
// one span left, all served by that span's marks word and a run of
// adjacent records.
func (mv *MonotoneVector) SearchGE(lo, hi int, target uint64) int {
	if lo >= hi {
		return lo
	}
	b0 := lo / monotoneBlock
	b1 := (hi - 1) / monotoneBlock
	// First span past b0's whose first anchor reaches target.
	loS, hiS := b0/spanBlocks+1, b1/spanBlocks+1
	for loS < hiS {
		mid := int(uint(loS+hiS) >> 1)
		if mv.recordAnchor(mv.marks[mid]>>32) >= target {
			hiS = mid
		} else {
			loS = mid + 1
		}
	}
	// First block past b0 whose anchor reaches target: every in-range
	// index at or past its start satisfies the predicate, so the answer
	// is inside the preceding block or is that block's first index. It
	// is past the first block of span loS-1, and no further than the
	// first block of span loS.
	loB, hiB := max((loS-1)*spanBlocks, b0)+1, min(loS*spanBlocks, b1+1)
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

// Each calls f on every element in order, one decoded block at a time,
// until f returns false, and reports whether f always returned true.
func (mv *MonotoneVector) Each(f func(i int, v uint64) bool) bool {
	var vals [monotoneBlock]uint64
	for b := 0; b*monotoneBlock < mv.n; b++ {
		for k, v := range vals[:mv.decodeBlock(b, &vals)] {
			if !f(b*monotoneBlock+k, v) {
				return false
			}
		}
	}
	return true
}

// DecodeAll appends every element to dst and returns it.
func (mv *MonotoneVector) DecodeAll(dst []uint64) []uint64 {
	mv.Each(func(_ int, v uint64) bool { dst = append(dst, v); return true })
	return dst
}

// SizeBytes returns the in-memory footprint of the payload.
func (mv *MonotoneVector) SizeBytes() int {
	return (len(mv.gbase) + len(mv.marks) + len(mv.dir) + len(mv.bits)) * 8
}

// MonotoneStats says where a vector's bytes go: how many of its blocks
// need no delta payload, how many of them still write a directory
// record, and how the footprint splits between directory (group bases,
// marks and records) and delta payload.
type MonotoneStats struct {
	Blocks       int
	EmptyBlocks  int // width 0: +1 runs when strict, constant runs otherwise
	Records      int // blocks that write a record; the rest continue a run
	DirBytes     int
	PayloadBytes int
}

// Stats reports the vector's block and byte breakdown (counted when the
// vector was built or decoded).
func (mv *MonotoneVector) Stats() MonotoneStats {
	return MonotoneStats{
		Blocks:       (mv.n + monotoneBlock - 1) / monotoneBlock,
		EmptyBlocks:  mv.emptyBlocks,
		Records:      mv.records,
		DirBytes:     (len(mv.gbase) + len(mv.marks) + len(mv.dir)) * 8,
		PayloadBytes: len(mv.bits) * 8,
	}
}

// monotoneHeader is the fixed part of the serial form: n, then one byte
// each for strict, aw, ow and gshift, then the payload word count.
const monotoneHeader = 8 + 4 + 8

// AppendBinary serializes the vector: the header, the marks, the
// directory records (without the pad word) and the payload words. The
// group bases are not written: the decoder derives them.
func (mv *MonotoneVector) AppendBinary(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(mv.n))
	buf = append(buf, byte(mv.strict), byte(mv.aw), byte(mv.ow), byte(mv.gshift))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(mv.bits)))
	for _, words := range [][]uint64{mv.marks, mv.dir[:len(mv.dir)-1], mv.bits} {
		for _, w := range words {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
	}
	return buf
}

// DecodeMonotoneVector reads a vector serialized with AppendBinary and
// returns it with the number of bytes consumed. The input is untrusted:
// the field widths and group shift, the marks, the directory and payload
// lengths, every block's width, every record's group and its payload
// extent from its group's base are checked here, so no accessor of the
// returned vector can index out of range.
func DecodeMonotoneVector(buf []byte) (*MonotoneVector, int, error) {
	if len(buf) < monotoneHeader {
		return nil, 0, fmt.Errorf("bitutil: truncated monotone vector header")
	}
	n64 := binary.LittleEndian.Uint64(buf)
	strict, aw, ow, gshift := buf[8], uint(buf[9]), uint(buf[10]), uint(buf[11])
	nbits := binary.LittleEndian.Uint64(buf[12:])
	if strict > 1 {
		return nil, 0, fmt.Errorf("bitutil: invalid monotone strict flag %d", strict)
	}
	if aw < 1 || aw > 64 || ow < 1 || ow > maxOffsetWidth || gshift > 64 {
		return nil, 0, fmt.Errorf("bitutil: invalid monotone field widths (anchor %d, offset %d, group shift %d)", aw, ow, gshift)
	}
	// However long its runs, a vector spends one marks word per span, so
	// more spans than words is corrupt; checking first keeps the sums and
	// products below from overflowing.
	words := uint64(len(buf)-monotoneHeader) / 8
	if n64 > words*spanBlocks*monotoneBlock {
		return nil, 0, fmt.Errorf("bitutil: monotone vector of %d elements exceeds its %d bytes", n64, len(buf))
	}
	nblocks := (n64 + monotoneBlock - 1) / monotoneBlock
	nspans := (nblocks + spanBlocks - 1) / spanBlocks
	if nbits > words-nspans {
		return nil, 0, fmt.Errorf("bitutil: monotone vector of %d spans, %d payload words exceeds its %d bytes", nspans, nbits, len(buf))
	}
	mv := &MonotoneVector{n: int(n64), strict: uint64(strict), gshift: gshift}
	mv.setFieldWidths(aw, ow)
	pos := monotoneHeader
	readWords := func(n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = binary.LittleEndian.Uint64(buf[pos:])
			pos += 8
		}
		return out
	}
	// Marks: every span's first block writes a record, none past the last
	// block does, and the high half counts the records before the span.
	mv.marks = readWords(int(nspans))
	for s, m := range mv.marks {
		inSpan := min(nblocks-uint64(s)*spanBlocks, spanBlocks)
		if m&1 == 0 || uint64(uint32(m))>>inSpan != 0 || m>>32 != uint64(mv.records) {
			return nil, 0, fmt.Errorf("bitutil: monotone marks of span %d (%#x) do not fit its %d blocks after %d records", s, m, inSpan, mv.records)
		}
		mv.records += bits.OnesCount32(uint32(m))
	}
	ndir := dirWords(mv.records, mv.rw)
	if uint64(ndir-1) > words-nspans-nbits {
		return nil, 0, fmt.Errorf("bitutil: truncated monotone vector: %d records need %d directory words", mv.records, ndir-1)
	}
	mv.dir = append(readWords(ndir-1), 0)
	mv.bits = readWords(int(nbits))
	// The payload is laid out in record order, so a group's base is the
	// sum of the payload sizes of the records before its first one.
	var sum uint64
	for b := 0; b < int(nblocks); b++ {
		rec, past := mv.locate(uint(b))
		anchor, w, off := mv.recordAt(rec)
		if w > 64 {
			return nil, 0, fmt.Errorf("bitutil: monotone block %d: delta width %d", b, w)
		}
		if w == 0 {
			mv.emptyBlocks++
		}
		if past > 0 {
			if w != 0 {
				return nil, 0, fmt.Errorf("bitutil: monotone block %d continues a record of delta width %d", b, w)
			}
			continue
		}
		g := anchor >> gshift
		if g >= maxGroups || g+1 < uint64(len(mv.gbase)) {
			return nil, 0, fmt.Errorf("bitutil: monotone block %d: group %d after %d groups (at most %d)", b, g, len(mv.gbase), maxGroups)
		}
		for uint64(len(mv.gbase)) <= g {
			mv.gbase = append(mv.gbase, sum)
		}
		size := blockPayloadBits(w, blockCount(mv.n, b))
		if start := mv.gbase[g] + off; start+size > nbits*64 {
			return nil, 0, fmt.Errorf("bitutil: monotone block %d: payload bits [%d,%d) past the %d stored", b, start, start+size, nbits*64)
		}
		sum += size
	}
	return mv, pos, nil
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
