package bitutil

import (
	"encoding/binary"
	"fmt"
)

// blockSeq is the shared container for the simple8b and varint codecs:
// the sequence is cut into SeqBlockSize-element blocks, each encoded
// independently into one byte payload, with a packed offset table
// locating every block. Monotone sequences store one absolute anchor
// per block and encode the in-block deltas; raw sequences encode the
// values directly. Block granularity keeps random access O(1 block
// decode) and lets the streaming cursor and batch decoded-block cache
// treat every codec identically.
type blockSeq struct {
	id      CodecID
	mono    bool
	n       int
	anchors *PackedVector // mono only: absolute value at each block start
	offs    *PackedVector // byte offset of each block's payload; nblocks+1 entries
	payload []byte
}

// newBlockSeq encodes vals block by block with the codec's per-block
// encoder. Returns nil if any block is unrepresentable (simple8b with a
// delta >= 2^60).
func newBlockSeq(id CodecID, vals []uint64, mono bool) *blockSeq {
	n := len(vals)
	nblocks := (n + SeqBlockSize - 1) / SeqBlockSize
	var anchorVals []uint64
	if mono {
		anchorVals = make([]uint64, nblocks)
	}
	offs := make([]uint64, nblocks+1)
	payload := make([]byte, 0, n) // varint lower bound; grows as needed
	var deltas [SeqBlockSize]uint64
	ok := true
	for b := 0; b < nblocks; b++ {
		start := b * SeqBlockSize
		end := start + SeqBlockSize
		if end > n {
			end = n
		}
		var toEnc []uint64
		if mono {
			anchorVals[b] = vals[start]
			d := deltas[:0]
			for i := start + 1; i < end; i++ {
				if vals[i] < vals[i-1] {
					panic(fmt.Sprintf("bitutil: sequence not monotone at %d: %d < %d", i, vals[i], vals[i-1]))
				}
				d = append(d, vals[i]-vals[i-1])
			}
			toEnc = d
		} else {
			toEnc = vals[start:end]
		}
		if id == CodecSimple8b {
			payload, ok = s8bAppendBlock(payload, toEnc)
		} else {
			payload, ok = varintAppendBlock(payload, toEnc)
		}
		if !ok {
			return nil
		}
		offs[b+1] = uint64(len(payload))
	}
	return &blockSeq{
		id:      id,
		mono:    mono,
		n:       n,
		anchors: PackSlice(anchorVals),
		offs:    PackSlice(offs),
		payload: payload,
	}
}

// Len returns the number of elements.
func (bs *blockSeq) Len() int { return bs.n }

// CodecID identifies the producing codec.
func (bs *blockSeq) CodecID() CodecID { return bs.id }

// Monotone reports whether blocks carry anchors and encode deltas.
func (bs *blockSeq) Monotone() bool { return bs.mono }

// decodePayload expands exactly len(out) encoded values from pay.
func (bs *blockSeq) decodePayload(pay []byte, out []uint64) {
	if bs.id == CodecSimple8b {
		s8bDecodeInto(pay, out)
	} else {
		varintDecodeInto(pay, out)
	}
}

// DecodeBlockInto expands block b into dst as absolute values and
// returns the element count (short for the final block).
func (bs *blockSeq) DecodeBlockInto(b int, dst *[SeqBlockSize]uint64) int {
	start := b * SeqBlockSize
	cnt := bs.n - start
	if cnt <= 0 {
		return 0
	}
	if cnt > SeqBlockSize {
		cnt = SeqBlockSize
	}
	pay := bs.payload[bs.offs.Get(b):bs.offs.Get(b+1)]
	if bs.mono {
		dst[0] = bs.anchors.Get(b)
		if cnt > 1 {
			bs.decodePayload(pay, dst[1:cnt])
			for k := 1; k < cnt; k++ {
				dst[k] += dst[k-1]
			}
		}
	} else {
		bs.decodePayload(pay, dst[:cnt])
	}
	return cnt
}

// Get returns element i, decoding one block.
func (bs *blockSeq) Get(i int) uint64 {
	var tmp [SeqBlockSize]uint64
	b := i / SeqBlockSize
	bs.DecodeBlockInto(b, &tmp)
	return tmp[i-b*SeqBlockSize]
}

// DecodeAll appends every element to dst and returns it.
func (bs *blockSeq) DecodeAll(dst []uint64) []uint64 {
	var blk [SeqBlockSize]uint64
	nblocks := (bs.n + SeqBlockSize - 1) / SeqBlockSize
	for b := 0; b < nblocks; b++ {
		cnt := bs.DecodeBlockInto(b, &blk)
		dst = append(dst, blk[:cnt]...)
	}
	return dst
}

// SearchGE returns the smallest index i in [lo, hi) with Get(i) >= target,
// or hi if none. Valid only when the data is non-decreasing. The monotone
// layout binary-searches the O(1) block anchors to isolate the single
// candidate block (the MonotoneVector.SearchGE strategy); the raw layout
// falls back to binary-searching element probes.
func (bs *blockSeq) SearchGE(lo, hi int, target uint64) int {
	if lo >= hi {
		return lo
	}
	if !bs.mono {
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if bs.Get(mid) >= target {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo
	}
	b0 := lo / SeqBlockSize
	b1 := (hi - 1) / SeqBlockSize
	loB, hiB := b0+1, b1+1
	for loB < hiB {
		mid := int(uint(loB+hiB) >> 1)
		if bs.anchors.Get(mid) >= target {
			hiB = mid
		} else {
			loB = mid + 1
		}
	}
	bb := loB
	var vals [SeqBlockSize]uint64
	start := (bb - 1) * SeqBlockSize
	cnt := bs.DecodeBlockInto(bb-1, &vals)
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
		return bb * SeqBlockSize
	}
	return hi
}

// SizeBytes returns the in-memory footprint of the payload.
func (bs *blockSeq) SizeBytes() int {
	sz := bs.offs.SizeBytes() + len(bs.payload)
	if bs.mono {
		sz += bs.anchors.SizeBytes()
	}
	return sz
}

// AppendBinary serializes the sequence. Format: n (8 bytes LE), anchors
// (monotone layout only), offsets, payload length (8 bytes LE), payload.
// The codec ID and layout bit live in the AppendSeq tag byte.
func (bs *blockSeq) AppendBinary(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(bs.n))
	if bs.mono {
		buf = bs.anchors.AppendBinary(buf)
	}
	buf = bs.offs.AppendBinary(buf)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(bs.payload)))
	return append(buf, bs.payload...)
}

// decodeBlockSeq reads a sequence serialized with AppendBinary and
// returns it with the number of bytes consumed. The input is untrusted:
// the column lengths, the block offsets and the extent of every block's
// encoded values are checked here, so no accessor of the returned
// sequence can index out of range.
func decodeBlockSeq(id CodecID, mono bool, buf []byte) (*blockSeq, int, error) {
	if len(buf) < 8 {
		return nil, 0, fmt.Errorf("bitutil: truncated block seq header")
	}
	// The offset table spends at least a bit on each block.
	n64 := binary.LittleEndian.Uint64(buf)
	if n64 > uint64(len(buf))*8*SeqBlockSize {
		return nil, 0, fmt.Errorf("bitutil: block seq of %d elements exceeds its %d bytes", n64, len(buf))
	}
	bs := &blockSeq{id: id, mono: mono, n: int(n64)}
	nblocks := (bs.n + SeqBlockSize - 1) / SeqBlockSize
	pos := 8
	var err error
	var k int
	if mono {
		if bs.anchors, k, err = DecodePackedVector(buf[pos:]); err != nil {
			return nil, 0, err
		}
		pos += k
	} else {
		bs.anchors = NewPackedVector(0, 1)
	}
	if bs.offs, k, err = DecodePackedVector(buf[pos:]); err != nil {
		return nil, 0, err
	}
	pos += k
	if bs.offs.Len() != nblocks+1 || (mono && bs.anchors.Len() != nblocks) {
		return nil, 0, fmt.Errorf("bitutil: block seq of %d blocks with %d offsets, %d anchors", nblocks, bs.offs.Len(), bs.anchors.Len())
	}
	if len(buf) < pos+8 {
		return nil, 0, fmt.Errorf("bitutil: truncated block seq payload header")
	}
	np := binary.LittleEndian.Uint64(buf[pos:])
	pos += 8
	if np > uint64(len(buf)-pos) {
		return nil, 0, fmt.Errorf("bitutil: truncated block seq payload")
	}
	bs.payload = append([]byte(nil), buf[pos:pos+int(np)]...)
	pos += int(np)
	if bs.offs.Get(0) != 0 || bs.offs.Get(nblocks) != np {
		return nil, 0, fmt.Errorf("bitutil: block seq offsets span [%d,%d) of %d payload bytes", bs.offs.Get(0), bs.offs.Get(nblocks), np)
	}
	for b := 0; b < nblocks; b++ {
		from, to := bs.offs.Get(b), bs.offs.Get(b+1)
		cnt := min(bs.n-b*SeqBlockSize, SeqBlockSize)
		if mono {
			cnt-- // the first value is the anchor
		}
		if from > to || to > np || !bs.holds(bs.payload[from:to], cnt) {
			return nil, 0, fmt.Errorf("bitutil: block seq block %d: payload bytes [%d,%d) do not hold its %d values", b, from, to, cnt)
		}
	}
	return bs, pos, nil
}

// holds reports whether pay encodes at least cnt values, which is what
// decodePayload will read from it.
func (bs *blockSeq) holds(pay []byte, cnt int) bool {
	for cnt > 0 {
		if bs.id == CodecSimple8b {
			if len(pay) < 8 {
				return false
			}
			cnt -= s8bSel[pay[7]>>4].n
			pay = pay[8:]
		} else {
			_, k := binary.Uvarint(pay)
			if k <= 0 {
				return false
			}
			cnt--
			pay = pay[k:]
		}
	}
	return true
}

// s8bCodec is word-aligned selector packing in the Simple-8b family:
// each 64-bit word carries a 4-bit selector choosing how many values the
// remaining 60 bits hold at a uniform width. A block with one large
// delta among tiny ones pays the wide width only for the word containing
// it, where fixed-width packing pays it for the whole block.
type s8bCodec struct{}

func (s8bCodec) ID() CodecID  { return CodecSimple8b }
func (s8bCodec) Name() string { return "simple8b" }

func (s8bCodec) Encode(vals []uint64, monotone bool, width uint) Seq {
	bs := newBlockSeq(CodecSimple8b, vals, monotone)
	if bs == nil {
		return nil // a value or delta >= 2^60
	}
	return bs
}

// s8bSel is the Simple-8b selector table: selector k means the word's 60
// payload bits hold n values of w bits each. Ordered densest-first so the
// greedy encoder picks the fewest words.
var s8bSel = [16]struct {
	n int
	w uint
}{
	{240, 0}, {120, 0}, {60, 1}, {30, 2}, {20, 3}, {15, 4}, {12, 5}, {10, 6},
	{8, 7}, {7, 8}, {6, 10}, {5, 12}, {4, 15}, {3, 20}, {2, 30}, {1, 60},
}

// s8bFits reports whether every value fits in w bits.
func s8bFits(vals []uint64, w uint) bool {
	if w == 0 {
		for _, v := range vals {
			if v != 0 {
				return false
			}
		}
		return true
	}
	for _, v := range vals {
		if v >= 1<<w {
			return false
		}
	}
	return true
}

// s8bAppendBlock greedily packs vals into 64-bit selector words. A word
// shorter than its selector's capacity is emitted only when it consumes
// the whole tail — the count-driven decoder then stops early, so padding
// never corrupts a mid-stream word. Returns ok=false if a value needs
// more than 60 bits.
func s8bAppendBlock(dst []byte, vals []uint64) ([]byte, bool) {
	for len(vals) > 0 {
		si, take := -1, 0
		for s, sel := range s8bSel {
			k := sel.n
			if k > len(vals) {
				k = len(vals)
			}
			if s8bFits(vals[:k], sel.w) {
				si, take = s, k
				break
			}
		}
		if si < 0 {
			return nil, false
		}
		sel := s8bSel[si]
		word := uint64(si) << 60
		if sel.w > 0 {
			for k := 0; k < take; k++ {
				word |= vals[k] << (uint(k) * sel.w)
			}
		}
		dst = binary.LittleEndian.AppendUint64(dst, word)
		vals = vals[take:]
	}
	return dst, true
}

// s8bDecodeInto expands exactly len(out) values from pay.
func s8bDecodeInto(pay []byte, out []uint64) {
	i := 0
	for i < len(out) {
		word := binary.LittleEndian.Uint64(pay)
		pay = pay[8:]
		sel := s8bSel[word>>60]
		if sel.w == 0 {
			for k := 0; k < sel.n && i < len(out); k++ {
				out[i] = 0
				i++
			}
			continue
		}
		mask := ^uint64(0) >> (64 - sel.w)
		for k := 0; k < sel.n && i < len(out); k++ {
			out[i] = (word >> (uint(k) * sel.w)) & mask
			i++
		}
	}
}

// varintCodec is LEB128 variable-length byte encoding: each value costs
// ceil(bits/7) bytes, so smooth ramps of small deltas approach one byte
// per element without any per-block width commitment.
type varintCodec struct{}

func (varintCodec) ID() CodecID  { return CodecVarint }
func (varintCodec) Name() string { return "varint" }

func (varintCodec) Encode(vals []uint64, monotone bool, width uint) Seq {
	return newBlockSeq(CodecVarint, vals, monotone)
}

// varintAppendBlock appends every value as a LEB128 varint.
func varintAppendBlock(dst []byte, vals []uint64) ([]byte, bool) {
	for _, v := range vals {
		dst = binary.AppendUvarint(dst, v)
	}
	return dst, true
}

// varintDecodeInto expands exactly len(out) values from pay.
func varintDecodeInto(pay []byte, out []uint64) {
	for i := range out {
		v, k := binary.Uvarint(pay)
		out[i] = v
		pay = pay[k:]
	}
}
