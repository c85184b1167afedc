package bitutil

import (
	"fmt"
	"time"
)

// This file is the pluggable integer-codec layer. The succinct store's
// SA/ISA sample arrays and the layout offset vectors hold integer
// sequences of different shapes — sample arrays are near-uniform values
// of fixed magnitude, offset vectors are smooth ramps — and no single
// encoding is best for both. (Ψ is not a codec region: it is always a
// MonotoneVector, the one encoding built for its random Get.) A Codec turns
// a sequence into an immutable Seq; ChooseCodec trial-encodes a sample
// of a region with every registered codec and picks the winner by a
// measured decode-speed × size score, so each region gets the encoding
// its data actually favors (the adaptivity argument of Log(Graph) and
// Zuckerli).

// CodecID identifies a codec in serialized form. IDs are persistent —
// never renumber them.
type CodecID uint8

const (
	// CodecLegacy is the repo's original hand-rolled packing: per-block
	// delta bit-packing (MonotoneVector) for monotone sequences and
	// fixed-width packing (PackedVector) otherwise.
	CodecLegacy CodecID = 0
	// CodecSimple8b is word-aligned selector packing: each 64-bit word
	// holds 1..240 values at a uniform width chosen by a 4-bit selector,
	// so blocks with mixed delta magnitudes pay per-word, not per-region,
	// width.
	CodecSimple8b CodecID = 1
	// CodecVarint is LEB128 variable-length byte encoding (deltas for
	// monotone sequences, raw values otherwise).
	CodecVarint CodecID = 2

	numCodecs = 3
)

// SeqBlockSize is the element count of one decodable block. All codecs
// share it so block-granular machinery above (streaming cursors, the
// batch decoded-block cache and its global block numbering) works
// unchanged over any codec.
const SeqBlockSize = monotoneBlock

// Seq is a read-only encoded integer sequence: the unit the codec layer
// produces and the succinct structures store. Implementations are
// immutable after construction and safe for concurrent readers.
type Seq interface {
	// Len returns the number of elements.
	Len() int
	// CodecID identifies the codec that produced this sequence.
	CodecID() CodecID
	// Monotone reports whether the sequence was encoded with the
	// monotone (delta) layout. It describes the encoding, not the data:
	// a monotone sequence may still be encoded with the raw layout.
	Monotone() bool
	// Get returns element i (DecodeAt): random access, decoding at most
	// one block.
	Get(i int) uint64
	// DecodeAll appends every element to dst and returns it.
	DecodeAll(dst []uint64) []uint64
	// DecodeBlockInto expands block b into dst as absolute values and
	// returns the element count (short for the final block).
	DecodeBlockInto(b int, dst *[SeqBlockSize]uint64) int
	// SearchGE returns the smallest i in [lo, hi) with Get(i) >= target,
	// or hi. Valid only when the underlying data is non-decreasing.
	SearchGE(lo, hi int, target uint64) int
	// SizeBytes returns the in-memory footprint of the payload.
	SizeBytes() int
	// AppendBinary serializes the sequence (without a codec tag — see
	// AppendSeq for the tagged container).
	AppendBinary(buf []byte) []byte
}

// Codec encodes integer sequences.
type Codec interface {
	ID() CodecID
	Name() string
	// Encode compresses vals. monotone asserts vals is non-decreasing
	// and selects the delta layout. width is a fixed-width hint for
	// codecs that pack at one width (0 = derive from the data).
	// Returns nil if the codec cannot represent vals (e.g. simple8b
	// with values >= 2^60).
	Encode(vals []uint64, monotone bool, width uint) Seq
}

// codecs is the registry, indexed by CodecID.
var codecs = [numCodecs]Codec{
	legacyCodec{},
	s8bCodec{},
	varintCodec{},
}

// AllCodecs returns every registered codec in ID order.
func AllCodecs() []Codec { return codecs[:] }

// CodecByID returns the codec with the given ID.
func CodecByID(id CodecID) (Codec, bool) {
	if int(id) < len(codecs) {
		return codecs[id], true
	}
	return nil, false
}

// CodecName returns the human-readable name for id ("unknown" if the ID
// is not registered).
func CodecName(id CodecID) string {
	if c, ok := CodecByID(id); ok {
		return c.Name()
	}
	return "unknown"
}

// CodecPolicy selects how a region's codec is chosen at build time.
type CodecPolicy uint8

const (
	// CodecAuto trial-encodes a sample of each region with every codec
	// and picks per region by decode-speed × size score. The default.
	CodecAuto CodecPolicy = iota
	// CodecForceLegacy pins every region to the legacy packing.
	CodecForceLegacy
	// CodecForceSimple8b pins every region to simple8b.
	CodecForceSimple8b
	// CodecForceVarint pins every region to varint.
	CodecForceVarint
)

// Forced returns the pinned codec ID, or false for CodecAuto.
func (p CodecPolicy) Forced() (CodecID, bool) {
	switch p {
	case CodecForceLegacy:
		return CodecLegacy, true
	case CodecForceSimple8b:
		return CodecSimple8b, true
	case CodecForceVarint:
		return CodecVarint, true
	}
	return 0, false
}

// String names the policy for reports and flags.
func (p CodecPolicy) String() string {
	switch p {
	case CodecAuto:
		return "auto"
	case CodecForceLegacy:
		return "legacy"
	case CodecForceSimple8b:
		return "simple8b"
	case CodecForceVarint:
		return "varint"
	}
	return "unknown"
}

// PolicyByName parses a policy name ("auto", "legacy", "simple8b",
// "varint").
func PolicyByName(name string) (CodecPolicy, error) {
	for _, p := range []CodecPolicy{CodecAuto, CodecForceLegacy, CodecForceSimple8b, CodecForceVarint} {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("bitutil: unknown codec policy %q", name)
}

// TrialResult records one codec's measurement on a region sample.
type TrialResult struct {
	Codec     CodecID
	Name      string
	Bytes     int     // encoded size of the sample
	NsPerElem float64 // DecodeAll cost per element
	Score     float64 // Bytes × (NsPerElem + 1); lower is better
	Chosen    bool
}

// codecSampleLimit bounds the trial sample so region selection stays a
// sub-millisecond fraction of a shard build.
const codecSampleLimit = 1 << 15

// codecSample returns vals, or — past the limit — evenly spaced
// contiguous chunks of it. Chunks (not strides) preserve the local
// delta structure the codecs actually encode, and taking them in order
// keeps a monotone input monotone.
func codecSample(vals []uint64) []uint64 {
	if len(vals) <= codecSampleLimit {
		return vals
	}
	const chunk = 1 << 10
	nchunks := codecSampleLimit / chunk
	out := make([]uint64, 0, codecSampleLimit)
	stride := len(vals) / nchunks
	for c := 0; c < nchunks; c++ {
		start := c * stride
		out = append(out, vals[start:start+chunk]...)
	}
	return out
}

// measureDecodeNs times s.DecodeAll and returns ns per element: the
// minimum over several iterations, which is robust to scheduling noise
// where a mean is not.
func measureDecodeNs(s Seq, scratch []uint64) float64 {
	n := s.Len()
	if n == 0 {
		return 0
	}
	s.DecodeAll(scratch[:0]) // warm
	var elapsed, best time.Duration
	for iters := 0; iters < 4 || (elapsed < 100*time.Microsecond && iters < 64); iters++ {
		start := time.Now()
		s.DecodeAll(scratch[:0])
		d := time.Since(start)
		elapsed += d
		if iters == 0 || d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / float64(n)
}

// MeasureDecodeNs times one sequence's DecodeAll and returns ns per
// element — the decode-speed half of the trial score, exported so codec
// reports can measure forced or loaded regions that never ran a trial.
func MeasureDecodeNs(s Seq) float64 {
	return measureDecodeNs(s, make([]uint64, 0, s.Len()))
}

// sizeTieBand is the size band within which decode speed decides the
// trial: a candidate within 5% of the smallest encoding may win on
// faster measured decode.
const sizeTieBand = 1.05

// ChooseCodec trial-encodes a sample of vals with every registered codec
// and picks by the measured decode-speed × size score with size
// dominant: the fewest encoded bytes wins outright, and only candidates
// within sizeTieBand of the smallest may win on faster decode. Size
// dominates because the store's reason to exist is memory efficiency —
// letting raw speed trade real bytes away would also leave the choice
// hostage to timing noise. Ties break toward the lower codec ID (legacy
// first) so repeated builds stay stable.
func ChooseCodec(vals []uint64, monotone bool, width uint) (Codec, []TrialResult) {
	sample := codecSample(vals)
	scratch := make([]uint64, 0, len(sample))
	trials := make([]TrialResult, 0, numCodecs)
	for _, c := range AllCodecs() {
		s := c.Encode(sample, monotone, width)
		if s == nil {
			continue
		}
		ns := measureDecodeNs(s, scratch)
		trials = append(trials, TrialResult{
			Codec:     c.ID(),
			Name:      c.Name(),
			Bytes:     s.SizeBytes(),
			NsPerElem: ns,
			Score:     float64(s.SizeBytes()) * (ns + 1),
		})
	}
	minBytes := trials[0].Bytes
	for _, tr := range trials[1:] {
		if tr.Bytes < minBytes {
			minBytes = tr.Bytes
		}
	}
	best := -1
	for i, tr := range trials {
		if float64(tr.Bytes) > sizeTieBand*float64(minBytes) {
			continue
		}
		if best < 0 || tr.NsPerElem < trials[best].NsPerElem {
			best = i
		}
	}
	trials[best].Chosen = true
	c, _ := CodecByID(trials[best].Codec)
	return c, trials
}

// EncodeWithPolicy encodes vals per policy: a forced policy encodes with
// that codec directly (falling back to legacy if it cannot represent the
// data); CodecAuto trial-encodes and picks. The returned trials are nil
// for forced policies.
func EncodeWithPolicy(vals []uint64, monotone bool, width uint, policy CodecPolicy) (Seq, []TrialResult) {
	if id, ok := policy.Forced(); ok {
		c, _ := CodecByID(id)
		if s := c.Encode(vals, monotone, width); s != nil {
			return s, nil
		}
		return codecs[CodecLegacy].Encode(vals, monotone, width), nil
	}
	c, trials := ChooseCodec(vals, monotone, width)
	s := c.Encode(vals, monotone, width)
	if s == nil {
		// The winner fit the sample but not the full data (values past
		// the sampled range exceed its domain); legacy always encodes.
		s = codecs[CodecLegacy].Encode(vals, monotone, width)
	}
	return s, trials
}

// AppendSeq serializes s into a self-describing container: one tag byte
// (codec ID << 1 | monotone-layout bit) followed by the codec payload.
func AppendSeq(buf []byte, s Seq) []byte {
	tag := byte(s.CodecID()) << 1
	if s.Monotone() {
		tag |= 1
	}
	buf = append(buf, tag)
	return s.AppendBinary(buf)
}

// DecodeSeq reads a sequence serialized by AppendSeq and returns it with
// the number of bytes consumed.
func DecodeSeq(buf []byte) (Seq, int, error) {
	if len(buf) < 1 {
		return nil, 0, fmt.Errorf("bitutil: truncated seq tag")
	}
	id := CodecID(buf[0] >> 1)
	mono := buf[0]&1 != 0
	switch id {
	case CodecLegacy:
		if mono {
			mv, k, err := DecodeMonotoneVector(buf[1:])
			if err != nil {
				return nil, 0, err
			}
			return mv, 1 + k, nil
		}
		pv, k, err := DecodePackedVector(buf[1:])
		if err != nil {
			return nil, 0, err
		}
		return pv, 1 + k, nil
	case CodecSimple8b, CodecVarint:
		bs, k, err := decodeBlockSeq(id, mono, buf[1:])
		if err != nil {
			return nil, 0, err
		}
		return bs, 1 + k, nil
	}
	return nil, 0, fmt.Errorf("bitutil: unknown codec ID %d", id)
}

// legacyCodec adapts the original hand-rolled structures to the codec
// interface: MonotoneVector for monotone sequences, PackedVector
// otherwise.
type legacyCodec struct{}

func (legacyCodec) ID() CodecID  { return CodecLegacy }
func (legacyCodec) Name() string { return "legacy" }

func (legacyCodec) Encode(vals []uint64, monotone bool, width uint) Seq {
	if monotone {
		return NewMonotoneVector(vals)
	}
	if width == 0 {
		var maxV uint64
		for _, v := range vals {
			if v > maxV {
				maxV = v
			}
		}
		width = WidthFor(maxV)
	}
	pv := NewPackedVector(len(vals), width)
	for i, v := range vals {
		pv.Set(i, v)
	}
	return pv
}

// SeqCursor streams any Seq: each block is decoded once into a small
// buffer and then read by index, so a sequential pass costs one block
// decode per SeqBlockSize elements instead of one random access per
// element. A cursor is a value type — keep it on the stack. Not safe for
// concurrent use (the underlying Seq is).
type SeqCursor struct {
	seq   Seq
	block int // decoded block index, -1 = none
	cnt   int // valid entries in vals
	next  int // absolute index returned by the next Next call
	vals  [SeqBlockSize]uint64
}

// MonotoneCursor is the historical name of SeqCursor, kept for the Ψ
// call sites that predate the codec layer.
type MonotoneCursor = SeqCursor

// NewSeqCursor returns a streaming cursor over s positioned at index 0.
func NewSeqCursor(s Seq) SeqCursor {
	return SeqCursor{seq: s, block: -1}
}

// Seek positions the cursor so the next Next call returns element i.
// Seeking within the already-decoded block keeps the buffer.
func (c *SeqCursor) Seek(i int) { c.next = i }

// Pos returns the absolute index the next Next call will return.
func (c *SeqCursor) Pos() int { return c.next }

// Next returns the element at the cursor and advances by one. The caller
// must not read past Len()-1.
func (c *SeqCursor) Next() uint64 {
	v := c.At(c.next)
	c.next++
	return v
}

// At returns element i, decoding its block only if it is not the one
// already buffered. The cursor position is unchanged.
func (c *SeqCursor) At(i int) uint64 {
	b := i / SeqBlockSize
	if b != c.block {
		c.cnt = c.seq.DecodeBlockInto(b, &c.vals)
		c.block = b
	}
	return c.vals[i-b*SeqBlockSize]
}

// Buffered reports whether element i lies inside the currently decoded
// block, i.e. whether At(i) would be served from the buffer without a
// block decode. Batch kernels use this to observe cursor reuse.
func (c *SeqCursor) Buffered(i int) bool {
	return c.block >= 0 && i/SeqBlockSize == c.block
}
