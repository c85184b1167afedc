// Package succinct implements the compressed flat-file store that ZipG
// builds on (Agarwal, Khandelwal, Stoica — "Succinct: Enabling Queries on
// Compressed Data", NSDI 2015).
//
// A Store holds a compressed representation of a byte string supporting
// two primitives without ever materializing the original:
//
//   - Extract(off, len): random access to any substring, and
//   - Search(pattern): offsets of every occurrence of a substring.
//
// The representation is the one the paper describes: a suffix array (SA)
// and its inverse (ISA), both kept only at a sampling rate α, plus the
// "next pointer array" NPA (elsewhere called Ψ), where
//
//	Ψ[i] = ISA[(SA[i]+1) mod n].
//
// Ψ is strictly increasing within each character bucket of the suffix
// array, so with each row's bucket added above its value it is one
// strictly increasing sequence, stored block-compressed — this is where
// the compression comes from, and it shrinks with the compressibility of
// the input. Unsampled SA/ISA values are recovered by walking Ψ at most
// α steps, giving the paper's space/latency knob: space ≈ 2n·log(n)/α
// for the samples, latency ∝ α.
//
// A store built with BuildAnchored samples instead at the occurrences of
// one byte, its anchors: for a text read only from those points (an
// EdgeFile, read a property list at a time), the samples are spent where
// the reads start, and the α grid's are not spent at all.
package succinct

import (
	"math/bits"
	"runtime"
	"slices"

	"zipg/internal/bitutil"
	"zipg/internal/memsim"
	"zipg/internal/suffix"
	"zipg/internal/telemetry"
)

// DefaultSamplingRate is the default α. 32 matches the Succinct paper's
// default operating point.
const DefaultSamplingRate = 32

// Store is an immutable compressed representation of a byte string.
// All methods are safe for concurrent use.
type Store struct {
	n     int // text length + 1 (sentinel)
	alpha int

	// Character buckets of the suffix array. bucketChar holds the shifted
	// byte values (original byte + 1; 0 is the sentinel) present in the
	// text in ascending order; rows [bucketStart[k], bucketStart[k+1])
	// hold the suffixes beginning with bucketChar[k].
	bucketChar  []int32
	bucketStart []int32

	// Ψ, one strict bitutil.MonotoneVector: row r holds
	// bucket(r)<<psiShift | Ψ[r], so a Ψ step reads the row's character
	// and its successor from one value, and the vector's groups are the
	// buckets. Within a bucket Ψ is strictly increasing, so its +1 runs
	// are payload-free blocks.
	psi      *bitutil.MonotoneVector
	psiShift uint // bits.Len(n): every row, and n itself, fits below it

	// Value-sampled SA: saMarks holds the rows whose SA value is a
	// multiple of α; saSamples holds those values, divided by α, in row
	// order.
	saMarks   *bitutil.SparseSet
	saSamples *bitutil.PackedVector

	// Position-sampled ISA: isaSamples[j] = ISA[j*α].
	isaSamples *bitutil.PackedVector

	// Anchor sampling, instead of the three above when alpha is 0: the
	// samples are the rows of one character's bucket, the anchor's (its
	// shifted value in anchor), which begin at row anchorBase. listOf[i]
	// is the anchor number — the rank in text order — of the bucket's
	// i-th row (the SA side); rowOf[j] is anchor j's row less anchorBase
	// (the ISA side). The anchors' text offsets are the caller's: the
	// store keeps no copy.
	anchor     int32
	anchorBase int
	listOf     *bitutil.PackedVector
	rowOf      *bitutil.PackedVector

	// Simulated storage placement; med is nil outside budgeted
	// experiments, and then nothing below is used.
	med               *memsim.Medium
	regPsi            uint32
	regSA             uint32
	regISA            uint32
	psiBytesPerRow    float64
	saBytesPerSample  float64
	isaBytesPerSample float64
}

// Options configures Build.
type Options struct {
	// SamplingRate is α; 0 means DefaultSamplingRate.
	SamplingRate int
	// Medium is the simulated storage the structure lives on; nil means
	// plain memory, with no access accounting at all.
	Medium *memsim.Medium
}

// buildYieldRows bounds how many suffix-array rows Build's counting pass
// handles between yields. Builds run as background work (rollover
// compression, online compaction) racing foreground queries on the same
// Ps; at a few nanoseconds a row, 64 Ki rows is well under a millisecond.
const buildYieldRows = 1 << 16

// Build compresses text, sampling its SA and ISA every α positions. The
// text may contain any byte values.
func Build(text []byte, opts Options) *Store {
	alpha := opts.SamplingRate
	if alpha <= 0 {
		alpha = DefaultSamplingRate
	}
	return build(text, alpha, 0, opts.Medium)
}

// BuildAnchored compresses text, sampling its SA and ISA at the
// occurrences of anchor and nowhere else. Its reads start on an anchor
// (WalkAnchor), and its search hits are placed by the anchor they follow
// (SearchAnchored); the anchors' offsets are the caller's to know.
func BuildAnchored(text []byte, anchor byte, med *memsim.Medium) *Store {
	return build(text, 0, int32(anchor)+1, med)
}

// build is Build (alpha > 0) or BuildAnchored (alpha 0, anchor the
// shifted anchor byte).
func build(text []byte, alpha int, anchor int32, med *memsim.Medium) *Store {
	sa := suffix.Array(text)
	n := len(sa)
	s := &Store{n: n, alpha: alpha, med: med}

	// Character buckets, from a histogram of the text: the shifted
	// alphabet has the sentinel at 0, and a bucket starts where the
	// counts of the smaller characters end. free[c] is the first row of
	// c's bucket that the pass below has not yet filled.
	var count, free [257]int32
	count[0] = 1
	for _, c := range text {
		count[int(c)+1]++
	}
	row := int32(0)
	for c, k := range count {
		free[c] = row
		if k > 0 {
			s.bucketChar = append(s.bucketChar, int32(c))
			s.bucketStart = append(s.bucketStart, row)
		}
		row += k
	}
	s.bucketStart = append(s.bucketStart, int32(n))

	// Ψ and both sample sets in one pass over the suffix array, with no
	// inverse array. Row r holds the suffix at p = sa[r], so Ψ of the row
	// that holds the suffix at p-1 is r. That row lies in the bucket of
	// text[p-1] (the sentinel's, row 0, when p is 0 and p-1 wraps to the
	// sentinel), and since Ψ increases along a bucket and r only grows,
	// it is the first row of that bucket not yet given a value.
	//
	// SA is sampled by value — the rows whose value is a multiple of α,
	// and those values over α; in row order they are not monotone, so
	// they are packed at the width of the largest — and ISA by position;
	// a row holding a multiple of α yields a sample of each.
	psi := make([]int32, n)
	var sampledRows []int
	if alpha > 0 {
		nsamples := (n + alpha - 1) / alpha
		sampledRows = make([]int, 0, nsamples)
		s.saSamples = bitutil.NewPackedVector(nsamples, bitutil.WidthFor(uint64(nsamples-1)))
		s.isaSamples = bitutil.NewPackedVector(nsamples, bitutil.WidthFor(uint64(n-1)))
	}
	cur, f := 0, free[0] // f stands in for free[cur]: see suffix.induceSubL
	for lo := 0; lo < n; lo += buildYieldRows {
		for r := lo; r < min(lo+buildYieldRows, n); r++ {
			p := int(sa[r])
			c := 0
			if p > 0 {
				c = int(text[p-1]) + 1
			}
			if c != cur {
				free[cur] = f
				cur, f = c, free[c]
			}
			psi[f] = int32(r)
			f++
			if alpha == 0 {
				continue
			}
			if q := p / alpha; q*alpha == p {
				s.saSamples.Set(len(sampledRows), uint64(q))
				s.isaSamples.Set(q, uint64(r))
				sampledRows = append(sampledRows, r)
			}
		}
		runtime.Gosched()
	}
	if alpha > 0 {
		s.saMarks = bitutil.NewSparseSet(n, sampledRows)
	} else {
		s.sampleAnchors(text, sa, anchor, count[anchor])
	}

	// Ψ with the bucket prefix ORed in as the encoder reads its rows; a
	// yield every buildYieldRows rows of each of the encoder's passes
	// bounds what a query waits.
	s.psiShift = uint(bits.Len(uint(n)))
	shift, starts, b := s.psiShift, s.bucketStart, 0
	s.psi = bitutil.NewGroupedVector(n, shift, func(start int, out []uint64) {
		if start%buildYieldRows == 0 {
			runtime.Gosched()
		}
		if int(starts[b]) > start {
			b = 0 // the encoder's next pass
		}
		for k, r := range psi[start : start+len(out)] {
			for int(starts[b+1]) <= start+k {
				b++
			}
			out[k] = uint64(b)<<shift | uint64(r)
		}
	})

	s.finish()
	return s
}

// sampleAnchors fills an anchored store's samples: the rows of the
// anchor's bucket, which holds k rows, numbered by the anchors' text
// order. Those rows are where the anchors' suffixes sort, so a row's
// anchor number is the rank of its text offset among the anchors'.
func (s *Store) sampleAnchors(text []byte, sa []int32, anchor, k int32) {
	s.anchor = anchor
	at := make([]int32, 0, k) // the anchors' offsets, ascending
	for p, c := range text {
		if int32(c)+1 == anchor {
			at = append(at, int32(p))
		}
	}
	w := bitutil.WidthFor(uint64(max(k-1, 0)))
	s.listOf, s.rowOf = bitutil.NewPackedVector(int(k), w), bitutil.NewPackedVector(int(k), w)
	if b := s.bucketOfChar(anchor); b >= 0 {
		s.anchorBase = int(s.bucketStart[b])
	}
	for i := range int(k) {
		j, _ := slices.BinarySearch(at, sa[s.anchorBase+i])
		s.listOf.Set(i, uint64(j))
		s.rowOf.Set(j, uint64(i))
	}
}

// Anchors returns how many anchors an anchored store samples: 0 for an
// α-sampled one.
func (s *Store) Anchors() int {
	if s.alpha > 0 {
		return 0
	}
	return s.listOf.Len()
}

// AnchorByte returns the byte an anchored store samples at, and whether
// the store is anchored.
func (s *Store) AnchorByte() (byte, bool) {
	return byte(s.anchor - 1), s.alpha == 0
}

// samples returns the SA and ISA sample arrays: the α grid's, or the
// anchors'.
func (s *Store) samples() (sa, isa *bitutil.PackedVector) {
	if s.alpha > 0 {
		return s.saSamples, s.isaSamples
	}
	return s.listOf, s.rowOf
}

// finish places the store's regions on the simulated medium, if any.
func (s *Store) finish() {
	if s.med == nil {
		return
	}
	psiBytes := s.psi.SizeBytes()
	s.psiBytesPerRow = float64(psiBytes) / float64(s.n)
	s.regPsi = s.med.Register(int64(psiBytes))
	sa, isa := s.samples()
	saBytes := sa.SizeBytes()
	if s.saMarks != nil {
		saBytes += s.saMarks.SizeBytes()
	}
	s.saBytesPerSample = float64(saBytes) / float64(max(sa.Len(), 1))
	s.regSA = s.med.Register(int64(saBytes))
	s.isaBytesPerSample = float64(isa.SizeBytes()) / float64(max(isa.Len(), 1))
	s.regISA = s.med.Register(int64(isa.SizeBytes()))
	// The bucket boundary tables are a few KB and always hot; account for
	// them in the footprint without charging accesses.
	s.med.Grow(int64(len(s.bucketChar)*4 + len(s.bucketStart)*4))
}

// InputLen returns the length of the original (uncompressed) text.
func (s *Store) InputLen() int { return s.n - 1 }

// SamplingRate returns α: 0 for an anchored store.
func (s *Store) SamplingRate() int { return s.alpha }

// CompressedSize returns the total in-memory footprint in bytes.
func (s *Store) CompressedSize() int {
	sa, isa := s.samples()
	size := len(s.bucketChar)*4 + len(s.bucketStart)*4 + s.psi.SizeBytes() + sa.SizeBytes() + isa.SizeBytes()
	if s.saMarks != nil {
		size += s.saMarks.SizeBytes()
	}
	return size
}

// bucketOfChar returns the bucket index for shifted char c, or -1.
func (s *Store) bucketOfChar(c int32) int {
	k := bitutil.SearchGE(s.bucketChar, c)
	if k < len(s.bucketChar) && s.bucketChar[k] == c {
		return k
	}
	return -1
}

// stepRow returns the (shifted) first character of the suffix at row and
// Ψ[row], both from the row's one value. This runs once per Ψ step.
func (s *Store) stepRow(row int) (c int32, next int) {
	v := s.psi.Get(row)
	return s.bucketChar[v>>s.psiShift], int(v & (1<<s.psiShift - 1))
}

// LookupSA returns SA[row]: the text offset of the suffix at the given
// suffix-array row, or -1 for a row out of range and on an anchored
// store, which does not know its anchors' offsets. Cost: fewer than α Ψ
// steps — the walk adds one to the SA value per step and stops at a
// multiple of α, or at 0 past the end. The bound is kept for a store
// loaded from a damaged archive, whose Ψ and samples may parse and still
// not belong together: its answer is then wrong, but it is an answer, in
// range.
func (s *Store) LookupSA(row int) int {
	if row < 0 || row >= s.n || s.alpha == 0 {
		return -1
	}
	steps, limit := 0, min(s.alpha, s.n)
	rank, sampled := s.saMarks.Rank(row)
	for !sampled && steps < limit {
		// Charge the walk at the same stride as extraction (see
		// extractChargeStride); a locate is at most α steps.
		if steps%8 == 0 {
			s.chargePsiAt(row)
		}
		_, row = s.stepRow(row)
		steps++
		rank, sampled = s.saMarks.Rank(row)
	}
	if s.med != nil {
		s.med.Access(s.regSA, int64(float64(rank)*s.saBytesPerSample), 8)
	}
	if telemetry.Enabled() {
		mPsiSteps.Add(int64(steps))
	}
	v := int(s.saSamples.Get(rank))*s.alpha - steps
	if v < 0 {
		v += s.n
	}
	return v
}

// LookupISA returns ISA[pos]: the suffix-array row of the suffix starting
// at text offset pos, or -1 for a position out of range and on an
// anchored store. Cost: at most α Ψ steps.
func (s *Store) LookupISA(pos int) int {
	if pos < 0 || pos >= s.n || s.alpha == 0 {
		return -1
	}
	return s.lookupISA(pos, true)
}

// lookupISA walks from the ISA sample preceding pos. charge bills every
// Ψ step of the walk to the medium (a bare lookup); walkers pass false
// and bill the anchor page themselves.
func (s *Store) lookupISA(pos int, charge bool) int {
	q := pos / s.alpha
	if charge {
		s.chargeISAAt(pos)
	}
	row := int(s.isaSamples.Get(q))
	for p := q * s.alpha; p < pos; p++ {
		if charge {
			s.chargePsiAt(row)
		}
		_, row = s.stepRow(row)
	}
	if telemetry.Enabled() {
		mISALookups.Inc()
		mPsiSteps.Add(int64(pos - q*s.alpha))
	}
	return row
}

// extractChargeStride bounds how often an extract's Ψ walk charges the
// medium: one page access per stride steps (plus the ISA sample page).
// A raw per-step charge would bill a 640-byte property extraction as
// ~650 random page touches, which is not how the deployed system behaves
// — the flat files are also persisted on SSD and a cold extraction is
// served by a positioned read ("a single SSD lookup for all queries",
// paper §5.2) while the resident structures serve hot ones. Sampling the
// walk models that batching while still letting the pages warm the
// cache, so residency — and hence each system's footprint — remains what
// decides performance under memory pressure.
const extractChargeStride = 64

// chargePsiAt bills one page access at row's position in the Ψ region.
func (s *Store) chargePsiAt(row int) {
	if s.med != nil {
		s.med.Access(s.regPsi, int64(float64(row)*s.psiBytesPerRow), 8)
	}
}

// chargeSamples bills n adjacent ISA samples from sample q on: at 8
// bytes a sample on the α grid, and at an anchored store's entries'
// place in its region.
func (s *Store) chargeSamples(q, n int) {
	if s.med == nil {
		return
	}
	if s.alpha > 0 {
		s.med.Access(s.regISA, int64(q)*8, int64(n)*8)
		return
	}
	s.med.Access(s.regISA, int64(float64(q)*s.isaBytesPerSample), int64(float64(n)*s.isaBytesPerSample)+1)
}

// chargeISAAt bills the ISA sample page used for text position pos.
func (s *Store) chargeISAAt(pos int) {
	if s.med != nil {
		s.med.Access(s.regISA, int64(pos/s.alpha)*8, 8)
	}
}
