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
package succinct

import (
	"fmt"
	"math/bits"
	"runtime"

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

	// Simulated storage placement; med is nil outside budgeted
	// experiments, and then nothing below is used.
	med              *memsim.Medium
	regPsi           uint32
	regSA            uint32
	regISA           uint32
	psiBytesPerRow   float64
	saBytesPerSample float64
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

// Build compresses text. The text may contain any byte values.
func Build(text []byte, opts Options) *Store {
	alpha := opts.SamplingRate
	if alpha <= 0 {
		alpha = DefaultSamplingRate
	}
	sa := suffix.Array(text)
	n := len(sa)
	s := &Store{n: n, alpha: alpha, med: opts.Medium}

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
	nsamples := (n + alpha - 1) / alpha
	sampledRows := make([]int, 0, nsamples)
	s.saSamples = bitutil.NewPackedVector(nsamples, bitutil.WidthFor(uint64(nsamples-1)))
	s.isaSamples = bitutil.NewPackedVector(nsamples, bitutil.WidthFor(uint64(n-1)))
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
			if q := p / alpha; q*alpha == p {
				s.saSamples.Set(len(sampledRows), uint64(q))
				s.isaSamples.Set(q, uint64(r))
				sampledRows = append(sampledRows, r)
			}
		}
		runtime.Gosched()
	}
	s.saMarks = bitutil.NewSparseSet(n, sampledRows)

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

// finish places the store's regions on the simulated medium, if any.
func (s *Store) finish() {
	if s.med == nil {
		return
	}
	psiBytes := s.psi.SizeBytes()
	s.psiBytesPerRow = float64(psiBytes) / float64(s.n)
	s.regPsi = s.med.Register(int64(psiBytes))
	saBytes := s.saMarks.SizeBytes() + s.saSamples.SizeBytes()
	s.saBytesPerSample = float64(saBytes) / float64(s.saSamples.Len())
	s.regSA = s.med.Register(int64(saBytes))
	s.regISA = s.med.Register(int64(s.isaSamples.SizeBytes()))
	// The bucket boundary tables are a few KB and always hot; account for
	// them in the footprint without charging accesses.
	s.med.Grow(int64(len(s.bucketChar)*4 + len(s.bucketStart)*4))
}

// InputLen returns the length of the original (uncompressed) text.
func (s *Store) InputLen() int { return s.n - 1 }

// SamplingRate returns α.
func (s *Store) SamplingRate() int { return s.alpha }

// CompressedSize returns the total in-memory footprint in bytes.
func (s *Store) CompressedSize() int {
	return len(s.bucketChar)*4 + len(s.bucketStart)*4 + s.psi.SizeBytes() +
		s.saMarks.SizeBytes() + s.saSamples.SizeBytes() + s.isaSamples.SizeBytes()
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
// suffix-array row. Cost: fewer than α Ψ steps — the walk adds one to the
// SA value per step and stops at a multiple of α, or at 0 past the end.
// The bound is kept for a store loaded from a damaged archive, whose Ψ
// and samples may parse and still not belong together: its answer is
// then wrong, but it is an answer, in range.
func (s *Store) LookupSA(row int) int {
	if row < 0 || row >= s.n {
		panic(fmt.Sprintf("succinct: row %d out of range [0,%d)", row, s.n))
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
// at text offset pos. Cost: at most α Ψ steps.
func (s *Store) LookupISA(pos int) int {
	if pos < 0 || pos >= s.n {
		panic(fmt.Sprintf("succinct: pos %d out of range [0,%d)", pos, s.n))
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

// chargeISAAt bills the ISA sample page used for text position pos.
func (s *Store) chargeISAAt(pos int) {
	if s.med != nil {
		s.med.Access(s.regISA, int64(pos/s.alpha)*8, 8)
	}
}
