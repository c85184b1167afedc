package bitutil

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// adversarialSequences builds non-decreasing sequences chosen to stress
// every block shape the monotone kernels distinguish: zero-width blocks,
// width-1 runs, huge-jump blocks, partial final blocks, and mixes.
func adversarialSequences() map[string][]uint64 {
	seqs := map[string][]uint64{
		"empty":        {},
		"single":       {42},
		"all-equal":    make([]uint64, 100),
		"plus-one-run": make([]uint64, 3*monotoneBlock+5),
		"half-block":   make([]uint64, monotoneHalf),
		"half-plus":    make([]uint64, monotoneHalf+1),
		"block-exact":  make([]uint64, monotoneBlock),
		"block-plus":   make([]uint64, monotoneBlock+1),
	}
	for i := range seqs["all-equal"] {
		seqs["all-equal"][i] = 7
	}
	for i := range seqs["plus-one-run"] {
		seqs["plus-one-run"][i] = uint64(i)
	}
	for i := range seqs["half-block"] {
		seqs["half-block"][i] = uint64(i * 3)
	}
	for i := range seqs["half-plus"] {
		seqs["half-plus"][i] = uint64(i * 5)
	}
	for i := range seqs["block-exact"] {
		seqs["block-exact"][i] = uint64(i * i)
	}
	for i := range seqs["block-plus"] {
		seqs["block-plus"][i] = uint64(i) << 10
	}

	// Huge jumps: one delta per block forces the max width while the
	// rest of the block is a +1 run — the Ψ shape sub-anchors target.
	jumps := make([]uint64, 10*monotoneBlock+3)
	v := uint64(0)
	for i := 1; i < len(jumps); i++ {
		if i%monotoneBlock == 5 {
			v += 1 << 40
		} else {
			v++
		}
		jumps[i] = v
	}
	seqs["huge-jumps"] = jumps

	// Alternating zero-width and wide blocks.
	alt := make([]uint64, 8*monotoneBlock)
	v = 0
	for i := 1; i < len(alt); i++ {
		if (i/monotoneBlock)%2 == 1 {
			v += uint64(rand.New(rand.NewSource(int64(i))).Intn(1 << 20))
		}
		alt[i] = v
	}
	seqs["alternating"] = alt

	// Random monotone with mixed magnitudes, partial last block.
	rng := rand.New(rand.NewSource(99))
	rnd := make([]uint64, 6*monotoneBlock+monotoneHalf+3)
	for i := 1; i < len(rnd); i++ {
		step := uint64(0)
		switch rng.Intn(4) {
		case 0:
			step = uint64(rng.Intn(2))
		case 1:
			step = uint64(rng.Intn(100))
		case 2:
			step = uint64(rng.Intn(1 << 16))
		case 3:
			step = uint64(rng.Intn(1 << 30))
		}
		rnd[i] = rnd[i-1] + step
	}
	seqs["random-mixed"] = rnd

	// The shapes the directory record and the strictness rule create.
	// run(n, base) is a +1 run: strict, so payload-free.
	run := func(n int, base uint64) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = base + uint64(i)
		}
		return out
	}
	for _, n := range []int{2, 15, 16, 17, 32, 33} {
		seqs[fmt.Sprintf("run-%d", n)] = run(n, 1000)
	}
	for p := 1; p < monotoneBlock; p++ {
		// A run of two blocks broken at position p of the first: one
		// delta of 7 (strict stays on), or one repeated value (strict
		// off, so the rest of the run costs width-1 payload again).
		broken, dup := run(2*monotoneBlock, 50), run(2*monotoneBlock, 50)
		for i := p; i < len(broken); i++ {
			broken[i] += 6
			dup[i]--
		}
		seqs[fmt.Sprintf("run-broken-at-%d", p)] = broken
		seqs[fmt.Sprintf("run-dup-at-%d", p)] = dup
	}
	// One duplicate in the last position of a long run: every other
	// block is still a run, but none may be payload-free.
	lateDup := run(5*monotoneBlock, 0)
	lateDup[len(lateDup)-1] = lateDup[len(lateDup)-2]
	seqs["run-dup-last"] = lateDup
	// One 64-bit delta inside a run, before and after the sub-anchor.
	for _, p := range []int{3, monotoneHalf + 3} {
		wide := run(2*monotoneBlock, 0)
		for i := p; i < len(wide); i++ {
			wide[i] += math.MaxUint64 - 100
		}
		seqs[fmt.Sprintf("run-delta64-at-%d", p)] = wide
	}
	// A final short block of width >= 2, without and with a sub-anchor.
	for _, tail := range []int{1, monotoneHalf, monotoneHalf + 1, monotoneBlock - 1} {
		short := make([]uint64, monotoneBlock+tail)
		for i := range short {
			short[i] = uint64(i * i * 3)
		}
		seqs[fmt.Sprintf("short-tail-%d", tail)] = short
	}
	// Anchors of 64 bits: the directory record is wider than a word.
	wideRec := make([]uint64, 4*monotoneBlock+3)
	for i := range wideRec {
		wideRec[i] = 1<<63 + uint64(i*i)<<20
	}
	seqs["record-over-64-bits"] = wideRec
	// ... and one such record followed by continued blocks, across a span.
	seqs["record-over-64-bits-run"] = run((spanBlocks+8)*monotoneBlock+1, 1<<63)

	// The shapes the one-record-per-run directory creates, each as a
	// constant run (strict off) and as a +1 run (strict on).
	for name, deltas := range runShapeDeltas() {
		for bump, kind := range []string{"const", "run"} {
			vals, sum := make([]uint64, len(deltas)), uint64(1000)
			for i, d := range deltas {
				sum += uint64(d) + uint64(bump)
				vals[i] = sum
			}
			seqs[name+"/"+kind] = vals
		}
	}
	return seqs
}

// runShapeDeltas are delta streams, one byte per delta (the form
// FuzzMonotoneDeltaPatterns reads; element i is the sum of deltas 0..i),
// for the shapes the continuation rule creates. They are zeros but for
// the breaks: as given, constant runs of a non-strict vector; with every
// delta raised by one, +1 runs of a strict one. Both continue records.
func runShapeDeltas() map[string][]byte {
	const block, span = monotoneBlock, spanBlocks * monotoneBlock
	shapes := map[string][]byte{}
	// A vector that is a single run: of the edge lengths, ending exactly
	// at a block boundary after crossing 0, 1, 30, 31, 32 and 63 of them
	// (at a span boundary for 32 and 64 blocks), and ending mid-block
	// after crossing 1, 2, 31, 32, 33 and 64.
	for _, n := range []int{0, 1, block, block + 1, span, span + 1} {
		shapes[fmt.Sprintf("single-run-%d", n)] = make([]byte, n)
	}
	for _, k := range []int{1, 2, 31, 32, 33, 64} {
		shapes[fmt.Sprintf("single-run-%d", k*block)] = make([]byte, k*block)
		shapes[fmt.Sprintf("single-run-%d", k*block+block/2)] = make([]byte, k*block+block/2)
	}
	// A run of 64 blocks and a half broken by one delta: mid-block, in a
	// block's last slot, across a block boundary (both neighbours stay
	// payload-free, but the second must not continue the first), and on
	// either side of and across a span boundary.
	for _, at := range []int{2*block + 5, 3*block - 1, 2 * block, span - 1, span, span + 1, 33 * block} {
		broken := make([]byte, 64*block+block/2)
		broken[at] = 7
		shapes[fmt.Sprintf("run-broken-at-%d", at)] = broken
	}
	return shapes
}

// TestMonotoneShapesEncodeAsIntended pins what the shapes above are for:
// a strict +1 run is payload-free, a single repeated value anywhere turns
// strict mode off for the whole vector, and 64-bit anchors take the
// two-window record path.
func TestMonotoneShapesEncodeAsIntended(t *testing.T) {
	seqs := adversarialSequences()
	for _, name := range []string{"run-16", "run-33", "plus-one-run", "record-over-64-bits-run"} {
		mv := NewMonotoneVector(seqs[name])
		if st := mv.Stats(); mv.strict != 1 || st.PayloadBytes != 0 || st.EmptyBlocks != st.Blocks {
			t.Errorf("%s: strict=%d stats=%+v, want a payload-free strict vector", name, mv.strict, st)
		}
	}
	for _, name := range []string{"run-dup-at-1", "run-dup-at-15", "run-dup-last", "all-equal"} {
		if mv := NewMonotoneVector(seqs[name]); mv.strict != 0 {
			t.Errorf("%s: strict mode on over a repeated value", name)
		}
	}
	// A repeated value costs what it always did: width-1 blocks for the
	// run around it.
	if st := NewMonotoneVector(seqs["run-dup-last"]).Stats(); st.EmptyBlocks != 0 || st.PayloadBytes == 0 {
		t.Errorf("run-dup-last: stats %+v, want every block to carry width-1 payload", st)
	}
	if mv := NewMonotoneVector(seqs["run-broken-at-5"]); mv.strict != 1 || mv.Stats().EmptyBlocks != 1 {
		t.Errorf("run-broken-at-5: strict=%d stats=%+v, want one payload-free block of two", mv.strict, mv.Stats())
	}
	for _, name := range []string{"record-over-64-bits", "record-over-64-bits-run"} {
		if mv := NewMonotoneVector(seqs[name]); mv.rw <= 64 {
			t.Errorf("%s: record width %d, want over 64", name, mv.rw)
		}
	}

	// One record per run: a span's first block always writes one, a block
	// continuing a width-0 run never does, and a break writes one for the
	// broken block (when it carries payload) and one for the run after it.
	for name, want := range map[string]int{
		"single-run-0":            0,
		"single-run-1":            1,
		"single-run-16":           1,
		"single-run-17":           1,
		"single-run-512":          1,
		"single-run-513":          2,
		"single-run-1032":         3,
		"run-33":                  1,
		"record-over-64-bits-run": 2,
		"run-broken-at-32":        4, // blocks 0 and 2, spans 1 and 2
		"run-broken-at-37":        5, // blocks 0, 2 (payload) and 3, spans 1 and 2
		"run-broken-at-47":        5,
		"run-broken-at-511":       4, // block 0, block 31 (payload), spans 1 and 2
		"run-broken-at-512":       3, // the break falls on a forced record
		"run-broken-at-513":       4, // spans 0 and 1 (payload), block 33, span 2
		"run-broken-at-528":       4,
		"all-equal":               1,
		"plus-one-run":            1,
		"short-tail-9":            2,
	} {
		checked := 0
		for _, kind := range []string{"", "/const", "/run"} {
			vals, ok := seqs[name+kind]
			if !ok {
				continue
			}
			checked++
			if st := NewMonotoneVector(vals).Stats(); st.Records != want {
				t.Errorf("%s%s: %d records for %d blocks, want %d", name, kind, st.Records, st.Blocks, want)
			}
		}
		if checked == 0 {
			t.Errorf("%s: no such sequence", name)
		}
	}
}

// TestMonotoneGetAgainstReference checks Get and DecodeAll against the
// raw sequence on every adversarial pattern, as one group and grouped,
// and round-trips through serialization to prove the directory records,
// the group bases and the sub-anchor slots survive encode/decode.
func TestMonotoneGetAgainstReference(t *testing.T) {
	for key, vals := range adversarialSequences() {
		for g, mv := range []*MonotoneVector{NewMonotoneVector(vals), groupedVector(vals)} {
			name := fmt.Sprintf("%s/grouped=%v", key, g == 1)
			buf := mv.AppendBinary(nil)
			dec, k, err := DecodeMonotoneVector(buf)
			if err != nil || k != len(buf) {
				t.Fatalf("%s: decode: %v, consumed %d of %d", name, err, k, len(buf))
			}
			if dec.Stats() != mv.Stats() || dec.SizeBytes() != mv.SizeBytes() || !slices.Equal(dec.gbase, mv.gbase) {
				t.Fatalf("%s: stats %+v, bases %v after reload, built %+v, %v", name, dec.Stats(), dec.gbase, mv.Stats(), mv.gbase)
			}
			for _, v := range []*MonotoneVector{mv, dec} {
				for i, want := range vals {
					if got := v.Get(i); got != want {
						t.Fatalf("%s: Get(%d)=%d want %d", name, i, got, want)
					}
				}
				if all := v.DecodeAll(nil); len(all) != len(vals) || (len(vals) > 0 && !reflect.DeepEqual(all, vals)) {
					t.Fatalf("%s: DecodeAll=%v want %v", name, all, vals)
				}
			}
		}
	}
}

// TestMonotoneSearchGEAgainstReference checks SearchGE against a linear
// reference over random sub-ranges and probe targets, including targets
// below, between, equal to and above the stored values.
func TestMonotoneSearchGEAgainstReference(t *testing.T) {
	refSearch := func(vals []uint64, lo, hi int, target uint64) int {
		for i := lo; i < hi; i++ {
			if vals[i] >= target {
				return i
			}
		}
		return hi
	}
	rng := rand.New(rand.NewSource(11))
	for name, vals := range adversarialSequences() {
		if len(vals) == 0 {
			continue
		}
		mv := NewMonotoneVector(vals)
		for trial := 0; trial < 300; trial++ {
			lo := rng.Intn(len(vals))
			hi := lo + rng.Intn(len(vals)-lo+1)
			var target uint64
			switch rng.Intn(4) {
			case 0:
				target = vals[rng.Intn(len(vals))] // exact hit somewhere
			case 1:
				target = vals[rng.Intn(len(vals))] + uint64(rng.Intn(3))
			case 2:
				target = 0
			case 3:
				target = vals[len(vals)-1] + 1 // above everything
			}
			want := refSearch(vals, lo, hi, target)
			if got := mv.SearchGE(lo, hi, target); got != want {
				t.Fatalf("%s: SearchGE(%d,%d,%d)=%d want %d", name, lo, hi, target, got, want)
			}
		}
	}
}

// TestSearchHelpersExhaustive checks the branchless SearchGE/SearchGT
// against sort.Search on every slice length 0..40 with duplicate-heavy
// contents and every target in range.
func TestSearchHelpersExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n <= 40; n++ {
		xs := make([]int64, n)
		v := int64(0)
		for i := range xs {
			v += int64(rng.Intn(3)) // runs of duplicates
			xs[i] = v
		}
		for target := int64(-1); target <= v+1; target++ {
			wantGE := sort.Search(n, func(i int) bool { return xs[i] >= target })
			if got := SearchGE(xs, target); got != wantGE {
				t.Fatalf("SearchGE(%v, %d)=%d want %d", xs, target, got, wantGE)
			}
			wantGT := sort.Search(n, func(i int) bool { return xs[i] > target })
			if got := SearchGT(xs, target); got != wantGT {
				t.Fatalf("SearchGT(%v, %d)=%d want %d", xs, target, got, wantGT)
			}
		}
	}
}
