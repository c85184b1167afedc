package bitutil

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzMonotoneDeltaPatterns drives the monotone encoder with explicit
// delta streams (varint-decoded from the input), hunting for carry and
// anchor bugs in the per-block delta layout. Each stream is encoded eight
// ways — as given (any zero delta turns strict mode off) and with every
// delta raised by one (strict), from base 0 and from a base that makes
// the directory record wider than a word, as one group and grouped by
// the values' top bits — and every accessor of the MonotoneVector must
// agree with the naive slice.
func FuzzMonotoneDeltaPatterns(f *testing.F) {
	seed := make([]byte, 0, 64)
	for i := 0; i < 20; i++ {
		seed = binary.AppendUvarint(seed, uint64(i*i))
	}
	f.Add(seed)
	f.Add([]byte{0x80, 0x80, 0x01, 0x00, 0x01})
	// +1 runs of 15, 16, 17, 32 and 33 elements; runs broken early and
	// late in a block; a single repeated value; one wide delta in a run.
	ones := bytes.Repeat([]byte{1}, 40)
	for _, n := range []int{15, 16, 17, 32, 33} {
		f.Add(ones[:n])
	}
	for _, p := range []int{1, 7, 8, 15} {
		broken := append([]byte(nil), ones...)
		broken[p] = 9
		f.Add(broken)
		broken[p] = 0
		f.Add(broken)
	}
	f.Add(append(append([]byte(nil), ones[:5]...), 0xff, 0xff, 0xff, 0xff, 0x0f, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1))
	for _, deltas := range runShapeDeltas() {
		f.Add(deltas)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var deltas []uint64
		for len(data) > 0 && len(deltas) < 4096 {
			d, n := binary.Uvarint(data)
			if n <= 0 {
				break
			}
			data = data[n:]
			deltas = append(deltas, d%(1<<32)) // keep sums far from overflow
		}
		for _, base := range []uint64{0, 1 << 63} {
			for _, bump := range []uint64{0, 1} {
				vals := make([]uint64, len(deltas))
				sum := base
				for i, d := range deltas {
					sum += d + bump
					vals[i] = sum
				}
				checkMonotoneAgainstNaive(t, NewMonotoneVector(vals), vals)
				checkMonotoneAgainstNaive(t, groupedVector(vals), vals)
			}
		}
	})
}

// groupedVector encodes vals, which must be non-decreasing, grouped by
// their top eight bits: up to 256 groups, so that a group's first record
// often lies blocks past the last one's, and some groups hold no record.
func groupedVector(vals []uint64) *MonotoneVector {
	var shift uint
	if n := len(vals); n > 0 {
		shift = uint(max(bits.Len64(vals[n-1]), 8) - 8)
	}
	return NewGroupedVector(len(vals), shift, func(start int, out []uint64) { copy(out, vals[start:]) })
}

// checkMonotoneAgainstNaive asserts Get ≡ DecodeAll ≡ vals and SearchGE
// ≡ a linear scan, on the vector and on its serial round trip.
func checkMonotoneAgainstNaive(t *testing.T, mv *MonotoneVector, vals []uint64) {
	t.Helper()
	buf := mv.AppendBinary(nil)
	back, k, err := DecodeMonotoneVector(buf)
	if err != nil || k != len(buf) {
		t.Fatalf("own serial form does not decode: %v (%d of %d bytes)", err, k, len(buf))
	}
	for _, v := range []*MonotoneVector{mv, back} {
		if v.Len() != len(vals) {
			t.Fatalf("Len %d, want %d", v.Len(), len(vals))
		}
		if all := v.DecodeAll(nil); len(vals) > 0 && !reflect.DeepEqual(all, vals) {
			t.Fatalf("DecodeAll mismatch: %v want %v", all, vals)
		}
		for i, want := range vals {
			if got := v.Get(i); got != want {
				t.Fatalf("Get(%d)=%d want %d", i, got, want)
			}
		}
		checkSearchGE(t, v, vals)
	}
}

// checkSearchGE compares SearchGE with a linear scan of vals (which must
// be non-decreasing) over a spread of ranges and targets.
func checkSearchGE(t *testing.T, mv *MonotoneVector, vals []uint64) {
	t.Helper()
	n := len(vals)
	if n == 0 {
		return
	}
	for _, r := range [][2]int{{0, n}, {n / 3, n}, {0, n - n/3}, {n / 2, n/2 + 1}, {n - 1, n}} {
		for _, at := range []int{0, r[0], (r[0] + r[1]) / 2, r[1] - 1, n - 1} {
			for _, target := range []uint64{vals[at], vals[at] + 1, vals[at] - 1} {
				want := r[1]
				for i := r[0]; i < r[1]; i++ {
					if vals[i] >= target {
						want = i
						break
					}
				}
				if got := mv.SearchGE(r[0], r[1], target); got != want {
					t.Fatalf("SearchGE(%d,%d,%d)=%d want %d", r[0], r[1], target, got, want)
				}
			}
		}
	}
}

// FuzzDecodeMonotoneVector feeds DecodeMonotoneVector arbitrary bytes.
// The only outcomes allowed are an error, or a vector whose accessors
// agree with each other on every index without panicking: Get ≡
// DecodeAll, and — where the decoded values are in fact non-decreasing,
// which a corrupt input need not be — SearchGE ≡ a linear scan.
func FuzzDecodeMonotoneVector(f *testing.F) {
	for _, vals := range adversarialSequences() {
		f.Add(NewMonotoneVector(vals).AppendBinary(nil))
	}
	for _, seed := range hostileMonotoneSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		mv, k, err := DecodeMonotoneVector(data)
		if err != nil {
			return
		}
		if k > len(data) {
			t.Fatalf("consumed %d of %d bytes", k, len(data))
		}
		all := mv.DecodeAll(nil)
		if len(all) != mv.Len() {
			t.Fatalf("DecodeAll returned %d of %d elements", len(all), mv.Len())
		}
		sorted := true
		for i, want := range all {
			if got := mv.Get(i); got != want {
				t.Fatalf("Get(%d)=%d, DecodeAll says %d", i, got, want)
			}
			sorted = sorted && (i == 0 || all[i-1] <= want)
		}
		if sorted {
			checkSearchGE(t, mv, all)
		} else if n := mv.Len(); n > 0 {
			if got := mv.SearchGE(0, n, all[n/2]); got < 0 || got > n {
				t.Fatalf("SearchGE over unsorted values left [0,%d]: %d", n, got)
			}
		}
	})
}

// hostileMonotoneSeeds are corrupt serial forms, each wrong in one way
// DecodeMonotoneVector must catch: the same bytes are checked in under
// testdata/fuzz/FuzzDecodeMonotoneVector. The vector they corrupt is
// three blocks with payload, then a +1 run of four blocks that writes
// one record: seven blocks, four records, one span.
func hostileMonotoneSeeds() map[string][]byte {
	vals := make([]uint64, 7*monotoneBlock)
	for i := range vals[:3*monotoneBlock] {
		vals[i] = uint64(i * i * 5)
	}
	for i := 3 * monotoneBlock; i < len(vals); i++ {
		vals[i] = vals[i-1] + 1
	}
	mv := NewMonotoneVector(vals)
	if mv.marks[0] != 0b1111 {
		panic(fmt.Sprintf("hostile seeds: marks %#b, want four records in one span", mv.marks[0]))
	}
	good := mv.AppendBinary(nil)
	patchLastRecord := func(w uint, off uint64) []byte {
		bad := *mv
		bad.dir = append([]uint64(nil), mv.dir...)
		pos := uint64(2)*uint64(mv.rw) + uint64(mv.aw)
		for b := uint64(0); b < uint64(widthBits+mv.ow); b++ {
			bad.dir[(pos+b)/64] &^= 1 << ((pos + b) % 64)
		}
		writeBits(bad.dir, pos, widthBits+mv.ow, uint64(w)|off<<widthBits)
		return bad.AppendBinary(nil)
	}
	withMarks := func(m uint64) []byte {
		bad := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(bad[monotoneHeader:], m)
		return bad
	}
	hugeN := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(hugeN, 1<<60)
	wrapN := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(wrapN, ^uint64(0)-3)
	zeroWidth := append([]byte(nil), good...)
	zeroWidth[9] = 0
	wideOffset := append([]byte(nil), good...)
	wideOffset[10] = maxOffsetWidth + 1
	// Group shifts the vector was not encoded with: past a word; every
	// anchor its own group, past maxGroups; and 12, which puts the last
	// payload record alone in group 1, whose derived base then counts
	// the payload before it a second time.
	withGroupShift := func(shift byte) []byte {
		bad := append([]byte(nil), good...)
		bad[11] = shift
		return bad
	}
	return map[string][]byte{
		"truncated_directory": good[:monotoneHeader+8+9],
		"truncated_payload":   good[:len(good)-8],
		"offset_past_end":     patchLastRecord(6, mv.omask),
		"width_65":            patchLastRecord(65, 0),
		"huge_n":              hugeN,
		"n_wraps":             wrapN,
		"anchor_width_0":      zeroWidth,
		"offset_width_58":     wideOffset,
		"group_shift_65":      withGroupShift(65),
		"groups_past_max":     withGroupShift(0),
		"group_base_past_end": withGroupShift(12),
		"no_first_mark":       withMarks(0b1110),
		"mark_past_end":       withMarks(0b1111 | 1<<7),
		"mark_count_off":      withMarks(0b1111 | 1<<32),
		"wide_continued":      withMarks(0b1011),
	}
}

var updateCorpus = flag.Bool("update-corpus", false, "rewrite the hostile seeds checked in under testdata/fuzz")

// checkHostileSeeds asserts that decode refuses every seed and that the
// checked-in corpus of the fuzz target holds exactly those bytes.
func checkHostileSeeds(t *testing.T, target string, seeds map[string][]byte, decode func([]byte) error) {
	t.Helper()
	for name, seed := range seeds {
		if decode(seed) == nil {
			t.Errorf("%s: decoded, want an error", name)
		}
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		path := filepath.Join("testdata", "fuzz", target, name)
		if *updateCorpus {
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Errorf("%s: corpus file is not this seed (%v); rewrite it with go test -run %s -update-corpus", path, err, t.Name())
		}
	}
}

// TestDecodeMonotoneVectorRejectsCorrupt: every hostile seed is an error,
// and the checked-in fuzz corpus holds exactly those bytes.
func TestDecodeMonotoneVectorRejectsCorrupt(t *testing.T) {
	checkHostileSeeds(t, "FuzzDecodeMonotoneVector", hostileMonotoneSeeds(), func(b []byte) error {
		_, _, err := DecodeMonotoneVector(b)
		return err
	})
}
