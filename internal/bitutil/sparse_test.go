package bitutil

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// sparseShapes are member lists chosen for what Rank distinguishes:
// densities from every integer to one in 128, chunks of no, one, more
// than 8, more than sparseStride and more than 64 members, a short last
// chunk, and members at the ends of the universe.
func sparseShapes() map[string]struct {
	n       int
	members []int
} {
	type shape = struct {
		n       int
		members []int
	}
	every := func(n, step int) shape {
		var m []int
		for i := 0; i < n; i += step {
			m = append(m, i)
		}
		return shape{n, m}
	}
	random := func(n, oneIn int, seed int64) shape {
		rng := rand.New(rand.NewSource(seed))
		var m []int
		for i := 0; i < n; i++ {
			if rng.Intn(oneIn) == 0 {
				m = append(m, i)
			}
		}
		return shape{n, m}
	}
	// One chunk of each size class among empty ones, then a short chunk.
	var mixed []int
	for c, cnt := range []int{0, 1, 8, 9, 16, 17, 64, 65, 256, 0, 3} {
		for k := 0; k < cnt; k++ {
			mixed = append(mixed, c*sparseChunk+k*(sparseChunk/max(cnt, 1)))
		}
	}
	return map[string]shape{
		"empty":           {1000, nil},
		"empty-universe":  {0, nil},
		"all":             every(3*sparseChunk+7, 1),
		"one-in-4":        every(5*sparseChunk+100, 4),
		"one-in-32":       random(40*sparseChunk+31, 32, 1),
		"one-in-128":      random(40*sparseChunk+1, 128, 2),
		"last-only":       {5*sparseChunk + 9, []int{5*sparseChunk + 8}},
		"first-only":      {5 * sparseChunk, []int{0}},
		"chunk-ends":      {3 * sparseChunk, []int{0, 255, 256, 511, 512, 767}},
		"chunk-sizes":     {10*sparseChunk + 200, mixed},
		"short-last-full": every(sparseChunk+20, 1),
	}
}

// checkSparseAgainstNaive asserts Rank ≡ a []bool and a running count
// for every i in the universe.
func checkSparseAgainstNaive(t *testing.T, name string, s *SparseSet, n int, members []int) {
	t.Helper()
	if s.Universe() != n || s.Len() != len(members) {
		t.Fatalf("%s: universe %d with %d members, want %d with %d", name, s.Universe(), s.Len(), n, len(members))
	}
	in := make([]bool, n)
	for _, i := range members {
		in[i] = true
	}
	below := 0
	for i := 0; i < n; i++ {
		rank, ok := s.Rank(i)
		if ok != in[i] || (ok && rank != below) {
			t.Fatalf("%s: Rank(%d) = %d, %v; want %d, %v", name, i, rank, ok, below, in[i])
		}
		if in[i] {
			below++
		}
	}
}

// TestSparseSetAgainstNaive: every shape, as built and after a serial
// round trip, which must also keep the footprint.
func TestSparseSetAgainstNaive(t *testing.T) {
	for name, sh := range sparseShapes() {
		s := NewSparseSet(sh.n, sh.members)
		checkSparseAgainstNaive(t, name, s, sh.n, sh.members)
		buf := s.AppendBinary([]byte("prefix"))
		back, k, err := DecodeSparseSet(append(buf[6:], "suffix"...))
		if err != nil || k != len(buf)-6 {
			t.Fatalf("%s: decode: %v, consumed %d of %d", name, err, k, len(buf)-6)
		}
		if back.SizeBytes() != s.SizeBytes() {
			t.Errorf("%s: %d bytes after reload, built %d", name, back.SizeBytes(), s.SizeBytes())
		}
		checkSparseAgainstNaive(t, name+" (reloaded)", back, sh.n, sh.members)
	}
}

// TestSparseSetSize pins what the structure is for: a member in 32 costs
// under 0.4 bits per integer of the universe.
func TestSparseSetSize(t *testing.T) {
	sh := sparseShapes()["one-in-32"]
	s := NewSparseSet(sh.n, sh.members)
	if perInt := float64(s.SizeBytes()*8) / float64(sh.n); perInt > 0.4 {
		t.Errorf("%d members in [0,%d): %.3f bits per integer, want at most 0.4", len(sh.members), sh.n, perInt)
	}
}

func TestNewSparseSetRejectsUnsorted(t *testing.T) {
	for name, members := range map[string][]int{"descending": {5, 3}, "repeated": {4, 4}, "past-n": {10}, "negative": {-1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			NewSparseSet(10, members)
		}()
	}
}

// hostileSparseSeeds are corrupt serial forms, each wrong in one way
// DecodeSparseSet must catch; the same bytes are checked in under
// testdata/fuzz/FuzzDecodeSparseSet. The set they corrupt has three
// chunks, the last one short: members {3, 9, 200 | 256, 300 | 515} of
// [0, 520).
func hostileSparseSeeds() map[string][]byte {
	good := NewSparseSet(520, []int{3, 9, 200, 256, 300, 515}).AppendBinary(nil)
	const cum, offs = 16, 16 + 3*4
	patch := func(at int, b byte) []byte {
		bad := append([]byte(nil), good...)
		bad[at] = b
		return bad
	}
	hugeN := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(hugeN, 1<<60)
	return map[string][]byte{
		"truncated_header":    good[:15],
		"truncated_chunks":    good[:cum+7],
		"truncated_offsets":   good[:len(good)-1],
		"huge_n":              hugeN,
		"members_over_bytes":  patch(8, 200),    // header: 200 members
		"count_over_members":  patch(cum+8, 7),  // chunk 2 ends at member 7 of 6
		"count_under_members": patch(cum+8, 5),  // the chunks hold 5 members, the header 6
		"count_decreasing":    patch(cum+4, 2),  // chunk 1 ends before chunk 0 does
		"chunk_boundary_off":  patch(cum+0, 2),  // chunk 1 becomes {200, 0, 44}
		"offset_repeated":     patch(offs+1, 3), // chunk 0 becomes {3, 3, 200}
		"offset_out_of_order": patch(offs+2, 5), // chunk 0 becomes {3, 9, 5}
		"offset_past_n":       patch(offs+5, 8), // chunk 2 is [512, 520): offset 8 is 520
	}
}

// TestDecodeSparseSetRejectsCorrupt: every hostile seed is an error, and
// the checked-in fuzz corpus holds exactly those bytes.
func TestDecodeSparseSetRejectsCorrupt(t *testing.T) {
	checkHostileSeeds(t, "FuzzDecodeSparseSet", hostileSparseSeeds(), func(b []byte) error {
		_, _, err := DecodeSparseSet(b)
		return err
	})
}

// FuzzDecodeSparseSet feeds DecodeSparseSet arbitrary bytes. The only
// outcomes allowed are an error, or a set on which Rank, asked about
// every integer of the universe, finds exactly Len members, in order,
// without panicking.
func FuzzDecodeSparseSet(f *testing.F) {
	for _, sh := range sparseShapes() {
		f.Add(NewSparseSet(sh.n, sh.members).AppendBinary(nil))
	}
	for _, seed := range hostileSparseSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, k, err := DecodeSparseSet(data)
		if err != nil {
			return
		}
		if k > len(data) {
			t.Fatalf("consumed %d of %d bytes", k, len(data))
		}
		found := 0
		for i := 0; i < s.Universe(); i++ {
			if rank, ok := s.Rank(i); ok {
				if rank != found {
					t.Fatalf("Rank(%d)=%d, but %d members are below it", i, rank, found)
				}
				found++
			}
		}
		if found != s.Len() {
			t.Fatalf("found %d members of %d", found, s.Len())
		}
	})
}

// BenchmarkSparseSetRank measures the membership test LookupSA makes
// once per Ψ step, at the density of α = 32: nearly every probe misses.
func BenchmarkSparseSetRank(b *testing.B) {
	sh := sparseShapes()["one-in-32"]
	s := NewSparseSet(sh.n, sh.members)
	rng := rand.New(rand.NewSource(3))
	at := make([]int, 1<<12)
	for i := range at {
		at[i] = rng.Intn(sh.n)
	}
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		r, _ := s.Rank(at[i%len(at)])
		sink += r
	}
	_ = sink
}
