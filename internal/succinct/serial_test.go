package succinct

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strconv"
	"strings"
	"testing"

	"zipg/internal/bitutil"
	"zipg/internal/suffix"
)

// TestLookupSAAgainstSuffixArray: LookupSA(row) is the suffix array, and
// LookupISA its inverse, for every row of every corpus at every sampling
// rate — as built and after a serial round trip, which must also keep
// CompressedSize.
func TestLookupSAAgainstSuffixArray(t *testing.T) {
	for name, text := range diffTexts() {
		sa := suffix.Array(text)
		for _, alpha := range []int{4, 8, 32} {
			built := Build(text, Options{SamplingRate: alpha})
			loaded, err := UnmarshalStore(built.MarshalBinary(), nil)
			if err != nil {
				t.Fatalf("%s/α=%d: %v", name, alpha, err)
			}
			if loaded.CompressedSize() != built.CompressedSize() {
				t.Errorf("%s/α=%d: %d bytes after reload, built %d", name, alpha, loaded.CompressedSize(), built.CompressedSize())
			}
			for _, s := range []*Store{built, loaded} {
				for row, want := range sa {
					if got := s.LookupSA(row); got != int(want) {
						t.Fatalf("%s/α=%d: LookupSA(%d)=%d want %d", name, alpha, row, got, want)
					}
					if got := s.LookupISA(int(want)); got != row {
						t.Fatalf("%s/α=%d: LookupISA(%d)=%d want %d", name, alpha, want, got, row)
					}
				}
			}
		}
	}
}

// TestRegionsSumToCompressedSize: the regions RegionCodecs lists and the
// bucket tables are the whole footprint — nothing is reported twice and
// nothing is left out of the report.
func TestRegionsSumToCompressedSize(t *testing.T) {
	for name, text := range diffTexts() {
		s := Build(text, Options{SamplingRate: 8})
		sum := (len(s.bucketChar) + len(s.bucketStart)) * 4
		var names []string
		for _, rc := range s.RegionCodecs() {
			sum += rc.Bytes
			names = append(names, rc.Region)
		}
		if want := []string{"psi", "marks", "sa", "isa"}; !slices.Equal(names, want) {
			t.Errorf("%s: regions %v, want %v", name, names, want)
		}
		if sum != s.CompressedSize() {
			t.Errorf("%s: regions and tables sum to %d bytes, CompressedSize is %d", name, sum, s.CompressedSize())
		}
	}
}

// TestSerialOneVersion: a store marshals under the one magic, reloads
// and answers identically; every other magic — the retired ZSUC1–ZSUC6
// included — is refused with an error that names what was found.
func TestSerialOneVersion(t *testing.T) {
	text := bytes.Repeat([]byte("abracadabra$kalamazoo|"), 40)
	built := Build(text, Options{SamplingRate: 8})
	blob := built.MarshalBinary()
	if !bytes.HasPrefix(blob, []byte("ZSUC7\x00")) {
		t.Fatalf("marshaled with magic %q", blob[:6])
	}
	got, err := UnmarshalStore(blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Extract(0, len(text)), text) {
		t.Fatal("reloaded store extracts different bytes")
	}
	if w, g := built.Count([]byte("abra")), got.Count([]byte("abra")); g != w {
		t.Fatalf("reloaded Count = %d, want %d", g, w)
	}
	if w, g := built.CompressedSize(), got.CompressedSize(); g != w {
		t.Fatalf("reloaded CompressedSize = %d, want %d", g, w)
	}

	for _, magic := range []string{"ZSUC1\x00", "ZSUC2\x00", "ZSUC3\x00", "ZSUC4\x00", "ZSUC5\x00", "ZSUC6\x00", "ZSUC9\x00", "nope"} {
		bad := append([]byte(magic), blob[6:]...)
		_, err := UnmarshalStore(bad, nil)
		if err == nil || !strings.Contains(err.Error(), "unsupported format version") ||
			!strings.Contains(err.Error(), strconv.Quote(magic)[1:5]) {
			t.Errorf("magic %q: err = %v, want unsupported format version naming it", magic, err)
		}
	}
	if _, err := UnmarshalStore(nil, nil); err == nil {
		t.Error("empty input loaded")
	}
}

// corruptStores returns serial forms that every decoder accepts on its
// own and UnmarshalStore must still refuse, because what one structure
// yields would be out of range for the next.
func corruptStores(t testing.TB) map[string][]byte {
	text := bytes.Repeat([]byte("abracadabra$kalamazoo|"), 40)
	good := Build(text, Options{SamplingRate: 8})
	with := func(change func(s *Store)) []byte {
		s := *good
		s.bucketStart = append([]int32(nil), good.bucketStart...)
		s.bucketChar = append([]int32(nil), good.bucketChar...)
		change(&s)
		return s.MarshalBinary()
	}
	// psiWith re-encodes Ψ, grouped by bucket as Build does, after
	// change has edited its values.
	psiWith := func(change func(vals []uint64) []uint64) *bitutil.MonotoneVector {
		vals := change(good.psi.DecodeAll(nil))
		return bitutil.NewGroupedVector(len(vals), good.psiShift, func(start int, out []uint64) { copy(out, vals[start:]) })
	}
	// Ψ's payload one word short: the header of the vector after the
	// bucket tables counts one payload word fewer, and its last word is
	// cut out, so the last block's payload runs past the end.
	nb := len(good.bucketChar)
	blob := good.MarshalBinary()
	at := len(serialMagic) + 24 + nb*4 + (nb+1)*4
	_, k, err := bitutil.DecodeMonotoneVector(blob[at:])
	if err != nil {
		t.Fatal(err)
	}
	const nbitsAt = 12 // n, then strict, aw, ow and gshift
	nbits := binary.LittleEndian.Uint64(blob[at+nbitsAt:])
	if nbits == 0 {
		t.Fatal("Ψ of the corrupted store has no payload to cut")
	}
	shortPayload := append(append([]byte(nil), blob[:at+k-8]...), blob[at+k:]...)
	binary.LittleEndian.PutUint64(shortPayload[at+nbitsAt:], nbits-1)
	unpack := func(pv *bitutil.PackedVector) []uint64 {
		vals := make([]uint64, pv.Len())
		for i := range vals {
			vals[i] = pv.Get(i)
		}
		return vals
	}
	samples := func(pv *bitutil.PackedVector, at int, v uint64) *bitutil.PackedVector {
		vals := unpack(pv)
		vals[at] = v
		return bitutil.PackSlice(vals)
	}
	n := good.n
	nsamples := good.saSamples.Len()
	var rows []int
	for row := 0; row < n; row++ {
		if _, ok := good.saMarks.Rank(row); ok {
			rows = append(rows, row)
		}
	}
	// The anchored store's faults, on spans that each begin with '|'.
	anchored := BuildAnchored(bytes.Repeat([]byte("|abra|cadabra|kalamazoo"), 40), '|', nil)
	withAnchors := func(change func(s *Store)) []byte {
		s := *anchored
		change(&s)
		return s.MarshalBinary()
	}
	lists := anchored.listOf.Len()
	return map[string][]byte{
		"anchor_numbers_short":     withAnchors(func(s *Store) { s.listOf = bitutil.PackSlice(unpack(s.listOf)[1:]) }),
		"anchor_rows_one_more":     withAnchors(func(s *Store) { s.rowOf = bitutil.PackSlice(append(unpack(s.rowOf), 0)) }),
		"anchor_number_past_count": withAnchors(func(s *Store) { s.listOf = samples(s.listOf, 3, uint64(lists)) }),
		"anchor_row_past_bucket":   withAnchors(func(s *Store) { s.rowOf = samples(s.rowOf, 3, uint64(lists)) }),
		"anchor_rows_not_inverse":  withAnchors(func(s *Store) { s.rowOf = samples(s.rowOf, 3, s.rowOf.Get(4)) }),
		"anchor_byte_missing":      withAnchors(func(s *Store) { s.anchor = 'Z' + 1 }),
		"anchor_byte_past_255":     withAnchors(func(s *Store) { s.anchor = 300 }),
		"buckets_start_past_0":     with(func(s *Store) { s.bucketStart[0] = 1 }),
		"buckets_end_before_n":     with(func(s *Store) { s.bucketStart[len(s.bucketStart)-1]-- }),
		"buckets_decreasing":       with(func(s *Store) { s.bucketStart[2], s.bucketStart[3] = s.bucketStart[3], s.bucketStart[2] }),
		"bucket_chars_repeat":      with(func(s *Store) { s.bucketChar[2] = s.bucketChar[1] }),
		"bucket_char_past_256":     with(func(s *Store) { s.bucketChar[len(s.bucketChar)-1] = 300 }),
		"psi_too_short":            with(func(s *Store) { s.psi = psiWith(func(vals []uint64) []uint64 { return vals[1:] }) }),
		"psi_value_past_n": with(func(s *Store) {
			s.psi = psiWith(func(vals []uint64) []uint64 {
				vals[n-1] = uint64(nb-1)<<s.psiShift | uint64(n)
				return vals
			})
		}),
		// The last row of bucket 1 takes the value of the first row of
		// bucket 2: still non-decreasing, but a step from it would read
		// the wrong character.
		"psi_wrong_bucket_prefix": with(func(s *Store) {
			s.psi = psiWith(func(vals []uint64) []uint64 {
				end := s.bucketStart[2]
				vals[end-1] = vals[end]
				return vals
			})
		}),
		"psi_payload_past_end":  shortPayload,
		"one_sampled_row_short": with(func(s *Store) { s.saMarks = bitutil.NewSparseSet(n, rows[1:]) }),
		"sampled_rows_past_n":   with(func(s *Store) { s.saMarks = bitutil.NewSparseSet(n+1, rows) }),
		"one_sa_sample_short":   with(func(s *Store) { s.saSamples = bitutil.PackSlice(unpack(s.saSamples)[1:]) }),
		"one_isa_sample_more":   with(func(s *Store) { s.isaSamples = bitutil.PackSlice(append(unpack(s.isaSamples), 0)) }),
		"sa_sample_past_range":  with(func(s *Store) { s.saSamples = samples(s.saSamples, 3, uint64(nsamples)) }),
		"isa_sample_past_n":     with(func(s *Store) { s.isaSamples = samples(s.isaSamples, 3, uint64(n)) }),
		"alpha_disagrees":       with(func(s *Store) { s.alpha = 4 }),
	}
}

// TestUnmarshalStoreRejectsCorrupt: each of the cross-structure faults
// is an error at load, not a panic at the first query.
func TestUnmarshalStoreRejectsCorrupt(t *testing.T) {
	for name, blob := range corruptStores(t) {
		if _, err := UnmarshalStore(blob, nil); err == nil {
			t.Errorf("%s: loaded, want an error", name)
		}
	}
}

// FuzzUnmarshalStore feeds UnmarshalStore arbitrary bytes. The only
// outcomes allowed are an error, or a store on which Extract of the whole
// text, LookupSA of every row and LookupISA of every position return
// without panicking, in range — and, where the store's Ψ and samples do
// belong together (a damaged archive's need not), agree: LookupISA and
// LookupSA are inverses and the text is as long as the header says.
func FuzzUnmarshalStore(f *testing.F) {
	// Short texts: the engine minimizes every input that finds new
	// coverage, for up to a minute when the input is kilobytes long.
	for _, text := range [][]byte{
		[]byte("ab"), []byte("mississippi"), benchText(300, 3), bytes.Repeat([]byte("aaaabbbbccccaaaa"), 40),
	} {
		for _, alpha := range []int{2, 4, 32} {
			f.Add(Build(text, Options{SamplingRate: alpha}).MarshalBinary())
		}
		f.Add(BuildAnchored(text, text[0], nil).MarshalBinary())
	}
	for _, blob := range corruptStores(f) {
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := UnmarshalStore(data, nil)
		if err != nil {
			return
		}
		n := s.InputLen() + 1
		if s.SamplingRate() == 0 {
			fuzzAnchored(t, s)
			return
		}
		if n*min(n, s.SamplingRate()) > 1<<21 {
			t.Skip("a lookup walks up to α rows; every lookup of a store this large takes all the time there is")
		}
		text := s.Extract(0, n)
		coherent := len(text) == n-1
		for pos := 0; pos < n; pos++ {
			row := s.LookupISA(pos)
			if row < 0 || row >= n {
				t.Fatalf("LookupISA(%d)=%d outside [0,%d)", pos, row, n)
			}
			back := s.LookupSA(row)
			if back < 0 || back >= n {
				t.Fatalf("LookupSA(%d)=%d outside [0,%d)", row, back, n)
			}
			coherent = coherent && back == pos
		}
		if !coherent {
			return
		}
		for row := 0; row < n; row++ {
			if pos := s.LookupSA(row); s.LookupISA(pos) != row {
				t.Fatalf("ISA[SA[%d]=%d]=%d", row, pos, s.LookupISA(pos))
			}
		}
		if n > 3 {
			if hits := s.Search(text[n-3:]); len(hits) == 0 || hits[len(hits)-1] != int64(n-3) {
				t.Fatalf("Search of the text's last two bytes found %v, want %d last", hits, n-3)
			}
		}
	})
}

// fuzzAnchored is FuzzUnmarshalStore's check of an anchored store: a
// walk from every anchor reads without panicking, and every search hit
// is placed at an anchor in range.
func fuzzAnchored(t *testing.T, s *Store) {
	n := s.InputLen() + 1
	if n*n > 1<<21 {
		t.Skip("a hit walks up to n rows to its anchor")
	}
	for j := 0; j < s.Anchors(); j++ {
		w := s.WalkAnchor(j, 0, []int{n / 2})
		if got := w.Append(nil, n); len(got) > n-1 {
			t.Fatalf("a walk from anchor %d read %d bytes of a %d-byte text", j, len(got), n-1)
		}
	}
	a, _ := s.AnchorByte()
	for _, pat := range [][]byte{{a}, {'a'}, {a, 'a'}} {
		for _, j := range s.SearchAnchored(pat) {
			if j < -1 || j >= s.Anchors() {
				t.Fatalf("SearchAnchored(%q) placed a hit at anchor %d of %d", pat, j, s.Anchors())
			}
		}
	}
}
