package succinct

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"zipg/internal/memsim"
)

// naiveSearch returns all occurrence offsets of pat in text.
func naiveSearch(text, pat []byte) []int64 {
	var out []int64
	for i := 0; i+len(pat) <= len(text); i++ {
		if bytes.Equal(text[i:i+len(pat)], pat) {
			out = append(out, int64(i))
		}
	}
	return out
}

func buildText(seed int64, n, sigma int) []byte {
	rng := rand.New(rand.NewSource(seed))
	text := make([]byte, n)
	for i := range text {
		text[i] = byte('a' + rng.Intn(sigma))
	}
	return text
}

func TestExtractWholeText(t *testing.T) {
	text := []byte("the quick brown fox jumps over the lazy dog")
	s := Build(text, Options{SamplingRate: 4})
	got := s.Extract(0, len(text))
	if !bytes.Equal(got, text) {
		t.Fatalf("Extract(0, n) = %q, want %q", got, text)
	}
}

func TestExtractSubstrings(t *testing.T) {
	text := buildText(1, 2000, 4)
	for _, alpha := range []int{1, 2, 8, 32, 128} {
		s := Build(text, Options{SamplingRate: alpha})
		rng := rand.New(rand.NewSource(2))
		for trial := 0; trial < 100; trial++ {
			off := rng.Intn(len(text))
			length := 1 + rng.Intn(64)
			want := text[off:min(off+length, len(text))]
			if got := s.Extract(off, length); !bytes.Equal(got, want) {
				t.Fatalf("alpha=%d Extract(%d,%d) = %q, want %q", alpha, off, length, got, want)
			}
		}
	}
}

func TestExtractPastEnd(t *testing.T) {
	text := []byte("hello")
	s := Build(text, Options{})
	if got := s.Extract(3, 100); !bytes.Equal(got, []byte("lo")) {
		t.Fatalf("Extract(3,100) = %q, want \"lo\"", got)
	}
	if got := s.Extract(5, 1); got != nil {
		t.Fatalf("Extract at end = %q, want nil", got)
	}
	if got := s.Extract(-1, 1); got != nil {
		t.Fatalf("Extract(-1) = %q, want nil", got)
	}
}

func TestSearchAgainstNaive(t *testing.T) {
	text := buildText(3, 3000, 3)
	s := Build(text, Options{SamplingRate: 8})
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		plen := 1 + rng.Intn(8)
		var pat []byte
		if trial%2 == 0 && plen < len(text) {
			// Sample a pattern that definitely occurs.
			off := rng.Intn(len(text) - plen)
			pat = text[off : off+plen]
		} else {
			pat = buildText(rng.Int63(), plen, 4)
		}
		want := naiveSearch(text, pat)
		got := s.Search(pat)
		if len(got) != len(want) {
			t.Fatalf("Search(%q): %d hits, want %d", pat, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Search(%q)[%d] = %d, want %d", pat, i, got[i], want[i])
			}
		}
		if got := s.Count(pat); got != len(want) {
			t.Fatalf("Count(%q) = %d, want %d", pat, got, len(want))
		}
	}
}

func TestSearchEdgeCases(t *testing.T) {
	text := []byte("abracadabra")
	s := Build(text, Options{SamplingRate: 2})
	if got := s.Search(nil); got != nil {
		t.Errorf("empty pattern should return nil, got %v", got)
	}
	if got := s.Search([]byte("zzz")); got != nil {
		t.Errorf("absent char: got %v", got)
	}
	if got := s.Search([]byte("abracadabra")); len(got) != 1 || got[0] != 0 {
		t.Errorf("full-text search: got %v", got)
	}
	if got := s.Search([]byte("abracadabraa")); got != nil {
		t.Errorf("overlong pattern: got %v", got)
	}
	if got := s.Search([]byte("a")); len(got) != 5 {
		t.Errorf("single char: got %v, want 5 hits", got)
	}
	// Suffix of the text.
	if got := s.Search([]byte("bra")); len(got) != 2 || got[0] != 1 || got[1] != 8 {
		t.Errorf("Search(bra) = %v, want [1 8]", got)
	}
}

func TestLookupSAISAInverse(t *testing.T) {
	text := buildText(5, 1000, 5)
	s := Build(text, Options{SamplingRate: 16})
	for pos := 0; pos < s.n; pos++ {
		row := s.LookupISA(pos)
		if got := s.LookupSA(row); got != pos {
			t.Fatalf("SA[ISA[%d]] = %d", pos, got)
		}
	}
}

func TestBinaryAlphabetAndZeroBytes(t *testing.T) {
	// Texts containing 0x00 and 0xFF must work (the sentinel is logical,
	// not a reserved byte value).
	text := []byte{0, 255, 0, 0, 255, 1, 0, 255, 255, 0}
	s := Build(text, Options{SamplingRate: 2})
	if got := s.Extract(0, len(text)); !bytes.Equal(got, text) {
		t.Fatalf("Extract = %v, want %v", got, text)
	}
	want := naiveSearch(text, []byte{0, 255})
	got := s.Search([]byte{0, 255})
	if len(got) != len(want) {
		t.Fatalf("Search = %v, want %v", got, want)
	}
}

func TestQuickExtractSearchAgree(t *testing.T) {
	// Property: for any text and any (offset, length), Extract returns
	// exactly the substring; for any pattern drawn from the text, Search
	// finds its source offset.
	f := func(text []byte, off8, len8 uint8) bool {
		if len(text) == 0 {
			return true
		}
		if len(text) > 1500 {
			text = text[:1500]
		}
		s := Build(text, Options{SamplingRate: 8})
		off := int(off8) % len(text)
		length := 1 + int(len8)%32
		want := text[off:min(off+length, len(text))]
		if !bytes.Equal(s.Extract(off, length), want) {
			return false
		}
		if len(want) > 0 {
			hits := s.Search(want)
			found := false
			for _, h := range hits {
				if h == int64(off) {
					found = true
				}
				if !bytes.Equal(text[h:int(h)+len(want)], want) {
					return false
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCompression(t *testing.T) {
	// A repetitive "social graph like" text should compress well below
	// its raw size at alpha=32; random bytes should not blow up beyond a
	// small constant factor.
	rep := []byte(strings.Repeat("name:alice,age:42,city:ithaca;name:bob,age:37,city:princeton;", 2000))
	s := Build(rep, Options{SamplingRate: 32})
	ratio := float64(s.CompressedSize()) / float64(len(rep))
	if ratio > 0.8 {
		t.Errorf("repetitive text ratio = %.2f, want < 0.8", ratio)
	}
	t.Logf("repetitive: %d -> %d bytes (%.2fx)", len(rep), s.CompressedSize(), ratio)

	rnd := make([]byte, 100_000)
	rand.New(rand.NewSource(6)).Read(rnd)
	s2 := Build(rnd, Options{SamplingRate: 32})
	ratio2 := float64(s2.CompressedSize()) / float64(len(rnd))
	if ratio2 > 3.5 {
		t.Errorf("random text ratio = %.2f, want < 3.5", ratio2)
	}
	t.Logf("random: %d -> %d bytes (%.2fx)", len(rnd), s2.CompressedSize(), ratio2)
}

func TestAlphaSpaceLatencyTradeoff(t *testing.T) {
	// Higher alpha must not increase the footprint (fewer samples).
	text := buildText(7, 50_000, 8)
	s8 := Build(text, Options{SamplingRate: 8})
	s64 := Build(text, Options{SamplingRate: 64})
	if s64.CompressedSize() >= s8.CompressedSize() {
		t.Errorf("alpha=64 size %d >= alpha=8 size %d", s64.CompressedSize(), s8.CompressedSize())
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	text := buildText(8, 5000, 6)
	s := Build(text, Options{SamplingRate: 16})
	buf := s.MarshalBinary()
	got, err := UnmarshalStore(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Extract(0, len(text)), text) {
		t.Fatal("round-tripped store does not reproduce the text")
	}
	pat := text[100:106]
	if want, have := s.Count(pat), got.Count(pat); want != have {
		t.Fatalf("Count after round trip: %d != %d", have, want)
	}
}

func TestSerializationErrors(t *testing.T) {
	if _, err := UnmarshalStore([]byte("garbage"), nil); err == nil {
		t.Error("expected error on bad magic")
	}
	text := []byte("hello world")
	buf := Build(text, Options{}).MarshalBinary()
	if _, err := UnmarshalStore(buf[:20], nil); err == nil {
		t.Error("expected error on truncated store")
	}
}

func TestMediumCharging(t *testing.T) {
	clock := &memsim.Clock{}
	med := memsim.NewMedium(clock, memsim.Config{Budget: 0}) // everything misses
	text := buildText(9, 10_000, 4)
	s := Build(text, Options{SamplingRate: 8, Medium: med})
	med.ResetStats()
	clock.Reset()
	s.Extract(1234, 20)
	st := med.Stats()
	if st.Accesses == 0 || st.Misses == 0 {
		t.Fatalf("extract did not touch the medium: %+v", st)
	}
	if clock.Elapsed() == 0 {
		t.Fatal("misses did not advance the clock")
	}
}

func TestMediumFootprintMatchesCompressedSize(t *testing.T) {
	med := memsim.Unlimited()
	text := buildText(10, 20_000, 4)
	s := Build(text, Options{SamplingRate: 32, Medium: med})
	if med.Footprint() != int64(s.CompressedSize()) {
		t.Errorf("medium footprint %d != compressed size %d", med.Footprint(), s.CompressedSize())
	}
}

// TestNoMediumMeansNoSimulator: a store built or loaded without a
// Medium holds none — its Ψ loop has nothing to charge — and its size and
// answers are those of the same store on a medium.
func TestNoMediumMeansNoSimulator(t *testing.T) {
	text := buildText(10, 20_000, 4)
	plain := Build(text, Options{SamplingRate: 8})
	loaded, err := UnmarshalStore(plain.MarshalBinary(), nil)
	if err != nil {
		t.Fatal(err)
	}
	onMedium := Build(text, Options{SamplingRate: 8, Medium: memsim.Unlimited()})
	for name, s := range map[string]*Store{"built": plain, "loaded": loaded} {
		if s.med != nil {
			t.Errorf("%s without a medium holds one", name)
		}
		if s.CompressedSize() != onMedium.CompressedSize() {
			t.Errorf("%s: CompressedSize %d, on a medium %d", name, s.CompressedSize(), onMedium.CompressedSize())
		}
		if !bytes.Equal(s.Extract(100, 700), onMedium.Extract(100, 700)) {
			t.Errorf("%s: extract differs from the store on a medium", name)
		}
		if got, want := s.Search(text[40:46]), onMedium.Search(text[40:46]); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: search differs from the store on a medium", name)
		}
		if s.LookupSA(s.LookupISA(1234)) != 1234 {
			t.Errorf("%s: SA/ISA lookups disagree", name)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func BenchmarkExtract64(b *testing.B) {
	text := buildText(11, 1<<20, 8)
	s := Build(text, Options{SamplingRate: 32})
	rng := rand.New(rand.NewSource(12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Extract(rng.Intn(len(text)-64), 64)
	}
}

func BenchmarkSearch(b *testing.B) {
	text := buildText(13, 1<<20, 8)
	s := Build(text, Options{SamplingRate: 32})
	rng := rand.New(rand.NewSource(14))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := rng.Intn(len(text) - 8)
		s.Count(text[off : off+8])
	}
}

func TestExtractChargeBatching(t *testing.T) {
	// Extraction charges the medium at a bounded rate: one ISA page plus
	// one psi page per extractChargeStride walked bytes — not one page
	// per byte (see the charge-batching comment in store.go).
	med := memsim.NewMedium(nil, memsim.Config{Budget: 1 << 30})
	text := buildText(20, 200_000, 6)
	s := Build(text, Options{SamplingRate: 32, Medium: med})
	med.ResetStats()
	s.Extract(77_777, 640)
	st := med.Stats()
	maxTouches := uint64(2 + 640/extractChargeStride + 1)
	if st.Accesses > maxTouches {
		t.Errorf("640-byte extract touched %d pages, want <= %d", st.Accesses, maxTouches)
	}
	if st.Accesses == 0 {
		t.Error("extract did not touch the medium at all")
	}
}

func TestSearchStillChargesPerStep(t *testing.T) {
	// Search (unlike extract) has no flat-file fallback: its binary
	// searches and locates charge the structures they touch.
	med := memsim.NewMedium(nil, memsim.Config{Budget: 1 << 30})
	text := buildText(21, 100_000, 4)
	s := Build(text, Options{SamplingRate: 32, Medium: med})
	med.ResetStats()
	pat := text[5000:5008]
	s.Search(pat)
	if st := med.Stats(); st.Accesses == 0 {
		t.Error("search did not charge the medium")
	}
}
