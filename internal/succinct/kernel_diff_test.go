package succinct

import (
	"bytes"
	"math/rand"
	"testing"

	"zipg/internal/telemetry"
)

// diffTexts returns the corpora the kernel differential tests run over:
// compressible word salad, high-entropy bytes, a tiny alphabet with long
// runs, and a short text smaller than one sampling interval.
func diffTexts() map[string][]byte {
	long := benchText(4096, 3)
	random := buildText(5, 2048, 26)
	runs := bytes.Repeat([]byte("aaaabbbbccccaaaa"), 128)
	return map[string][]byte{
		"words":  long,
		"random": random,
		"runs":   runs,
		"tiny":   []byte("ab"),
	}
}

// TestExtractKernelsAgainstReference checks Extract and ExtractAppend
// byte-for-byte against the original text at every sampling rate: on
// random windows, and on every length 0…6α from offsets on, just before
// and just after a multiple of α — so a read is one chain, or several
// that start on ISA samples — and from offsets near the text's end, so
// the last chain is cut short by it.
func TestExtractKernelsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for name, text := range diffTexts() {
		for _, alpha := range []int{4, 8, 32} {
			s := Build(text, Options{SamplingRate: alpha})
			check := func(off, n int) {
				t.Helper()
				want := text[off:min(off+n, len(text))]
				if got := s.Extract(off, n); !bytes.Equal(got, want) {
					t.Fatalf("%s/α=%d: Extract(%d,%d)=%q want %q", name, alpha, off, n, got, want)
				}
				// Appending must preserve the prefix.
				pre := []byte("pre")
				got := s.ExtractAppend(pre, off, n)
				if !bytes.Equal(got[:3], pre) || !bytes.Equal(got[3:], want) {
					t.Fatalf("%s/α=%d: ExtractAppend(%d,%d) with prefix = %q, want pre%q", name, alpha, off, n, got, want)
				}
			}
			for trial := 0; trial < 200; trial++ {
				check(rng.Intn(len(text)), 1+rng.Intn(96))
			}
			var offs []int
			for _, m := range []int{0, alpha, 3 * alpha, len(text) / alpha / 2 * alpha} {
				offs = append(offs, m-1, m, m+1)
			}
			for back := 1; back <= 2*alpha+1; back += alpha / 2 {
				offs = append(offs, len(text)-back)
			}
			for _, off := range offs {
				if off < 0 || off >= len(text) {
					continue
				}
				for n := 0; n <= 6*alpha; n++ {
					check(off, n)
				}
			}
			// Whole-text extraction.
			if got := s.Extract(0, len(text)); !bytes.Equal(got, text) {
				t.Fatalf("%s/α=%d: whole-text extract mismatch", name, alpha)
			}
		}
	}
}

// TestWalkerAgainstReference drives a Walker through random mixes of
// Append and Skip calls and checks every materialized byte and every
// cursor offset against the original text.
func TestWalkerAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for name, text := range diffTexts() {
		for _, alpha := range []int{4, 8, 32} {
			s := Build(text, Options{SamplingRate: alpha})
			for trial := 0; trial < 60; trial++ {
				start := rng.Intn(len(text))
				w := s.Walk(start)
				pos := start
				if w.Offset() != pos {
					t.Fatalf("%s/α=%d: Walk(%d).Offset()=%d", name, alpha, start, w.Offset())
				}
				var buf []byte
				for step := 0; step < 12 && pos < len(text); step++ {
					switch rng.Intn(2) {
					case 0: // Append n bytes
						n := 1 + rng.Intn(40)
						want := text[pos:min(pos+n, len(text))]
						buf = w.Append(buf[:0], n)
						if !bytes.Equal(buf, want) {
							t.Fatalf("%s/α=%d: Append(%d) at %d = %q want %q", name, alpha, n, pos, buf, want)
						}
						pos += len(want)
					case 1: // Skip — exercises both walk-forward and re-anchor
						n := 1 + rng.Intn(3*alpha)
						w.Skip(n)
						pos = min(pos+n, len(text)) // clamps at EOF (the sentinel)
					}
					if w.Offset() != pos {
						t.Fatalf("%s/α=%d: walker offset %d, reference %d", name, alpha, w.Offset(), pos)
					}
				}
			}
		}
	}
}

// TestWalkerSeekTo moves one walker to random offsets — forward by
// stepping on or re-anchoring, backward by an anchor, some near the
// text's end — reads 0…6α bytes there (one chain or several), and then
// carries on from the row that read left it: a second read, a skip and a
// read, or straight to the next seek. Every byte and every offset is
// checked against the text.
func TestWalkerSeekTo(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	text := diffTexts()["words"]
	for _, alpha := range []int{4, 8, 32} {
		s := Build(text, Options{SamplingRate: alpha})
		w, pos := s.Walk(0), 0
		read := func(n int) {
			t.Helper()
			want := text[pos:min(pos+n, len(text))]
			if got := w.Append(nil, n); !bytes.Equal(got, want) {
				t.Fatalf("α=%d: Append(%d) at %d read %q, want %q", alpha, n, pos, got, want)
			}
			pos += len(want)
			if w.Offset() != pos {
				t.Fatalf("α=%d: offset %d after a read, want %d", alpha, w.Offset(), pos)
			}
		}
		for step := 0; step < 120; step++ {
			pos = rng.Intn(len(text))
			if step%8 == 7 {
				pos = len(text) - 1 - rng.Intn(2*alpha)
			}
			w.SeekTo(pos)
			if w.Offset() != pos {
				t.Fatalf("α=%d: SeekTo(%d) left offset %d", alpha, pos, w.Offset())
			}
			read(rng.Intn(6*alpha + 1))
			switch rng.Intn(3) {
			case 0:
				read(1 + rng.Intn(6*alpha))
			case 1:
				n := 1 + rng.Intn(2*alpha)
				w.Skip(n)
				pos = min(pos+n, len(text))
				read(1 + rng.Intn(2*alpha))
			}
		}
	}
}

// TestExtractCountsItsSteps: Extract(off, n) over many α-blocks costs
// off%α Ψ steps to anchor and one a byte, however many chains read it,
// and one ISA lookup — the chains that start on ISA samples walk no Ψ
// step to get there and are not lookups.
func TestExtractCountsItsSteps(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	text := diffTexts()["words"]
	for _, alpha := range []int{4, 8, 32} {
		s := Build(text, Options{SamplingRate: alpha})
		for _, off := range []int{0, alpha - 1, 5*alpha + 3} {
			n := 20*alpha + 7
			steps, lookups, extracted := mPsiSteps.Value(), mISALookups.Value(), mExtractBytes.Value()
			s.Extract(off, n)
			if d := mPsiSteps.Value() - steps; d != int64(off%alpha+n) {
				t.Errorf("α=%d: Extract(%d,%d) took %d Ψ steps, want %d", alpha, off, n, d, off%alpha+n)
			}
			if d := mISALookups.Value() - lookups; d != 1 {
				t.Errorf("α=%d: Extract(%d,%d) counted %d ISA lookups, want 1", alpha, off, n, d)
			}
			if d := mExtractBytes.Value() - extracted; d != int64(n) {
				t.Errorf("α=%d: Extract(%d,%d) counted %d bytes, want %d", alpha, off, n, d, n)
			}
		}
	}
}

// FuzzWalkerAppend runs an op script against a walker over any text at
// any α. An op is two bytes, a verb and an argument: Append 4·arg bytes,
// Skip arg bytes, or SeekTo the offset arg/255 of the way into the text.
// Every byte read and every offset is checked against the text.
func FuzzWalkerAppend(f *testing.F) {
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(3), []byte{0, 9, 1, 3, 0, 2, 2, 200, 0, 40})
	f.Add(bytes.Repeat([]byte("ab"), 100), uint8(0), []byte{0, 255, 2, 0, 0, 17})
	f.Add(benchText(300, 5), uint8(31), []byte{2, 128, 0, 70, 1, 31, 0, 70, 2, 1, 0, 3})
	f.Fuzz(func(t *testing.T, text []byte, a uint8, script []byte) {
		if len(text) == 0 || len(text) > 4096 || len(script) > 256 {
			return
		}
		alpha := 1 + int(a)%64
		s := Build(text, Options{SamplingRate: alpha})
		w, pos := s.Walk(0), 0
		for ; len(script) >= 2; script = script[2:] {
			arg := int(script[1])
			switch script[0] % 3 {
			case 0:
				want := text[pos:min(pos+4*arg, len(text))]
				if got := w.Append(nil, 4*arg); !bytes.Equal(got, want) {
					t.Fatalf("α=%d: Append(%d) at %d read %q, want %q", alpha, 4*arg, pos, got, want)
				}
				pos += len(want)
			case 1:
				w.Skip(arg)
				pos = min(pos+arg, len(text))
			case 2:
				pos = arg * len(text) / 255
				w.SeekTo(pos)
			}
			if w.Offset() != pos {
				t.Fatalf("α=%d: walker at offset %d, want %d", alpha, w.Offset(), pos)
			}
		}
	})
}

// TestSearchAgainstNaiveAllAlphas re-runs the search differential across
// the sampling rates the access kernels special-case, with patterns drawn
// from the text (guaranteed hits) and random patterns (mostly misses).
func TestSearchAgainstNaiveAllAlphas(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for name, text := range diffTexts() {
		if len(text) < 8 {
			continue
		}
		for _, alpha := range []int{4, 8, 32} {
			s := Build(text, Options{SamplingRate: alpha})
			for trial := 0; trial < 40; trial++ {
				var pat []byte
				if trial%2 == 0 {
					off := rng.Intn(len(text) - 4)
					pat = text[off : off+1+rng.Intn(4)]
				} else {
					pat = buildText(int64(trial), 1+rng.Intn(4), 27)
				}
				want := naiveSearch(text, pat)
				got := s.Search(pat)
				if len(got) != len(want) {
					t.Fatalf("%s/α=%d: Search(%q) found %d hits want %d", name, alpha, pat, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s/α=%d: Search(%q)[%d]=%d want %d", name, alpha, pat, i, got[i], want[i])
					}
				}
				if c := s.Count(pat); c != len(want) {
					t.Fatalf("%s/α=%d: Count(%q)=%d want %d", name, alpha, pat, c, len(want))
				}
			}
		}
	}
}

// TestExtractAppendZeroAlloc proves the zero-alloc claim: with a warm
// destination buffer, ExtractAppend performs no allocations per call.
func TestExtractAppendZeroAlloc(t *testing.T) {
	s := Build(benchText(1<<14, 41), Options{SamplingRate: 8})
	buf := make([]byte, 0, 128)
	offs := []int{0, 17, 1000, 8000, s.InputLen() - 200}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		buf = s.ExtractAppend(buf[:0], offs[i%len(offs)], 64)
		i++
	})
	if allocs != 0 {
		t.Fatalf("ExtractAppend allocated %.1f times per call, want 0", allocs)
	}
}
