package succinct

import (
	"bytes"
	"math/rand"
	"testing"
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

// TestExtractKernelsAgainstReference checks Extract, ExtractAppend and
// CharAt byte-for-byte against the original text at every sampling rate,
// on random windows including boundary-straddling and past-EOF reads.
func TestExtractKernelsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for name, text := range diffTexts() {
		for _, alpha := range []int{4, 8, 32} {
			s := Build(text, Options{SamplingRate: alpha})
			for trial := 0; trial < 200; trial++ {
				off := rng.Intn(len(text))
				n := 1 + rng.Intn(96)
				want := text[off:min(off+n, len(text))]
				if got := s.Extract(off, n); !bytes.Equal(got, want) {
					t.Fatalf("%s/α=%d: Extract(%d,%d)=%q want %q", name, alpha, off, n, got, want)
				}
				got := s.ExtractAppend(nil, off, n)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s/α=%d: ExtractAppend(%d,%d)=%q want %q", name, alpha, off, n, got, want)
				}
				// Appending must preserve the prefix.
				pre := []byte("pre")
				got = s.ExtractAppend(pre, off, n)
				if !bytes.Equal(got[:3], pre) || !bytes.Equal(got[3:], want) {
					t.Fatalf("%s/α=%d: ExtractAppend with prefix = %q", name, alpha, got)
				}
				if c := s.CharAt(off); c != text[off] {
					t.Fatalf("%s/α=%d: CharAt(%d)=%q want %q", name, alpha, off, c, text[off])
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
// Append, AppendUntil and Skip calls and checks every materialized byte
// and every cursor offset against the original text.
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
					switch rng.Intn(3) {
					case 0: // Append n bytes
						n := 1 + rng.Intn(40)
						want := text[pos:min(pos+n, len(text))]
						buf = w.Append(buf[:0], n)
						if !bytes.Equal(buf, want) {
							t.Fatalf("%s/α=%d: Append(%d) at %d = %q want %q", name, alpha, n, pos, buf, want)
						}
						pos += len(want)
					case 1: // AppendUntil a delimiter that occurs in the text
						delim := text[rng.Intn(len(text))]
						maxN := 1 + rng.Intn(40)
						end := pos
						for end < len(text) && end-pos < maxN && text[end] != delim {
							end++
						}
						want := text[pos:end]
						buf = w.AppendUntil(buf[:0], delim, maxN)
						if !bytes.Equal(buf, want) {
							t.Fatalf("%s/α=%d: AppendUntil(%q,%d) at %d = %q want %q", name, alpha, delim, maxN, pos, buf, want)
						}
						pos = end
					case 2: // Skip — exercises both walk-forward and re-anchor
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
// stepping on or re-anchoring, backward by an anchor — and checks that
// what it reads there is what Extract reads.
func TestWalkerSeekTo(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	text := diffTexts()["words"]
	for _, alpha := range []int{4, 8, 32} {
		s := Build(text, Options{SamplingRate: alpha})
		w := s.Walk(0)
		for step := 0; step < 80; step++ {
			target := rng.Intn(len(text))
			w.SeekTo(target)
			if w.Offset() != target {
				t.Fatalf("α=%d: SeekTo(%d) left offset %d", alpha, target, w.Offset())
			}
			m := 1 + rng.Intn(16)
			if got, want := w.Append(nil, m), s.Extract(target, m); !bytes.Equal(got, want) {
				t.Fatalf("α=%d: after SeekTo(%d) read %q, Extract gives %q", alpha, target, got, want)
			}
		}
	}
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
