package succinct

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"zipg/internal/telemetry"
)

// anchorTexts are the diff corpora, each with an anchor byte, plus a text
// shaped like an EdgeFile: spans that each begin with the anchor.
func anchorTexts() map[string][]byte {
	texts := diffTexts()
	rng := rand.New(rand.NewSource(41))
	var lists []byte
	for i := 0; i < 300; i++ {
		lists = append(lists, 0x02)
		for k := rng.Intn(40); k > 0; k-- {
			lists = append(lists, 'a'+byte(rng.Intn(4)))
		}
		lists = append(lists, 0x01)
	}
	texts["lists"] = lists
	texts["no-anchor"] = []byte("bcdbcdbcd")
	return texts
}

// anchorOf picks the byte a corpus is anchored at: 0x02 where it has
// one, else its first byte.
func anchorOf(text []byte) byte {
	if len(text) == 0 || bytes.IndexByte(text, 0x02) >= 0 {
		return 0x02
	}
	return text[0]
}

// anchorsIn returns the offsets of anchor in text, ascending.
func anchorsIn(text []byte, anchor byte) []int {
	var at []int
	for p, c := range text {
		if c == anchor {
			at = append(at, p)
		}
	}
	return at
}

// TestAnchoredReadsAgainstText: a walk from every anchor, given the
// later anchors' offsets, reads the text — across any number of anchors,
// in one to maxWalkLanes lanes — as built and after a serial round trip;
// it costs one Ψ step a byte and one ISA lookup, and no step to start.
func TestAnchoredReadsAgainstText(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	rng := rand.New(rand.NewSource(43))
	for name, text := range anchorTexts() {
		anchor := anchorOf(text)
		at := anchorsIn(text, anchor)
		built := BuildAnchored(text, anchor, nil)
		loaded, err := UnmarshalStore(built.MarshalBinary(), nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if loaded.CompressedSize() != built.CompressedSize() {
			t.Errorf("%s: %d bytes after reload, built %d", name, loaded.CompressedSize(), built.CompressedSize())
		}
		for _, s := range []*Store{built, loaded} {
			if s.Anchors() != len(at) || s.SamplingRate() != 0 {
				t.Fatalf("%s: %d anchors at α=%d, want %d at 0", name, s.Anchors(), s.SamplingRate(), len(at))
			}
			for trial := 0; trial < 40 && len(at) > 0; trial++ {
				j := rng.Intn(len(at))
				n := rng.Intn(len(text) - at[j] + 3)
				k := 1 + rng.Intn(maxWalkLanes)
				steps, lookups := mPsiSteps.Value(), mISALookups.Value()
				w := s.WalkAnchor(j, at[j], at[j+1:])
				got := w.appendLanes(nil, n, k)
				want := text[at[j]:min(at[j]+n, len(text))]
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: %d bytes from anchor %d in %d lanes = %q, want %q", name, n, j, k, got, want)
				}
				// A second read continues where the first ended.
				rest := w.Append(nil, 7)
				if want := text[min(at[j]+n, len(text)):min(at[j]+n+7, len(text))]; !bytes.Equal(rest, want) {
					t.Fatalf("%s: the read after %d bytes from anchor %d = %q, want %q", name, n, j, rest, want)
				}
				if d := mPsiSteps.Value() - steps; d != int64(len(got)+len(rest)) {
					t.Errorf("%s: %d bytes from anchor %d took %d Ψ steps", name, len(got)+len(rest), j, d)
				}
				if d := mISALookups.Value() - lookups; d != 1 {
					t.Errorf("%s: a read from anchor %d counted %d ISA lookups, want 1", name, j, d)
				}
			}
			// Out of range, and reads a walk cannot anchor, read nothing.
			for _, j := range []int{-1, len(at)} {
				if w := s.WalkAnchor(j, 0, nil); len(w.Append(nil, 10)) != 0 {
					t.Errorf("%s: WalkAnchor(%d) read bytes", name, j)
				}
			}
			if len(s.Extract(0, 10)) != 0 || s.Search(text[:min(1, len(text))]) != nil {
				t.Errorf("%s: an anchored store extracted or located by offset", name)
			}
		}
	}
}

// TestSearchAnchoredAgainstNaive: every hit is placed at the last anchor
// at or before it, and the walk that places it takes as many Ψ steps as
// the hit lies before the next anchor (or the text's end).
func TestSearchAnchoredAgainstNaive(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	rng := rand.New(rand.NewSource(47))
	for name, text := range anchorTexts() {
		if len(text) == 0 {
			continue
		}
		anchor := anchorOf(text)
		at := anchorsIn(text, anchor)
		s := BuildAnchored(text, anchor, nil)
		for trial := 0; trial < 30; trial++ {
			p := rng.Intn(len(text))
			pat := text[p:min(p+1+rng.Intn(6), len(text))]
			var want []int
			steps := 0
			for _, off := range naiveSearch(text, pat) {
				j := sort.SearchInts(at, int(off)+1) - 1 // last anchor at or before off
				want = append(want, j)
				next := len(text)
				if j+1 < len(at) {
					next = at[j+1]
				}
				if j >= 0 && at[j] == int(off) {
					next = int(off)
				}
				steps += next - int(off)
			}
			before := mPsiSteps.Value()
			got := s.SearchAnchored(pat)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: SearchAnchored(%q) = %v, want %v", name, pat, got, want)
			}
			if d := mPsiSteps.Value() - before; d != int64(steps) {
				t.Errorf("%s: SearchAnchored(%q) took %d Ψ steps, want %d", name, pat, d, steps)
			}
		}
	}
}

// TestLookupsOutOfRange: LookupSA and LookupISA answer -1, without a
// panic, for a row or position outside the store, and on an anchored
// store, which does not know its anchors' offsets.
func TestLookupsOutOfRange(t *testing.T) {
	text := diffTexts()["words"]
	s := Build(text, Options{SamplingRate: 8})
	n := len(text) + 1
	for _, i := range []int{-1, n, n + 100} {
		if got := s.LookupSA(i); got != -1 {
			t.Errorf("LookupSA(%d) = %d, want -1", i, got)
		}
		if got := s.LookupISA(i); got != -1 {
			t.Errorf("LookupISA(%d) = %d, want -1", i, got)
		}
	}
	a := BuildAnchored(text, text[0], nil)
	if a.LookupSA(3) != -1 || a.LookupISA(3) != -1 {
		t.Errorf("an anchored store answered LookupSA/LookupISA by offset")
	}
}

// TestAnchoredRegionsSumToCompressedSize: an anchored store reports Ψ
// and its two sample arrays, which with the bucket tables are its whole
// footprint; it has no sampled-row set.
func TestAnchoredRegionsSumToCompressedSize(t *testing.T) {
	for name, text := range anchorTexts() {
		s := BuildAnchored(text, anchorOf(text), nil)
		sum := (len(s.bucketChar) + len(s.bucketStart)) * 4
		var names []string
		for _, rc := range s.RegionCodecs() {
			sum += rc.Bytes
			names = append(names, rc.Region)
		}
		if want := []string{"psi", "sa", "isa"}; !slices.Equal(names, want) {
			t.Errorf("%s: regions %v, want %v", name, names, want)
		}
		if sum != s.CompressedSize() {
			t.Errorf("%s: regions and bucket tables sum to %d, CompressedSize %d", name, sum, s.CompressedSize())
		}
	}
}
