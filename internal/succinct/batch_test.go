package succinct

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestWalkBatchAgainstScalar drives WalkBatch with shuffled anchors and
// checks each visit reads exactly what a fresh scalar Walk would, that
// indices arrive in ascending-offset order, and that every request is
// visited exactly once.
func TestWalkBatchAgainstScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for name, text := range diffTexts() {
		for _, alpha := range []int{4, 8, 32} {
			s := Build(text, Options{SamplingRate: alpha})
			for trial := 0; trial < 20; trial++ {
				n := 1 + rng.Intn(40)
				offs := make([]int, n)
				for i := range offs {
					offs[i] = rng.Intn(len(text))
				}
				seen := make([]int, n)
				lastOff := -1
				s.WalkBatch(offs, func(idx int, w *Walker) {
					seen[idx]++
					if offs[idx] < lastOff {
						t.Fatalf("%s/α=%d: visit order regressed: %d after %d", name, alpha, offs[idx], lastOff)
					}
					lastOff = offs[idx]
					if w.Offset() != offs[idx] {
						t.Fatalf("%s/α=%d: walker at %d, want %d", name, alpha, w.Offset(), offs[idx])
					}
					m := 1 + rng.Intn(32)
					want := text[offs[idx]:min(offs[idx]+m, len(text))]
					got := w.Append(nil, m)
					if !bytes.Equal(got, want) {
						t.Fatalf("%s/α=%d: batch walker read %q at %d want %q", name, alpha, got, offs[idx], want)
					}
				})
				for i, c := range seen {
					if c != 1 {
						t.Fatalf("%s/α=%d: request %d visited %d times", name, alpha, i, c)
					}
				}
			}
		}
	}
}

// TestBatchWalkerSeekTo checks SeekTo forward (walk or re-anchor) and
// backward against the text, on both scalar and batch walkers.
func TestBatchWalkerSeekTo(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	text := diffTexts()["words"]
	for _, alpha := range []int{4, 8, 32} {
		s := Build(text, Options{SamplingRate: alpha})
		check := func(w *Walker) {
			for step := 0; step < 40; step++ {
				target := rng.Intn(len(text))
				w.SeekTo(target)
				if w.Offset() != target {
					t.Fatalf("α=%d: SeekTo(%d) left offset %d", alpha, target, w.Offset())
				}
				m := 1 + rng.Intn(16)
				want := text[target:min(target+m, len(text))]
				if got := w.Append(nil, m); !bytes.Equal(got, want) {
					t.Fatalf("α=%d: after SeekTo(%d) read %q want %q", alpha, target, got, want)
				}
			}
		}
		w := s.Walk(0)
		check(&w)
		s.WalkBatch([]int{0, 1}, func(idx int, w *Walker) {
			if idx == 1 {
				check(w)
			}
		})
	}
}
