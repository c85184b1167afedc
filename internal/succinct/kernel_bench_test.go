package succinct

import (
	"math/rand"
	"testing"
)

// benchText generates compressible text with a small vocabulary — the
// regime Ψ's delta compression (and hence the decode kernels) target.
func benchText(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "graph", "store", "query", "edge"}
	out := make([]byte, 0, n)
	for len(out) < n {
		out = append(out, words[rng.Intn(len(words))]...)
		out = append(out, ' ')
	}
	return out[:n]
}

// BenchmarkExtract measures the core random-access primitive: one ISA
// lookup plus a 64-byte Ψ walk.
func BenchmarkExtract(b *testing.B) {
	s := Build(benchText(1<<18, 1), Options{})
	offs := make([]int, 1024)
	rng := rand.New(rand.NewSource(2))
	for i := range offs {
		offs[i] = rng.Intn(s.InputLen() - 64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Extract(offs[i%len(offs)], 64)
	}
}

// BenchmarkExtractAppend measures the zero-alloc variant with a reused
// destination buffer.
func BenchmarkExtractAppend(b *testing.B) {
	s := Build(benchText(1<<18, 1), Options{})
	offs := make([]int, 1024)
	rng := rand.New(rand.NewSource(2))
	for i := range offs {
		offs[i] = rng.Intn(s.InputLen() - 64)
	}
	buf := make([]byte, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = s.ExtractAppend(buf[:0], offs[i%len(offs)], 64)
	}
}

// BenchmarkSearchCount measures backward search (the SearchGE probe
// sequence) without the per-hit SA walks.
func BenchmarkSearchCount(b *testing.B) {
	s := Build(benchText(1<<18, 1), Options{})
	pats := [][]byte{[]byte("alpha "), []byte("gamma"), []byte("store q"), []byte("zeta")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Count(pats[i%len(pats)])
	}
}

// BenchmarkLookupSA measures a locate: up to α Ψ steps, each followed by
// the question "is this row sampled" — what every hit of a Search costs.
func BenchmarkLookupSA(b *testing.B) {
	s := Build(benchText(1<<21, 1), Options{})
	rows := make([]int, 1<<14)
	rng := rand.New(rand.NewSource(4))
	for i := range rows {
		rows[i] = rng.Intn(s.InputLen() + 1)
	}
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += s.LookupSA(rows[i%len(rows)])
	}
	_ = sink
}
