package bitutil

import (
	"math/rand"
	"sort"
	"testing"
)

// benchInputs are the vector shapes the benchmarks run over. "psi" is
// long runs of +1 deltas interrupted by occasional large jumps, which is
// what per-bucket Ψ looks like on compressible text: with one jump per 64
// elements nearly every block carries payload. "runs" is the EdgeFile's Ψ:
// runs of some 2,000 elements, so nine blocks in ten continue a record.
// "sorted" is sorted uniform values, the benchmark ladder's input: no
// runs at all, every block writes a record.
var benchInputs = []struct {
	name  string
	build func(n int) []uint64
}{
	{"psi", func(n int) []uint64 { return benchRuns(n, 64) }},
	{"runs", func(n int) []uint64 { return benchRuns(n, 2048) }},
	{"sorted", func(n int) []uint64 {
		rng := rand.New(rand.NewSource(42))
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = uint64(rng.Intn(n))
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		return vals
	}},
}

// benchRuns builds a strictly increasing sequence of +1 runs of mean
// length runLen separated by jumps of up to 2^20.
func benchRuns(n, runLen int) []uint64 {
	rng := rand.New(rand.NewSource(42))
	vals := make([]uint64, n)
	var v uint64
	for i := range vals {
		if rng.Intn(runLen) == 0 {
			v += uint64(rng.Intn(1 << 20))
		}
		v++
		vals[i] = v
	}
	return vals
}

// BenchmarkMonotoneGet measures random access: the inner operation of
// every Ψ step on the extract/search path.
func BenchmarkMonotoneGet(b *testing.B) {
	for _, in := range benchInputs {
		b.Run(in.name, func(b *testing.B) {
			mv := NewMonotoneVector(in.build(1 << 20))
			idx := make([]int, 1<<16)
			rng := rand.New(rand.NewSource(7))
			for i := range idx {
				idx[i] = rng.Intn(mv.Len())
			}
			b.ResetTimer()
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += mv.Get(idx[i%len(idx)])
			}
			_ = sink
		})
	}
}

// BenchmarkMonotoneSearchGE measures the backward-search probe: one
// lower-bound per pattern character per bucket.
func BenchmarkMonotoneSearchGE(b *testing.B) {
	for _, in := range benchInputs {
		b.Run(in.name, func(b *testing.B) {
			mv := NewMonotoneVector(in.build(1 << 20))
			last := mv.Get(mv.Len() - 1)
			rng := rand.New(rand.NewSource(9))
			targets := make([]uint64, 1<<16)
			for i := range targets {
				targets[i] = uint64(rng.Int63n(int64(last)))
			}
			b.ResetTimer()
			var sink int
			for i := 0; i < b.N; i++ {
				sink += mv.SearchGE(0, mv.Len(), targets[i%len(targets)])
			}
			_ = sink
		})
	}
}

// BenchmarkMonotoneScan measures a sequential pass, the access pattern
// of bucket-local streaming (SearchGE block scans, differential tests).
func BenchmarkMonotoneScan(b *testing.B) {
	mv := NewMonotoneVector(benchRuns(1<<12, 64))
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		for j := 0; j < mv.Len(); j++ {
			sink += mv.Get(j)
		}
	}
	_ = sink
}
