package suffix_test

import (
	"math/rand"
	"testing"

	"zipg/internal/gen"
	"zipg/internal/layout"
	"zipg/internal/suffix"
)

// edgeFileText is an EdgeFile of the benchmark's shape: TAO-like
// generated edges serialized by layout.BuildEdgeFile. (An external test
// package, because layout imports this one through succinct.)
func edgeFileText(b testing.TB, targetBytes int64) []byte {
	b.Helper()
	d := gen.DatasetSpec{Name: "bench", Kind: gen.RealWorld, TargetBytes: targetBytes, AvgDegree: 39, NumEdgeTypes: 5, Seed: 7}.Generate()
	schema, err := layout.NewPropertySchema([]string{"edgedata"}, 512)
	if err != nil {
		b.Fatal(err)
	}
	flat, _, err := layout.BuildEdgeFile(d.Edges, schema)
	if err != nil {
		b.Fatal(err)
	}
	return flat
}

// BenchmarkArray sorts random text, where few LMS substrings repeat and
// what recursion there is finishes at once, and an EdgeFile, whose
// digits and vocabulary words repeat and keep a third of the time below
// the top level.
func BenchmarkArray(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	random := make([]byte, 1<<20)
	for i := range random {
		random[i] = byte('a' + rng.Intn(26))
	}
	inputs := []struct {
		name string
		text []byte
	}{
		{"random-1MB", random},
		{"edgefile", edgeFileText(b, 4<<20)},
	}
	for _, in := range inputs {
		b.Run(in.name, func(b *testing.B) {
			b.SetBytes(int64(len(in.text)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				suffix.Array(in.text)
			}
		})
	}
}
