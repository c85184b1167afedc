package succinct_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"zipg/internal/gen"
	"zipg/internal/layout"
	"zipg/internal/succinct"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/archive_golden.txt from this build's archives")

const goldenPath = "testdata/archive_golden.txt"

// fibonacciWord returns the first n bytes of the infinite Fibonacci word
// over {a, b}: S(k) = S(k-1)·S(k-2).
func fibonacciWord(n int) []byte {
	prev, cur := []byte("b"), []byte("a")
	for len(cur) < n {
		prev, cur = cur, append(cur[:len(cur):len(cur)], prev...)
	}
	return cur[:n]
}

func randomText(seed int64, n, sigma int) []byte {
	rng := rand.New(rand.NewSource(seed))
	text := make([]byte, n)
	for i := range text {
		text[i] = byte(rng.Intn(sigma))
	}
	return text
}

// edgeFileText is an EdgeFile in the shape the benchmark builds: TAO-like
// generated edges serialized by layout.BuildEdgeFile.
func edgeFileText(t testing.TB, targetBytes int64) []byte {
	t.Helper()
	d := gen.DatasetSpec{Name: "golden", Kind: gen.RealWorld, TargetBytes: targetBytes, AvgDegree: 39, NumEdgeTypes: 5, Seed: 7}.Generate()
	schema, err := layout.NewPropertySchema([]string{"edgedata"}, 512)
	if err != nil {
		t.Fatal(err)
	}
	flat, _, err := layout.BuildEdgeFile(d.Edges, schema)
	if err != nil {
		t.Fatal(err)
	}
	return flat
}

// TestBuildArchiveGolden pins the serialized bytes of Build on fixed
// inputs to hashes recorded before the construction pipeline was
// replaced: whatever builds the store, the archive is the same archive.
func TestBuildArchiveGolden(t *testing.T) {
	inputs := []struct {
		name string
		text []byte
	}{
		{"empty", nil},
		{"one-byte", []byte("a")},
		{"all-00", make([]byte, 1000)},
		{"all-ff", bytes.Repeat([]byte{0xFF}, 1000)},
		{"abab", bytes.Repeat([]byte("ab"), 2048)},
		{"fibonacci", fibonacciWord(10946)},
		{"random-sigma4", randomText(11, 50_000, 4)},
		{"random-sigma256", randomText(12, 50_000, 256)},
		{"edgefile", edgeFileText(t, 256<<10)},
	}
	var got strings.Builder
	for _, in := range inputs {
		for _, alpha := range []int{1, 4, 32} {
			sum := sha256.Sum256(succinct.Build(in.text, succinct.Options{SamplingRate: alpha}).MarshalBinary())
			fmt.Fprintf(&got, "%s alpha=%d len=%d %x\n", in.name, alpha, len(in.text), sum)
		}
		sum := sha256.Sum256(succinct.BuildAnchored(in.text, 0x02, nil).MarshalBinary())
		fmt.Fprintf(&got, "%s anchor=02 len=%d %x\n", in.name, len(in.text), sum)
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d archives built, %d recorded in %s", len(gotLines)-1, len(wantLines)-1, goldenPath)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("archive differs from the recorded one:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}

// transientBudget is the most heap Build may allocate per input byte,
// everything it allocates counted whether or not it is still live at the
// end: the suffix array (4), Ψ as int32 rows (4), and under one more for
// the store it returns, the sampled rows and the sort's bucket tables.
const transientBudget = 9.0

// TestBuildTransientBytes bounds what one Build allocates on a 4 MiB
// EdgeFile. A background rollover or compaction build shares the heap
// with the queries it races, so its transient arrays are a cost of the
// write path, not only of set-up.
func TestBuildTransientBytes(t *testing.T) {
	text := edgeFileText(t, 6<<20) // ≈ 4 MB of property lists
	if len(text) < 4<<20 {
		t.Fatalf("generated EdgeFile is %d bytes, want at least 4 MiB", len(text))
	}
	text = text[:4<<20]
	for name, build := range map[string]func() *succinct.Store{
		"alpha=32":  func() *succinct.Store { return succinct.Build(text, succinct.Options{SamplingRate: 32}) },
		"anchor=02": func() *succinct.Store { return succinct.BuildAnchored(text, 0x02, nil) },
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		st := build()
		runtime.ReadMemStats(&after)
		perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(text))
		t.Logf("%s: Build allocated %.2f bytes per input byte (%d-byte text, %d-byte store)", name, perByte, len(text), st.CompressedSize())
		if perByte > transientBudget {
			t.Errorf("%s: Build allocated %.2f bytes per input byte, budget %.1f", name, perByte, transientBudget)
		}
	}
}

// BenchmarkBuild is construction end to end — suffix sort, the Ψ and
// sample pass, the per-bucket encode — on an EdgeFile.
func BenchmarkBuild(b *testing.B) {
	text := edgeFileText(b, 5<<20)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		succinct.Build(text, succinct.Options{SamplingRate: 32})
	}
}
