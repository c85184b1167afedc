package bitutil

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPackedVectorRoundTrip(t *testing.T) {
	for _, width := range []uint{1, 3, 7, 8, 13, 31, 32, 33, 63, 64} {
		rng := rand.New(rand.NewSource(int64(width)))
		n := 1000
		pv := NewPackedVector(n, width)
		want := make([]uint64, n)
		var mask uint64 = ^uint64(0)
		if width < 64 {
			mask = (1 << width) - 1
		}
		for i := range want {
			want[i] = rng.Uint64() & mask
			pv.Set(i, want[i])
		}
		for i, w := range want {
			if got := pv.Get(i); got != w {
				t.Fatalf("width %d: Get(%d) = %d, want %d", width, i, got, w)
			}
		}
	}
}

func TestPackedVectorOverwrite(t *testing.T) {
	pv := NewPackedVector(10, 5)
	for i := 0; i < 10; i++ {
		pv.Set(i, 31)
	}
	pv.Set(4, 7)
	if got := pv.Get(4); got != 7 {
		t.Fatalf("Get(4) = %d, want 7", got)
	}
	for _, i := range []int{3, 5} {
		if got := pv.Get(i); got != 31 {
			t.Fatalf("neighbor %d corrupted: got %d, want 31", i, got)
		}
	}
}

func TestPackedVectorSerialization(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]uint64, 257)
	for i := range vals {
		vals[i] = uint64(rng.Intn(1 << 20))
	}
	pv := PackSlice(vals)
	buf := pv.AppendBinary(nil)
	got, n, err := DecodePackedVector(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d bytes, want %d", n, len(buf))
	}
	for i, v := range vals {
		if got.Get(i) != v {
			t.Fatalf("Get(%d) = %d, want %d", i, got.Get(i), v)
		}
	}
}

func TestPackedVectorDecodeErrors(t *testing.T) {
	if _, _, err := DecodePackedVector(nil); err == nil {
		t.Error("expected error on empty buffer")
	}
	if _, _, err := DecodePackedVector([]byte{0, 1, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("expected error on zero width")
	}
	pv := PackSlice([]uint64{1, 2, 3})
	buf := pv.AppendBinary(nil)
	if _, _, err := DecodePackedVector(buf[:len(buf)-1]); err == nil {
		t.Error("expected error on truncated payload")
	}
}

func TestWidthFor(t *testing.T) {
	cases := []struct {
		v uint64
		w uint
	}{{0, 1}, {1, 1}, {2, 2}, {3, 2}, {255, 8}, {256, 9}, {1<<63 - 1, 63}, {^uint64(0), 64}}
	for _, c := range cases {
		if got := WidthFor(c.v); got != c.w {
			t.Errorf("WidthFor(%d) = %d, want %d", c.v, got, c.w)
		}
	}
}

func TestPackedVectorQuick(t *testing.T) {
	// Property: packing any slice and reading it back is the identity.
	f := func(vals []uint64) bool {
		pv := PackSlice(vals)
		for i, v := range vals {
			if pv.Get(i) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMonotoneVector(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vals := make([]uint64, 5000)
	var cur uint64
	for i := range vals {
		cur += uint64(rng.Intn(100))
		vals[i] = cur
	}
	mv := NewMonotoneVector(vals)
	if mv.Len() != len(vals) {
		t.Fatalf("Len = %d, want %d", mv.Len(), len(vals))
	}
	for i, v := range vals {
		if got := mv.Get(i); got != v {
			t.Fatalf("Get(%d) = %d, want %d", i, got, v)
		}
	}
	// SearchGE agrees with sort.Search on the raw values.
	for trial := 0; trial < 200; trial++ {
		target := uint64(rng.Intn(int(cur) + 2))
		want := sort.Search(len(vals), func(i int) bool { return vals[i] >= target })
		if got := mv.SearchGE(0, len(vals), target); got != want {
			t.Fatalf("SearchGE(%d) = %d, want %d", target, got, want)
		}
	}
	// Bounded-range searches.
	if got := mv.SearchGE(10, 10, 0); got != 10 {
		t.Fatalf("empty range SearchGE = %d, want 10", got)
	}
}

func TestMonotoneVectorNonMonotonePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-monotone input should panic")
		}
	}()
	NewMonotoneVector([]uint64{5, 3})
}

func TestMonotoneVectorQuick(t *testing.T) {
	// Property: for any non-negative delta sequence, the compressed
	// vector reproduces the prefix sums exactly.
	f := func(deltas []uint16) bool {
		vals := make([]uint64, len(deltas))
		var cur uint64
		for i, d := range deltas {
			cur += uint64(d)
			vals[i] = cur
		}
		mv := NewMonotoneVector(vals)
		for i, v := range vals {
			if mv.Get(i) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMonotoneVectorCompresses(t *testing.T) {
	// A long run of tiny deltas should occupy far less than 8 bytes/elem.
	vals := make([]uint64, 1<<16)
	for i := range vals {
		vals[i] = uint64(i) * 3
	}
	mv := NewMonotoneVector(vals)
	if mv.SizeBytes() >= len(vals)*4 {
		t.Errorf("monotone vector too large: %d bytes for %d elems", mv.SizeBytes(), len(vals))
	}
}

func TestMonotoneVectorSerialization(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := make([]uint64, 1000)
	var cur uint64
	for i := range vals {
		cur += uint64(rng.Intn(1 << uint(rng.Intn(20))))
		vals[i] = cur
	}
	mv := NewMonotoneVector(vals)
	buf := mv.AppendBinary(nil)
	got, n, err := DecodeMonotoneVector(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d, want %d", n, len(buf))
	}
	for i, v := range vals {
		if got.Get(i) != v {
			t.Fatalf("Get(%d) = %d, want %d", i, got.Get(i), v)
		}
	}
}

func TestMonotoneVectorMixedBlockWidths(t *testing.T) {
	// One block of huge deltas between blocks of zero deltas: per-block
	// widths must isolate the expensive block.
	vals := make([]uint64, 96)
	for i := 32; i < 64; i++ {
		vals[i] = vals[i-1] + 1<<40
	}
	for i := 64; i < 96; i++ {
		vals[i] = vals[63]
	}
	mv := NewMonotoneVector(vals)
	for i, v := range vals {
		if got := mv.Get(i); got != v {
			t.Fatalf("Get(%d) = %d, want %d", i, got, v)
		}
	}
}
