package cluster

import (
	"hash/fnv"
	"testing"
)

// fnvOwnerOf computes the owner through hash/fnv, the reference the
// inlined hash must match bit for bit: the high half of FNV-1a over the
// ID's 8 little-endian bytes, modulo the server count.
func fnvOwnerOf(id int64, numServers int) int {
	h := fnv.New32a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(id) >> (8 * i))
	}
	h.Write(b[:])
	return int(h.Sum32() >> 16 % uint32(numServers))
}

func TestOwnerOfMatchesFNV(t *testing.T) {
	ids := []int64{0, 1, 2, 7, 255, 256, 1 << 20, 1<<40 + 12345, 1<<62 + 99, -1, -987654321}
	for _, id := range ids {
		for _, n := range []int{1, 3, 10, 64} {
			if got, want := OwnerOf(id, n), fnvOwnerOf(id, n); got != want {
				t.Errorf("OwnerOf(%d, %d) = %d, want %d", id, n, got, want)
			}
		}
	}
	for id := int64(-500); id < 500; id++ {
		if got, want := OwnerOf(id, 10), fnvOwnerOf(id, 10); got != want {
			t.Fatalf("OwnerOf(%d, 10) = %d, want %d", id, got, want)
		}
	}
}

func TestOwnerOfZeroAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(1000, func() {
		if OwnerOf(123456789, 10) >= 10 {
			t.Fatal("owner out of range")
		}
	})
	if allocs != 0 {
		t.Errorf("OwnerOf allocates %v times per call, want 0", allocs)
	}
}

func BenchmarkOwnerOf(b *testing.B) {
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += OwnerOf(int64(i), 10)
	}
	_ = sink
}

func BenchmarkOwnerOfFNVBaseline(b *testing.B) {
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += fnvOwnerOf(int64(i), 10)
	}
	_ = sink
}
