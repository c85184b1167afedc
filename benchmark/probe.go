package main

import (
	"math/rand"
	"time"
)

// The machine this benchmark runs on is a small VM on a shared host, and
// what its neighbours do to the shared cache and memory changes how fast
// everything here runs, by tens of percent, for seconds to hours at a
// time (README, "Noise"). A timed window cannot average that out, so the
// benchmark measures it: a pointer chase through a fixed array, run on
// both client goroutines between the slices of the timed window. The
// chase is this file's own code and does the same work on every commit,
// so the time it takes is a reading of the host, not of the program.

const (
	// probeWords*4 bytes is 16 MiB: beyond both cores' L2, and in the
	// shared L3 only for as long as the neighbours leave it there.
	probeWords = 1 << 22
	// A probe is probeChunks chunks of probeChunkLoads dependent loads,
	// 30 to 100 ms in all, a tenth of a slice. Its reading is the median
	// chunk: a chunk is a millisecond, so one in which the Go scheduler
	// took the goroutine off its thread for a time slice (the program's
	// background work does that) stands out and is passed over.
	probeChunks     = 40
	probeChunkLoads = 10_000
	// referenceLatencyNs is the probe reading that throughput is stated
	// at. It is near what this host reads when it is quiet.
	referenceLatencyNs = 100
)

// probeChain is one cycle through all probeWords indexes in a fixed
// random order; probeAt is where each client's walk stands.
var (
	probeChain []uint32
	probeAt    [numClients]uint32
)

// buildProbe lays the chain out and walks it once, so that the first
// reading does not find parts of it still in cache from being written.
func buildProbe() {
	order := rand.New(rand.NewSource(1)).Perm(probeWords)
	probeChain = make([]uint32, probeWords)
	for i, at := range order {
		probeChain[at] = uint32(order[(i+1)%probeWords])
	}
	for c := range probeAt {
		probeAt[c] = uint32(order[c*probeWords/numClients])
	}
	probeHost()
}

// hostSlowdown is how much slower than at the reference latency the
// host ran when the probe read ns: a time measured then is divided by
// it, a rate multiplied.
func hostSlowdown(ns float64) float64 { return ns / referenceLatencyNs }

// probeHost returns the host's memory latency right now, in ns per
// dependent load, as the mean over the clients' goroutines: they chase at
// the same time, the way they run the workload at the same time.
func probeHost() float64 {
	var ns [numClients]float64
	inParallel(func(c int) {
		var chunks [probeChunks]float64
		at := probeAt[c]
		for k := range chunks {
			t := time.Now()
			for i := 0; i < probeChunkLoads; i++ {
				at = probeChain[at]
			}
			chunks[k] = float64(time.Since(t)) / probeChunkLoads
		}
		probeAt[c] = at
		ns[c] = median(chunks[:])
	})
	var sum float64
	for _, v := range ns {
		sum += v
	}
	return sum / numClients
}
