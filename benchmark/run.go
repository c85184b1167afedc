package main

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"zipg/internal/gen"
	"zipg/internal/graphapi"
	"zipg/internal/refgraph"
	"zipg/internal/telemetry"
)

// maxOpsPerClientSecond bounds the pre-allocated result arrays: six times
// what a client of the fastest workload does at the commit that added
// the benchmark. A run that reaches it fails, so the bound cannot cut a
// window short unseen.
const maxOpsPerClientSecond = 100_000

// segments is how many equal parts the timed sequence is cut into; see
// stats.
const segments = 10

// client is one closed-loop client: its op subsequence and what it
// recorded. lat[i] and card[i] belong to ops[i mod len(ops)].
type client struct {
	ops  []op
	lat  []int64 // ns
	card []int32 // result cardinality, -1 for an error
	n    int     // ops executed
}

// loop executes the client's ops back to back, cycling through the
// subsequence from where the last call stopped, until the deadline. The
// timed region allocates nothing of its own and never sleeps. With spans
// on, every op runs under a harness span and the flight recorder is
// drained as it fills.
func (c *client) loop(s graphapi.Store, deadline time.Time, h *harvester) {
	t := time.Now()
	for i := c.n % len(c.ops); c.n < len(c.lat); i++ {
		if i == len(c.ops) {
			i = 0
		}
		o := &c.ops[i]
		var sp *telemetry.Span
		if h != nil {
			sp = telemetry.StartSpan(harnessSpanOp)
		}
		card, err := o.exec(s)
		if h != nil {
			sp.End()
			h.maybeHarvest()
		}
		if err != nil {
			card = -1
		}
		now := time.Now()
		c.lat[c.n], c.card[c.n] = int64(now.Sub(t)), int32(card)
		c.n++
		if now.After(deadline) {
			return
		}
		t = now
	}
}

// slice is one stretch of the timed window: the ops both clients
// completed in it, how long it lasted, and the host's memory latency
// around it (the mean of the probes before and after).
type slice struct {
	ops     int
	dur     time.Duration
	probeNs float64
}

// runResult is what one timed run of one workload produced.
type runResult struct {
	clients  [numClients]*client
	slices   []slice       // untraced runs only
	wall     time.Duration // time inside the closed loop, probes left out
	settle   time.Duration
	executed int
	failed   int
}

// done is how many ops the clients have executed so far.
func (r *runResult) done() int {
	n := 0
	for _, cl := range r.clients {
		n += cl.n
	}
	return n
}

// probeMedian is the median reading of the host over the run's slices.
func (r *runResult) probeMedian() float64 {
	var ns []float64
	for _, sl := range r.slices {
		ns = append(ns, sl.probeNs)
	}
	return median(ns)
}

// meanThroughput is all ops over the time spent on them, stalls
// included and the host's speed not corrected for.
func (r *runResult) meanThroughput() float64 { return float64(r.done()) / r.wall.Seconds() }

// timedRun warms the system up, times the closed loop for the given
// duration, settles background work, and checks every answer. It
// leaves the system open for the caller.
func timedRun(w workload, d *gen.Dataset, ops [numClients][]op, sys *system, dur time.Duration, sc scale, seed int64, h *harvester) (*runResult, error) {
	r := &runResult{}
	for c := range r.clients {
		capacity := int(dur.Seconds()*maxOpsPerClientSecond) + 1
		if h != nil {
			// A traced run executes each client's subsequence exactly
			// once, so that its counts repeat exactly for a seed; the
			// window below only stops a run that has become far slower.
			capacity = len(ops[c])
		}
		r.clients[c] = &client{ops: ops[c], lat: make([]int64, capacity), card: make([]int32, capacity)}
	}
	window := dur
	if h != nil {
		window = 4 * dur
	}

	// Warm-up: the read ops in the first tenth of the sequence. Reads
	// change no state, so the timed run still starts from the freshly
	// built store.
	inParallel(func(c int) {
		for i := 0; i < len(ops[c])/10; i++ {
			if o := &ops[c][i]; !o.isWrite() {
				_, _ = o.exec(sys.store) // warm-up result is not checked; the timed run's are
			}
		}
	})
	runtime.GC()

	if h != nil {
		h.begin()
		start := time.Now()
		deadline := start.Add(window)
		inParallel(func(c int) { r.clients[c].loop(sys.store, deadline, h) })
		r.wall = time.Since(start)
		h.end()
	} else {
		r.runSlices(sys.store, window)
		for c, cl := range r.clients {
			if cl.n == len(cl.lat) {
				return nil, fmt.Errorf("client %d filled its %d result slots before the window closed; raise maxOpsPerClientSecond", c, cl.n)
			}
		}
	}
	progress("timed %.2f s, %d+%d ops", r.wall.Seconds(), r.clients[0].n, r.clients[1].n)
	if h == nil {
		progress("%.0f ops/s as timed with the host at %.0f ns (median of %d slices), %.0f ops/s at the reference", r.meanThroughput(), r.probeMedian(), len(r.slices), r.throughput())
	}

	if w.background {
		// Work the background worker deferred out of the timed window
		// is charged here: let it finish, then compact what is left.
		t := time.Now()
		sys.graph.Close()
		if err := sys.graph.Compact(); err != nil {
			return nil, fmt.Errorf("settle: %w", err)
		}
		r.settle = time.Since(t)
	}

	// Replay what each client executed on the reference graph. The
	// clients' ops touch disjoint nodes, so the two replays can share
	// the oracle and run side by side.
	oracle := refgraph.New(d.Nodes, d.Edges)
	var bad [numClients]int
	inParallel(func(c int) {
		cl := r.clients[c]
		for i := 0; i < cl.n; i++ {
			o := &cl.ops[i%len(cl.ops)]
			want, err := o.exec(oracle)
			if err == nil && int32(want) == cl.card[i] {
				continue
			}
			if bad[c]++; bad[c] <= 5 {
				fmt.Fprintf(errOut, "client %d op %d (%s node %d): cardinality %d, want %d\n", c, i, kindNames[o.kind], o.tao.ID, cl.card[i], want)
			}
		}
	})
	for c, cl := range r.clients {
		r.executed += cl.n
		r.failed += bad[c]
	}
	progress("settled in %.2f s; oracle replay: %d of %d answers differ", r.settle.Seconds(), r.failed, r.executed)
	sample := sc.sweepNodes
	if w.cluster {
		sample /= 5 // every edge read is a round trip
	}
	if err := sweep(sys.store, oracle, ops, d.NumNodes(), sample, seed); err != nil {
		return nil, err
	}
	progress("payload sweep of %d nodes passed", sample)
	return r, nil
}

// sliceLength is how long the clients run between two probes of the
// host: long enough that a probe costs a tenth of the window, short
// enough that the host's state at its two ends describes it.
const sliceLength = 400 * time.Millisecond

// runSlices is the timed window of an untraced run: the closed loop in
// slices of sliceLength, with a probe of the host's memory latency
// before the first slice and after every slice. The window covers the
// probes too, so a run lasts what --seconds says.
func (r *runResult) runSlices(s graphapi.Store, window time.Duration) {
	start := time.Now()
	before := probeHost()
	for time.Since(start) < window {
		done := r.done()
		t := time.Now()
		deadline := t.Add(sliceLength)
		inParallel(func(c int) { r.clients[c].loop(s, deadline, nil) })
		dur := time.Since(t)
		after := probeHost()
		r.slices = append(r.slices, slice{ops: r.done() - done, dur: dur, probeNs: (before + after) / 2})
		r.wall += dur
		before = after
	}
}

// inParallel runs fn once per client, each on its own goroutine, and
// waits for all of them. These are the only goroutines the harness starts.
func inParallel(fn func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// sweep compares full payloads, not just cardinalities, against the
// oracle's final state: every property and every edge (destination,
// timestamp, properties) of a seeded sample of nodes that includes
// nodes the run added.
func sweep(s graphapi.Store, oracle *refgraph.Graph, ops [numClients][]op, numNodes, sample int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	ids := make([]graphapi.NodeID, 0, sample)
	for c := range ops {
		for i := range ops[c] {
			if id := ops[c][i].tao.ID; id >= int64(numNodes) && len(ids) < sample/10 {
				ids = append(ids, id)
			}
		}
	}
	for len(ids) < sample {
		ids = append(ids, int64(rng.Intn(numNodes)))
	}
	errs := make([]error, numClients)
	inParallel(func(c int) {
		for i := c; i < len(ids) && errs[c] == nil; i += numClients {
			errs[c] = compareNode(s, oracle, ids[i])
		}
	})
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("payload sweep: %w", err)
		}
	}
	return nil
}

func compareNode(s graphapi.Store, oracle *refgraph.Graph, id graphapi.NodeID) error {
	got, gotOK := s.GetNodeProperty(id, nil)
	want, wantOK := oracle.GetNodeProperty(id, nil)
	if gotOK != wantOK || !slices.Equal(got, want) {
		return fmt.Errorf("node %d: properties %v (%v), want %v (%v)", id, got, gotOK, want, wantOK)
	}
	gotRecs, wantRecs := s.GetEdgeRecords(id), oracle.GetEdgeRecords(id)
	if len(gotRecs) != len(wantRecs) {
		return fmt.Errorf("node %d: %d edge records, want %d", id, len(gotRecs), len(wantRecs))
	}
	for r := range wantRecs {
		got, err := recordEdges(gotRecs[r])
		if err != nil {
			return fmt.Errorf("node %d record %d: %w", id, r, err)
		}
		want, _ := recordEdges(wantRecs[r]) // the oracle's Data cannot fail below Count()
		if len(got) != len(want) {
			return fmt.Errorf("node %d record %d: %d edges, want %d", id, r, len(got), len(want))
		}
		for i := range want {
			if g, e := got[i], want[i]; g.Dst != e.Dst || g.Timestamp != e.Timestamp || !maps.Equal(g.Props, e.Props) {
				return fmt.Errorf("node %d record %d edge %d: %+v, want %+v", id, r, i, g, e)
			}
		}
	}
	return nil
}

// recordEdges reads a whole record and checks it is in time order. Edges
// with one timestamp may come in any order (the store and the reference
// break the tie differently), so ties are put in a canonical order.
func recordEdges(rec graphapi.EdgeRecord) ([]graphapi.EdgeData, error) {
	out := make([]graphapi.EdgeData, rec.Count())
	for i := range out {
		var err error
		if out[i], err = rec.Data(i); err != nil {
			return nil, fmt.Errorf("edge %d: %w", i, err)
		}
		if i > 0 && out[i].Timestamp < out[i-1].Timestamp {
			return nil, fmt.Errorf("edge %d is out of time order", i)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Timestamp != b.Timestamp {
			return a.Timestamp < b.Timestamp
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return fmt.Sprint(a.Props) < fmt.Sprint(b.Props)
	})
	return out, nil
}

// latencyStats are the latency figures of one run.
type latencyStats struct {
	readP50, readP99   float64 // µs, median of the segment percentiles
	writeP50, writeP99 float64
	kindP50            [numKinds]float64 // µs over the whole run
}

// stats cuts each client's executed sequence into equal segments and
// reports the median over segments of each percentile, taken over the
// clients' merged k-th segments. A stall the machine imposes for a second
// or two then moves a few segments, not the result.
func (r *runResult) stats() latencyStats {
	var st latencyStats
	var readP50s, readP99s, writeP50s, writeP99s []float64
	var byKind [numKinds][]int64
	for k := 0; k < segments; k++ {
		var reads, writes []int64
		for _, cl := range r.clients {
			lo, hi := cl.n*k/segments, cl.n*(k+1)/segments
			for i := lo; i < hi; i++ {
				o := &cl.ops[i%len(cl.ops)]
				if o.isWrite() {
					writes = append(writes, cl.lat[i])
				} else {
					reads = append(reads, cl.lat[i])
				}
				byKind[o.kind] = append(byKind[o.kind], cl.lat[i])
			}
		}
		if len(reads) > 0 {
			readP50s = append(readP50s, percentile(reads, 0.50))
			readP99s = append(readP99s, percentile(reads, 0.99))
		}
		if len(writes) > 0 {
			writeP50s = append(writeP50s, percentile(writes, 0.50))
			writeP99s = append(writeP99s, percentile(writes, 0.99))
		}
	}
	st.readP50, st.readP99 = median(readP50s)/1e3, median(readP99s)/1e3
	st.writeP50, st.writeP99 = median(writeP50s)/1e3, median(writeP99s)/1e3
	for k, lats := range byKind {
		if len(lats) > 0 {
			st.kindP50[k] = percentile(lats, 0.50) / 1e3
		}
	}
	return st
}

// throughput is the run's ops per second at the reference memory
// latency: the median over slices of the slice's rate, scaled by what
// the probes around that slice read. A slice the host ran a fifth slower,
// by the probe, counts a fifth more; a stall of a second or two moves a
// few slices, not the result.
func (r *runResult) throughput() float64 {
	rates := make([]float64, len(r.slices))
	for i, sl := range r.slices {
		rates[i] = float64(sl.ops) / sl.dur.Seconds() * hostSlowdown(sl.probeNs)
	}
	return median(rates)
}

// percentile sorts xs in place and returns its q-quantile.
func percentile(xs []int64, q float64) float64 {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return float64(xs[int(q*float64(len(xs)-1))])
}

// median returns the median of xs, 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
